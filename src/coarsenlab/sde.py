"""Monte Carlo simulation of the single-cluster volume process.

Paths follow

    dX = -[1 - (X/L(s))^{1/3}] ds + sqrt(2 eps) (1 + X/eps)^{1/6} dW,

absorbed at 0.  Survival payoffs E[w0(X(T)); tau > T] validate the adjoint
PDE solves, and exit-time histograms probe the first-passage density.

Randomness comes from a counter-based Philox generator keyed by the seed and
local to each batch, drawn in a fixed (step-major, path-minor) layout: each
step draws one normal per path, then, under the bridge correction, one
uniform per path.  So the results are a function of the config and the
starting points, bit for bit.  A single worker thread draws the next step's
numbers while the current step is computed; it is the same generator, called
in the same order (a draw starts only after the previous one has finished),
so the stream does not change.  The arithmetic runs on the live paths only,
with the same elementwise expressions, and a batch stops at the first step
where no path is alive, since no later draw would be used.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagnostics import LHistory

__all__ = [
    "McConfig",
    "McEstimate",
    "estimate_survival_payoff",
    "exit_time_histogram",
    "payoff_function",
]


@dataclass(frozen=True, kw_only=True)
class McConfig:
    """A field with ``json`` metadata is an ``mc-check`` config key: its JSON type and default."""

    eps: float
    history: LHistory
    T: float = field(default=0.25, metadata={"json": float})
    n_paths: int = field(default=200_000, metadata={"json": int})
    dt: float = field(default=1e-3, metadata={"json": float})
    seed: int
    boundary: str = "bridge"  # or "naive"

    def validate(self) -> None:
        if self.eps < 0:
            raise ValueError("eps must be nonnegative (0 = noise-free mode)")
        if self.n_paths < 1 or self.dt <= 0 or self.T <= 0:
            raise ValueError(f"need n_paths >= 1, dt > 0, T > 0, got n_paths {self.n_paths}, "
                             f"dt {self.dt}, T {self.T}")
        if self.boundary not in ("bridge", "naive"):
            raise ValueError(f"unknown boundary scheme {self.boundary!r}")

    __post_init__ = validate  # a McConfig is checked when it is made

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.T / self.dt - 1e-9))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_absorbed: int
    n_survived: int


def payoff_function(spec) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a payoff spec: 'one', 'cuberoot', ('indicator', x0), or callable."""
    if callable(spec):
        return spec
    if spec == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if spec == "cuberoot":
        return lambda x: np.cbrt(np.asarray(x, dtype=float))
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "indicator":
        x0 = float(spec[1])
        return lambda x: (np.asarray(x, dtype=float) > x0).astype(float)
    raise ValueError(f"unknown payoff {spec!r}")


# np.exp(q) is exactly 0.0 below this (exp(-745.14) already underflows past
# the smallest subnormal), so there u < exp(q) is false without evaluating it
_EXP_ZERO = -746.0


def _draw_ahead(worker: ThreadPoolExecutor, rng: np.random.Generator, n: int,
                n_steps: int, bridge: bool):
    """Yield each step's draws (z, u), u None without the bridge correction.

    The next step's pair is filled on ``worker`` while the caller uses the
    current one (numpy releases the GIL while it fills).  A fill starts only
    after the previous one finished, so the stream is the one a plain loop of
    ``standard_normal(n)``, ``random(n)`` calls draws.
    """
    pairs = [(np.empty(n), np.empty(n) if bridge else None) for _ in range(2)]

    def fill(z, u):
        rng.standard_normal(out=z)
        if u is not None:
            rng.random(out=u)

    ahead = worker.submit(fill, *pairs[0])
    try:
        for k in range(n_steps):
            ahead.result()
            if k + 1 < n_steps:
                ahead = worker.submit(fill, *pairs[(k + 1) % 2])
            yield pairs[k % 2]
    finally:
        ahead.result()  # the fill in flight when the caller stops early


def _euler_step(x, idx, z, u, big_l, eps, dt):
    """One step of the live paths: (new positions, which crossed).

    ``x`` holds the live positions (all > 0) and ``idx`` their places in the
    batch's normals ``z`` and uniforms ``u`` (None without the bridge
    correction).  Each value comes from the same elementwise expression as a
    whole-batch step, so it does not depend on which other paths are alive.
    Each array is dropped once used: at 200k paths each is 1.6 MB.
    """
    drift = -(1.0 - np.cbrt(x / big_l))
    x_new = x + drift * dt
    del drift
    if eps == 0.0:  # the noise term would add a signed zero
        return x_new, x_new <= 0.0
    sigma = math.sqrt(2.0 * eps) * (1.0 + x / eps) ** (1.0 / 6.0)
    x_new += sigma * math.sqrt(dt) * z[idx]
    crossed = x_new <= 0.0
    if u is not None:
        with np.errstate(divide="ignore", over="ignore"):
            q = -2.0 * x * x_new / (sigma * sigma * dt)
        del sigma
        near = np.flatnonzero((x_new > 0.0) & (q >= _EXP_ZERO))
        p_cross = np.exp(q[near])
        del q
        crossed[near] = u[idx[near]] < p_cross
    return x_new, crossed


def _simulate_batch(
    config: McConfig, x_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance all paths; returns (alive, X_final, exit_times).

    ``exit_times`` holds NaN for surviving paths.  The bridge correction
    absorbs a path crossing-wise even when both endpoints are positive, using
    the frozen-coefficient crossing probability exp(-2 a b / (sigma^2 dt)).

    Only the live paths are advanced, and their lists are compacted in a step
    where some path crossed.  The batch stops once no path is alive.  Without
    noise (eps 0) nothing is drawn.
    """
    x0 = np.asarray(x_starts, dtype=float)
    if (x0 < 0.0).any():
        raise ValueError("x_start must be nonnegative")
    n = len(x0)
    n_steps = config.n_steps
    dt = config.T / n_steps
    eps = config.eps
    bridge = config.boundary == "bridge" and eps > 0.0
    alive = x0 > 0.0
    exit_t = np.where(alive, np.nan, 0.0)
    idx = np.flatnonzero(alive)
    if len(idx) == 0:
        return alive, x0.copy(), exit_t
    x = x0[idx]
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    with ThreadPoolExecutor(max_workers=1) as worker, contextlib.closing(
            _draw_ahead(worker, rng, n, n_steps, bridge) if eps > 0.0
            else ((None, None) for _ in range(n_steps))) as draws:
        for k, (z, u) in enumerate(draws):
            t_mid = k * dt
            big_l = float(config.history.value(min(t_mid, config.history.t_end)))
            x_new, crossed = _euler_step(x, idx, z, u, big_l, eps, dt)
            if crossed.any():
                exit_t[idx[crossed]] = (k + 1) * dt
                idx = idx[~crossed]
                x = x_new[~crossed]
                if len(idx) == 0:
                    break
            else:
                x = x_new
    alive = np.zeros(n, dtype=bool)
    alive[idx] = True
    x_fin = np.zeros(n)
    x_fin[idx] = x
    return alive, x_fin, exit_t


def estimate_survival_payoff(config: McConfig, payoff, x_start: float) -> McEstimate:
    """MC estimate of E[w0(X(T)); tau > T] started from x_start."""
    w0 = payoff_function(payoff)
    starts = np.full(config.n_paths, float(x_start))
    alive, x_fin, _ = _simulate_batch(config, starts)
    values = np.where(alive, w0(x_fin), 0.0)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(config.n_paths)) if config.n_paths > 1 else 0.0
    return McEstimate(
        mean=mean,
        stderr=stderr,
        n_absorbed=int((~alive).sum()),
        n_survived=int(alive.sum()),
    )


def exit_time_histogram(
    config: McConfig, x_start: float, bins: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """(density, bin_edges, survival_fraction) for the absorption time.

    The density is normalized so that its integral equals the absorbed
    fraction; the mass deficit is the survival probability.
    """
    starts = np.full(config.n_paths, float(x_start))
    alive, _, exit_t = _simulate_batch(config, starts)
    taus = exit_t[~alive]
    edges = np.linspace(0.0, config.T, bins + 1)
    counts, edges = np.histogram(taus, bins=edges)
    width = edges[1] - edges[0]
    density = counts / (config.n_paths * width)
    survival = float(alive.sum()) / config.n_paths
    return density, edges, survival

"""Monte Carlo simulation of the single-cluster volume process.

Paths follow

    dX = -[1 - (X/L(s))^{1/3}] ds + sqrt(2 eps) (1 + X/eps)^{1/6} dW,

absorbed at 0.  Survival payoffs E[w0(X(T)); tau > T] validate the adjoint
PDE solves, and exit-time histograms probe the first-passage density.

The paths are split into blocks of 2**15 consecutive paths; the layout
depends on the number of paths only.  Block j draws from counter-based Philox
streams keyed by the seed: its normals from ``Philox(key=seed).jumped(2j + 1)``
and its uniforms from ``jumped(2j + 2)``, so no two streams overlap.  Each step
draws one normal per live path and, under the bridge correction, one uniform
per live path whose crossing probability exp(q) is at least exp(-37), both in
path order.  Below that cut a path is not offered the bridge crossing: a
uniform is a multiple of 2**-53 and exp(-37) = 8.5e-17 < 2**-53, so only
u == 0 could beat exp(q) there, and the cut moves a crossing probability by
at most 2**-53 per path and step.  The blocks run to the end on a thread pool
with one worker per available core, and their results are joined in block
order, so the results are a function of the config and the starting points,
bit for bit, whatever the number of cores.  The arithmetic runs on the live
paths only, and a block stops at the first step where no path is alive.
"""

from __future__ import annotations

import functools
import math
import os
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
    """Resolve a payoff spec: 'one', 'cuberoot' or ('indicator', x0)."""
    if spec == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if spec == "cuberoot":
        return lambda x: np.cbrt(np.asarray(x, dtype=float))
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "indicator":
        x0 = float(spec[1])
        return lambda x: (np.asarray(x, dtype=float) > x0).astype(float)
    raise ValueError(f"unknown payoff {spec!r}")


# below this exp(q) < 2**-53, the spacing of Generator.random's values, so
# no uniform is drawn there (see the module docstring)
_Q_MIN = -37.0

_BLOCK = 2**15  # paths per block


def _euler_step(x, z, uniform, big_l, eps, dt):
    """One step of the live paths: (new positions, which crossed).

    ``x`` holds the live positions (all > 0) and ``z`` one normal each (None
    when eps is 0).  ``uniform(n)`` draws n uniforms for the paths a bridge
    crossing can absorb, in path order (None without the bridge correction).
    Each array is dropped once used.
    """
    drift = -(1.0 - np.cbrt(x / big_l))
    x_new = x + drift * dt
    del drift
    if z is None:  # eps 0: the noise term would add a signed zero
        return x_new, x_new <= 0.0
    sigma = math.sqrt(2.0 * eps) * (1.0 + x / eps) ** (1.0 / 6.0)
    x_new += sigma * math.sqrt(dt) * z
    crossed = x_new <= 0.0
    if uniform is not None:
        with np.errstate(divide="ignore", over="ignore"):
            q = -2.0 * x * x_new / (sigma * sigma * dt)
        del sigma
        near = np.flatnonzero((x_new > 0.0) & (q >= _Q_MIN))
        crossed[near] = uniform(len(near)) < np.exp(q[near])
    return x_new, crossed


def _simulate_block(config: McConfig, x0: np.ndarray, j: int):
    """(alive, X_final, exit_times) of block ``j``, whose starts are ``x0``.

    Only the live paths are advanced, and their lists are compacted in a step
    where some path crossed.  The block stops once no path is alive.  Without
    noise (eps 0) nothing is drawn.
    """
    n_steps = config.n_steps
    dt = config.T / n_steps
    eps = config.eps
    alive = x0 > 0.0
    exit_t = np.where(alive, np.nan, 0.0)
    x_fin = np.where(alive, 0.0, x0)  # a path dead at the start keeps its start
    idx = np.flatnonzero(alive)
    x = x0[idx]
    key = np.random.Philox(key=config.seed)
    normal = np.random.Generator(key.jumped(2 * j + 1)).standard_normal
    uniform = (np.random.Generator(key.jumped(2 * j + 2)).random
               if config.boundary == "bridge" else None)
    for k in range(n_steps):
        if len(idx) == 0:
            break
        t_mid = k * dt
        big_l = float(config.history.value(min(t_mid, config.history.t_end)))
        z = normal(len(x)) if eps > 0.0 else None
        x_new, crossed = _euler_step(x, z, uniform, big_l, eps, dt)
        if crossed.any():
            exit_t[idx[crossed]] = (k + 1) * dt
            idx = idx[~crossed]
            x = x_new[~crossed]
        else:
            x = x_new
    alive = np.zeros(len(x0), dtype=bool)
    alive[idx] = True
    x_fin[idx] = x
    return alive, x_fin, exit_t


def _simulate_batch(
    config: McConfig, x_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance all paths; returns (alive, X_final, exit_times).

    ``exit_times`` holds NaN for surviving paths, and ``X_final`` 0 for
    absorbed ones.  The bridge correction absorbs a path crossing-wise even
    when both endpoints are positive, using the frozen-coefficient crossing
    probability exp(-2 a b / (sigma^2 dt)).

    The paths are split into blocks of ``_BLOCK`` consecutive paths, which a
    thread pool with one worker per available core runs to the end; the
    results do not depend on the number of workers.
    """
    x0 = np.asarray(x_starts, dtype=float)
    if (x0 < 0.0).any():
        raise ValueError("x_start must be nonnegative")
    blocks = [x0[i:i + _BLOCK] for i in range(0, len(x0), _BLOCK)]
    workers = min(len(blocks), len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(functools.partial(_simulate_block, config),
                              blocks, range(len(blocks))))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


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

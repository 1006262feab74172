"""Monte Carlo simulation of the single-cluster volume process.

Paths follow

    dX = -[1 - (X/L(s))^{1/3}] ds + sqrt(2 eps) (1 + X/eps)^{1/6} dW,

absorbed at 0.  Survival payoffs E[w0(X(T)); tau > T] validate the adjoint
PDE solves, and exit-time histograms probe the first-passage density.

The paths are split into blocks of 2**15 consecutive paths; the layout
depends on the number of paths only.  Block j draws from SFC64 streams keyed
by a SeedSequence of the seed: its normals from
``SFC64(SeedSequence(seed, spawn_key=(2j + 1,)))`` and its uniforms from
``spawn_key=(2j + 2,)``, so each stream depends on the seed and j alone, and
any nonnegative integer is a seed.  Each step draws one normal per live path
and, under the bridge correction, one uniform per live path with x_new > 0
and x * x_new <= 18.5 sigma^2 dt, both in path order.  That cut is
q = -2 x x_new / (sigma^2 dt) >= -37 without a division, and it takes in every
path with x_new <= 0, which is absorbed without a draw.  Beyond it a path is
not offered the bridge crossing: SFC64's uniforms are multiples of 2**-53
and exp(-37) = 8.5e-17 < 2**-53, so only u == 0 could beat exp(q) there, and
the cut moves a crossing probability by at most 2**-53 per path and step.
exp(q) is computed for the drawn paths only.

The blocks run to the end on a thread pool with one worker per available
core, and their results are joined in block order, so the results are a
function of the config and the starting points, bit for bit, whatever the
number of cores.  A block allocates its buffers once, keeps its live paths in
their prefix and writes each step into them; sigma^2 dt = 2 eps dt
(1 + x/eps)^{1/3} takes one cube root.  A block stops at the first step where
no path is alive.
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


# a bridge candidate has x * x_new <= _CUT * sigma^2 dt, that is q >= -37:
# below it exp(q) < 2**-53, the spacing of Generator.random's values, so no
# uniform is drawn there (see the module docstring)
_CUT = 18.5

_BLOCK = 2**15  # paths per block


def _stream(seed: int, key: int) -> np.random.Generator:
    """The SFC64 generator of stream ``key`` under ``seed``."""
    seq = np.random.SeedSequence(seed, spawn_key=(key,))
    return np.random.Generator(np.random.SFC64(seq))


def _euler_step(x, x_new, tmp, s2dt, z, normal, uniform, big_l, eps, dt):
    """Advance the live paths ``x`` into ``x_new``; returns the indices of those absorbed.

    Every array argument has one entry per live path (all > 0); ``tmp``,
    ``s2dt`` (sigma^2 dt) and ``z`` are scratch.  ``normal(out=z)`` fills
    ``z`` with normals (None when eps is 0), and ``uniform(n)`` draws n
    uniforms for the paths a bridge crossing can absorb, in path order (None
    without the bridge correction).
    """
    np.divide(x, big_l, out=tmp)
    np.cbrt(tmp, out=tmp)
    tmp -= 1.0
    tmp *= dt
    np.add(x, tmp, out=x_new)
    if normal is None:  # eps 0: the noise term would add a signed zero
        return np.flatnonzero(x_new <= 0.0)
    np.divide(x, eps, out=tmp)
    tmp += 1.0
    np.cbrt(tmp, out=s2dt)  # sigma^2 = 2 eps (1 + x/eps)^{1/3}
    s2dt *= 2.0 * eps * dt
    normal(out=z)
    np.sqrt(s2dt, out=tmp)
    tmp *= z
    x_new += tmp
    if uniform is None:
        return np.flatnonzero(x_new <= 0.0)
    np.multiply(x, x_new, out=tmp)
    np.multiply(s2dt, _CUT, out=z)
    near = np.flatnonzero(tmp <= z)  # every x_new <= 0 among them
    kept = x_new[near] > 0.0
    over = near[kept]
    kept[kept] = uniform(len(over)) >= np.exp(-2.0 * tmp[over] / s2dt[over])
    return near[~kept]


def _simulate_block(config: McConfig, x0: np.ndarray, j: int):
    """(alive, X_final, exit_times) of block ``j``, whose starts are ``x0``.

    The live positions sit in the prefix of buffers allocated once per block,
    and each step writes into them.  A step where no path crossed swaps the
    old and new positions; one where some crossed compacts the survivors.  The
    block stops once no path is alive.  Without noise (eps 0) nothing is
    drawn.
    """
    n_steps = config.n_steps
    dt = config.T / n_steps
    eps = config.eps
    alive = x0 > 0.0
    exit_t = np.where(alive, np.nan, 0.0)
    x_fin = np.where(alive, 0.0, x0)  # a path dead at the start keeps its start
    idx = np.flatnonzero(alive)
    m = len(idx)
    x, x_new, tmp, s2dt, z = np.empty((5, len(x0)))
    np.take(x0, idx, out=x[:m])
    history = config.history
    big_l = history.value(np.minimum(np.arange(n_steps) * dt, history.t_end))
    normal = uniform = None
    if eps > 0.0:
        normal = _stream(config.seed, 2 * j + 1).standard_normal
        if config.boundary == "bridge":
            uniform = _stream(config.seed, 2 * j + 2).random
    for k in range(n_steps):
        if m == 0:
            break
        dead = _euler_step(x[:m], x_new[:m], tmp[:m], s2dt[:m], z[:m], normal, uniform,
                           big_l[k], eps, dt)
        if len(dead):
            exit_t[idx[dead]] = (k + 1) * dt
            keep = np.ones(m, dtype=bool)
            keep[dead] = False
            idx = idx[keep]
            np.compress(keep, x_new[:m], out=x[:len(idx)])
            m = len(idx)
        else:
            x, x_new = x_new, x
    alive = np.zeros(len(x0), dtype=bool)
    alive[idx] = True
    x_fin[idx] = x[:m]
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

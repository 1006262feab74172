"""Classical LSW solver by the method of characteristics.

The transport velocity is ``(x/L(t))^{1/3} - 1``; the tail
``w(x,t) = int_x^inf c`` is exact along characteristics,
``w(x,t) = w0(F(x,t))`` where ``F(x,t)`` is the foot (time-0 position) of the
backward characteristic through ``(x,t)``.  The transport parameter ``L(t)``
is pinned down per step by a fixed-point iteration on

    L^{1/3} = (1/3) int_0^inf x^{-2/3} w(x,t) dx / w(0,t),

which is the condition for the mass ``int x c dx`` to stay constant.  Each
iteration integrates every characteristic back to t = 0, so it starts from
``L`` extrapolated through the last knots.  All quadratures use the
substitution ``x = u^3`` (so ``x^{-2/3} dx = 3 du``), which removes the
endpoint singularity.

``L(t)`` is piecewise linear with a knot per step, so the characteristic
ODE's right-hand side has a kink at every knot.  Each backward solve stops
at every knot below its start (one DOP853 call per interval, the end state
of one starting the next), so the error control never steps across a kink
and the feet match far tighter solves to about 1e-12.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from .diagnostics import L_FLOOR, LHistory, TrajectorySeries
from .initial_data import InitialTail

__all__ = [
    "ClassicalRunConfig",
    "ClassicalSolver",
    "characteristic_backward",
    "rate_semi_analytic",
    "run_classical",
]

_RTOL = 1e-11
_ATOL = 1e-13
_X_LIMIT = 1e6  # a backward characteristic whose foot lies beyond this has escaped
# the fixed point stops once successive L differ by this, relative.  On the
# exponential reference run (t_end 0.5, dt 0.0125) that takes 2 iterations a
# step after the first five and leaves L(t_end) 2e-12 from the fixed point
# iterated to 1e-12; the characteristic solves add 2e-12 against rtol 1e-13, atol 1e-15.
_FP_TOL = 5e-9
_FP_MAX_ITER = 50


def _solve_back(rhs, y0, t: float, history: LHistory) -> np.ndarray:
    """State at time 0 of ``dy/ds = rhs(s, y)`` with ``y(t) = y0``.

    ``L`` is linear between knots, so ``rhs`` is smooth there and kinked at
    each knot.  One solve per interval between knots keeps DOP853's error
    control from stepping across a kink; each interval's end state starts
    the next.  ``rhs`` may read ``L`` unchecked, since the span ``[0, t]`` is
    checked here once.
    """
    history.value((0.0, t))  # raises if [0, t] leaves the recorded history
    times = history.times
    knots = times[(times > 0.0) & (times < t)]
    bounds = np.concatenate(([t], knots[::-1], [0.0]))
    y = np.asarray(y0, dtype=float)
    for hi, lo in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (hi, lo), y, method="DOP853", rtol=_RTOL, atol=_ATOL)
        if not sol.success:
            raise RuntimeError(f"backward characteristic solve failed: {sol.message}")
        y = sol.y[:, -1]
    # scipy's solver object is a reference cycle (its counting ``fun`` closes
    # over it), so each interval leaves one for the cycle collector; freeing
    # them here keeps them from piling up and raising the peak memory
    gc.collect(0)
    return y


def _interp_reader(times: np.ndarray, values: np.ndarray):
    """``s -> np.interp(s, times, values)`` for a scalar ``s``, bit for bit.

    numpy's arithmetic on Python floats, without ``np.interp``'s per-call
    conversions, which dominate at the ~1e5 reads of a run.
    """
    times, values = times.tolist(), values.tolist()
    slopes = [(v1 - v0) / (t1 - t0)
              for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:])]
    last = len(times) - 1

    def value_at(s):
        j = bisect_right(times, s) - 1
        if j < 0:
            return values[0]
        if j == last or times[j] == s:
            return values[j]
        return slopes[j] * (s - times[j]) + values[j]

    return value_at


def _fixed_point_start(history: LHistory, t: float) -> float:
    """Start for L(t): the polynomial through the last (up to four) knots, at t.

    It is kept within a factor 2 of the last value, so it stays positive.
    """
    times, values = history.times[-4:].tolist(), history.values[-4:].tolist()
    guess = sum(v_i * math.prod((t - t_j) / (t_i - t_j) for t_j in times if t_j != t_i)
                for t_i, v_i in zip(times, values))
    return min(max(guess, 0.5 * values[-1]), 2.0 * values[-1])


def _checked_feet(feet: np.ndarray) -> np.ndarray:
    """Feet of a backward solve, raising if a path escaped or went negative."""
    if np.any(feet > _X_LIMIT):
        raise RuntimeError(f"characteristic escaped beyond x = {_X_LIMIT:g}")
    if np.any(feet < -1e-9):
        raise AssertionError("backward characteristic went negative")
    return np.maximum(feet, 0.0)


def _backward_feet(xs: np.ndarray, t: float, history: LHistory) -> np.ndarray:
    """Feet F(x, t) for a batch of terminal positions, one vector solve."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ValueError("terminal positions must be nonnegative")
    if t == 0.0:
        return xs.copy()
    l_at = _interp_reader(history.times, history.values)

    def rhs(s, y):  # the velocity (y/L)^{1/3} - 1, y clipped at 0, in one array
        v = np.maximum(y, 0.0)
        v /= l_at(s)
        return np.negative(np.subtract(1.0, np.cbrt(v, out=v), out=v), out=v)

    return _checked_feet(_solve_back(rhs, xs, t, history))


def _foot_and_jacobian(x: float, t: float, history: LHistory) -> tuple[float, float]:
    """(F(x,t), dF/dx) from one solve, dF/dx = exp[-(1/3) int_0^t (x^2 L)^{-1/3} ds].

    At x = 0 the integrand has an integrable (t-s)^{-2/3} blow-up at s = t;
    the first slice is handled by the local expansion x(s) ~ t - s, so the
    foot is that of the path through (eta, t - eta), O(eta^{4/3}) from F(0,t).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if t == 0.0:
        return float(x), 1.0
    x_start, t_start, seed = float(x), t, 0.0
    if x == 0.0:
        eta = min(1e-9, 0.5 * t)
        seed = 3.0 * eta ** (1.0 / 3.0) / np.cbrt(history.value(t))
        x_start, t_start = eta, t - eta
    l_at = _interp_reader(history.times, history.values)

    def rhs(s, y):
        pos = max(y[0], 1e-300)
        big_l = l_at(s)
        return [-(1.0 - np.cbrt(max(y[0], 0.0) / big_l)), 1.0 / np.cbrt(pos * pos * big_l)]

    end = _solve_back(rhs, [x_start, 0.0], t_start, history)
    foot = float(_checked_feet(end[:1])[0])
    integral = seed - float(end[1])  # sign: integrated from t down to 0
    return foot, math.exp(-integral / 3.0)


def characteristic_backward(x: float, t: float, history: LHistory) -> float:
    """Foot F(x,t) of the backward characteristic ending at x at time t."""
    return float(_backward_feet(np.array([float(x)]), t, history)[0])


@dataclass
class ClassicalRunConfig:
    """A field with ``json`` metadata is a ``classical`` config key: its JSON type and default."""

    tail: InitialTail
    t_end: float = field(default=1.0, metadata={"json": float})
    dt: float = field(default=0.0125, metadata={"json": float})
    panels: int = field(default=24, metadata={"json": int})
    nodes_per_panel: int = field(default=8, metadata={"json": int})

    def validate(self) -> None:
        if self.t_end <= 0 or self.dt <= 0:
            raise ValueError("t_end and dt must be positive")
        if self.panels < 1 or self.nodes_per_panel < 2:
            raise ValueError("need panels >= 1 and nodes_per_panel >= 2")


class ClassicalSolver:
    """Advances L(t) and exposes the transported tail.

    The state is just the L-history: the density never lives on a mesh, every
    evaluation composes the initial tail with freshly integrated
    characteristics.
    """

    def __init__(self, config: ClassicalRunConfig):
        config.validate()
        self.config = config
        self.tail = config.tail
        self.t = 0.0
        base_x, self._gl_w = leggauss(config.nodes_per_panel)
        self._gl_shift = base_x + 1.0  # the Gauss nodes on [0, 2]
        l0 = self._initial_l()
        self.history = LHistory(times=np.array([0.0]), values=np.array([l0]))
        self.fp_iterations: list[int] = []  # fixed-point iterations of each step

    # -- quadrature plumbing -------------------------------------------------

    def _u_nodes(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes/weights in u = x^{1/3} covering the support.

        Since F(x,t) > x - t, the tail at time t is negligible beyond
        x_max + t, where x_max bounds the initial support.
        """
        edges = np.linspace(0.0, np.cbrt(self.tail.x_max + t), self.config.panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = edges[:-1, None] + half * self._gl_shift
        return nodes.ravel(), (half * self._gl_w).ravel()

    def _initial_l(self) -> float:
        u, du = self._u_nodes(0.0)
        w = self.tail.w0(u ** 3)
        n0 = self.tail.n0
        return float((w @ du) / n0) ** 3

    def _tail_integrals(self, t: float, history: LHistory) -> dict:
        """Quadratures of the transported tail at time t under a trial L."""
        u, du = self._u_nodes(t)
        xs = np.concatenate(([0.0], u ** 3))
        feet = _backward_feet(xs, t, history)
        w = self.tail.w0(feet)
        n_t = float(w[0])
        wq = w[1:]
        return {
            "n": n_t,
            "l_third": float(wq @ du) / n_t if n_t > 0 else np.nan,
            "mass": float((3.0 * u * u * wq) @ du),
            "energy": float((2.0 * u * wq) @ du),
            "scale": float((4.0 * u ** 3 * wq) @ du),
            "foot0": float(feet[0]),
        }

    # -- public surface ------------------------------------------------------

    @property
    def current_l(self) -> float:
        return float(self.history.values[-1])

    def advance(self, dt: float) -> dict:
        """One step: fixed-point iteration for L on [t, t+dt].

        Returns the converged tail integrals at the new time (used by the run
        loop for the diagnostic series).
        """
        t_new = self.t + dt
        l_guess = _fixed_point_start(self.history, t_new)
        info = None
        for iteration in range(1, _FP_MAX_ITER + 1):
            trial = self.history.extended(t_new, l_guess)
            info = self._tail_integrals(t_new, trial)
            l_new = info["l_third"] ** 3
            if l_new < L_FLOOR:
                raise RuntimeError(f"L fell below the floor at t = {t_new}")
            if abs(l_new - l_guess) <= _FP_TOL * max(l_new, 1.0):
                l_guess = l_new
                break
            l_guess = l_new
        else:
            raise RuntimeError(
                f"L fixed point did not converge in {_FP_MAX_ITER} iterations "
                f"at t = {t_new}; reduce dt"
            )
        self.history = self.history.extended(t_new, l_guess)
        self.t = t_new
        self.fp_iterations.append(iteration)
        return info

    def tail_value(self, x, t: float | None = None):
        """Number density above x at time t: w0(F(x,t))."""
        t = self.t if t is None else t
        if t > self.t + 1e-12:
            raise ValueError("solver has not advanced that far")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        w = self.tail.w0(_backward_feet(xs, t, self.history))
        return w if np.ndim(x) else float(w[0])


def rate_semi_analytic(solver: ClassicalSolver, t: float) -> float:
    """d(Lambda)/dt from the transported tail, no finite differences.

    With N(t) = w0(F(0,t)) and Lambda = 1/N (mass 1), the chain rule gives
    d(Lambda)/dt = c0(F(0,t)) * dF/dx(0+, t) / N(t)^2, using that the foot of
    the boundary characteristic advances at the rate of the edge Jacobian.
    """
    foot, jac = _foot_and_jacobian(0.0, t, solver.history)
    n_t = float(solver.tail.w0(foot))
    return float(solver.tail.c0(foot)) * jac / (n_t * n_t)


def run_classical(config: ClassicalRunConfig) -> tuple[TrajectorySeries, LHistory, ClassicalSolver]:
    """Integrate to t_end; series columns are L, Lambda, E, M, N, mass_residual."""
    solver = ClassicalSolver(config)

    def row(info: dict) -> dict:
        return {"t": solver.t, "L": solver.current_l, "Lambda": 1.0 / info["n"],
                "E": info["energy"], "M": info["scale"], "N": info["n"],
                "mass_residual": info["mass"] - 1.0}

    rows = [row(solver._tail_integrals(0.0, solver.history))]
    n_steps = max(1, int(round(config.t_end / config.dt)))
    dt = config.t_end / n_steps
    for _ in range(n_steps):
        rows.append(row(solver.advance(dt)))
    series = TrajectorySeries.from_rows(
        rows, f"classical:{config.tail.label}:dt={config.dt}")
    return series, solver.history, solver

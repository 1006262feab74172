"""Finite-volume solver for the diffusive coarsening equation.

The equation advanced is

    dc/dt = d^2/dx^2 [ D(x) c ] + d/dx [ (1 - (x/L)^{1/3}) c ],
    D(x) = eps (1 + x/eps)^{1/3},   c(0, t) = 0,

with the transport parameter L chosen each step by a root-find that makes the
fully discrete step conserve the first moment exactly.

The grid is logarithmically graded, ``x_i = eps (e^{v_i} - 1)`` with uniform
``v``; this resolves the boundary layer of width eps and maps exactly onto
itself under the dilation (eps, x) -> (eps/lam, x/lam), which the covariance
tests rely on.

Advection is explicit upwind with an optional minmod limiter; diffusion is
implicit, one banded solve per step (``banded.solve_banded``).
The diffusion matrix does not depend on L, so a step costs one transposed
solve, after which the step's mass change is an O(n) function of L for the
root-find, plus the forward solve.  The adjoint solver uses the
measure-weighted transpose of the linearized forward operator, stepped by
implicit Euler, so the duality pairing is broken only by the time
discretization; it marches several payoffs through one solve per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .banded import bracket, shifted, solve_banded, weighted_transpose
from .diagnostics import LHistory, TrajectorySeries, moments, output_times
from .initial_data import InitialTail, cell_averages

__all__ = [
    "Grid",
    "DiffusiveRunConfig",
    "DiffusiveSolver",
    "diffusion_coefficient",
    "determine_L",
    "run_diffusive",
    "adjoint_solve",
    "smoothed_indicator",
]

_MASS_TOL = 1e-8  # mass drift that aborts a run


def diffusion_coefficient(eps: float, x):
    """D(x) = eps (1 + x/eps)^{1/3}; equals eps at 0, ~ eps^{2/3} x^{1/3} far out."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    return eps * np.cbrt(1.0 + x / eps)


@dataclass(frozen=True)
class Grid:
    edges: np.ndarray
    centers: np.ndarray = field(init=False)
    widths: np.ndarray = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or len(e) < 3 or e[0] != 0.0 or np.any(np.diff(e) <= 0):
            raise ValueError("edges must be increasing from 0 with >= 2 cells")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "centers", 0.5 * (e[:-1] + e[1:]))
        object.__setattr__(self, "widths", np.diff(e))

    @property
    def n_cells(self) -> int:
        return len(self.widths)

    @classmethod
    def log_graded(cls, eps: float, x_max: float, n_cells: int) -> "Grid":
        """x_i = eps (e^{v_i} - 1) with uniform v; first cell width ~ eps/n * ln-range."""
        if eps <= 0 or x_max <= eps:
            raise ValueError("need eps > 0 and x_max > eps")
        v = np.linspace(0.0, np.log1p(x_max / eps), n_cells + 1)
        return cls(edges=eps * np.expm1(v))


class _Operators:
    """Precomputed geometry and matrix pieces for one (grid, eps) pair."""

    def __init__(self, grid: Grid, eps: float):
        self.grid = grid
        self.eps = eps
        n = grid.n_cells
        x = grid.centers
        self.d_centers = np.asarray(diffusion_coefficient(eps, x))
        # inverse distances between the points where D*c is sampled; the
        # left boundary uses the Dirichlet value (D c)(0) = 0 at x = 0
        beta = np.zeros(n + 1)
        beta[0] = 1.0 / x[0]
        beta[1:n] = 1.0 / np.diff(x)
        beta[n] = 0.0  # no diffusive flux through the outer edge
        self.beta = beta
        inv_w = 1.0 / grid.widths
        d = self.d_centers
        self.diff = np.zeros((3, n))  # the diffusion operator, banded
        self.diff[0, 1:] = beta[1:n] * d[1:] * inv_w[:-1]
        self.diff[1] = -(beta[:n] + beta[1:]) * d * inv_w
        self.diff[2, :-1] = beta[1:n] * d[:-1] * inv_w[1:]
        self.diff_adjoint = weighted_transpose(self.diff, grid.widths)

    # -- advection ----------------------------------------------------------

    def edge_velocity(self, L: float) -> np.ndarray:
        """u = (x/L)^{1/3} - 1 at the cell edges (drift toward 0 below L)."""
        return np.cbrt(self.grid.edges / L) - 1.0

    def edge_states(self, c: np.ndarray, limiter: bool) -> tuple[np.ndarray, np.ndarray]:
        """States of ``c`` at the interior edges, reconstructed from the left
        and from the right cell: minmod-limited linear, or constant without
        the limiter.  They do not depend on L."""
        g = self.grid
        if limiter:
            dc = np.diff(c)
            h = np.diff(g.centers)
            left_slope = np.concatenate(([0.0], dc / h))
            right_slope = np.concatenate((dc / h, [0.0]))
            slope = np.where(
                left_slope * right_slope > 0,
                np.sign(left_slope) * np.minimum(np.abs(left_slope), np.abs(right_slope)),
                0.0,
            )
        else:
            slope = np.zeros_like(c)
        e_in = g.edges[1:-1]
        from_left = c[:-1] + slope[:-1] * (e_in - g.centers[:-1])
        from_right = c[1:] + slope[1:] * (e_in - g.centers[1:])
        return from_left, from_right

    def advective_rate(self, states: tuple[np.ndarray, np.ndarray], L: float) -> np.ndarray:
        """-d/dx of the upwind flux u*c from the ``edge_states``; boundary
        fluxes are 0 (Dirichlet/wall)."""
        from_left, from_right = states
        u = self.edge_velocity(L)
        flux = np.zeros(self.grid.n_cells + 1)
        flux[1:-1] = np.where(u[1:-1] > 0, u[1:-1] * from_left, u[1:-1] * from_right)
        return -np.diff(flux) / self.grid.widths

    def advective_bands(self, L: float) -> np.ndarray:
        """The first-order (unlimited) upwind operator, banded."""
        g = self.grid
        n = g.n_cells
        u = self.edge_velocity(L)
        inv_w = 1.0 / g.widths
        up = u[1:n]  # interior edges
        take_left = up > 0
        from_left = np.where(take_left, up, 0.0)
        from_right = np.where(take_left, 0.0, up)
        ab = np.zeros((3, n))
        # outflux through edge i+1 (rows 0..n-2)
        ab[1, :-1] -= from_left * inv_w[:-1]
        ab[0, 1:] -= from_right * inv_w[:-1]
        # influx through edge i (rows 1..n-1)
        ab[2, :-1] += from_left * inv_w[1:]
        ab[1, 1:] += from_right * inv_w[1:]
        return ab

    # -- implicit solves ----------------------------------------------------

    def diffusion_solve(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt * Diff) c = rhs."""
        return solve_banded(shifted(dt, self.diff), rhs)

    def adjoint_solve_step(self, w: np.ndarray, dt: float, L: float) -> np.ndarray:
        """Implicit-Euler backward step of the weighted-transpose operator.

        The adjoint generator is W^{-1} A^T W with W = diag(cell widths) and
        A the linear forward operator, so the semi-discrete duality pairing
        sum_i w_i c_i dx_i is exactly conserved.  ``w`` holds one payoff, or
        one per column.
        """
        adjoint = weighted_transpose(self.diff + self.advective_bands(L), self.grid.widths)
        return solve_banded(shifted(dt, adjoint), w)


def _moment_l(cbar: np.ndarray, grid: Grid) -> float:
    """Cube of the 1/3-moment ratio of the cell averages ``cbar``."""
    w = cbar * grid.widths
    number = float(w.sum())
    if number <= 0:
        raise ValueError("empty distribution")
    return (float(np.cbrt(grid.centers) @ w) / number) ** 3


def _mass_defect(L: float, base: float, dt: float, edges: np.ndarray,
                 a_left: np.ndarray, a_right: np.ndarray) -> float:
    """``base + dt * sum_j u_j(L) a_j r_j`` over the interior edges, the
    upwind state ``r_j`` taken from the left where ``u_j > 0``.  Module-level,
    so its arrays reach ``brentq`` through ``args`` and die with the call."""
    u = np.cbrt(edges / L) - 1.0
    return base + dt * float(u @ np.where(u > 0, a_left, a_right))


def determine_L(
    c: np.ndarray,
    ops: _Operators,
    states: tuple[np.ndarray, np.ndarray],
    dt: float,
) -> float:
    """Conservative transport parameter for the cell averages ``c``.

    Root-find so the step of length ``dt`` does not change the mass.
    ``states`` are ``ops.edge_states(c, limiter)``.  The search starts from
    the moment value ``_moment_l``.

    The step is ``c_new = S^{-1} (c + dt * advective_rate)`` with
    ``S = I - dt * Diff`` independent of L, so its mass is ``y . (c + dt *
    advective_rate)`` with ``y = S^{-T}(x w)``: one transposed solve per call,
    after which each evaluation is O(n) (see ``_mass_defect``, where
    ``a = diff(y / w)``).
    """
    grid = ops.grid
    x = grid.centers
    from_left, from_right = states
    # y / w, solved for directly: (W^{-1} S^T W)(y / w) = x
    z = solve_banded(shifted(dt, ops.diff_adjoint), x)
    base = float((z - x) @ (c * grid.widths))
    a = np.diff(z)
    args = (base, dt, grid.edges[1:-1], a * from_left, a * from_right)
    l_mom = _moment_l(c, grid)
    # a larger L drifts more mass toward 0, so the defect decreases in L
    lo, hi = bracket(lambda L: _mass_defect(L, *args), 0.5 * l_mom, 2.0 * l_mom,
                     origin=0.0, increasing=False)
    return float(brentq(_mass_defect, lo, hi, args=args, xtol=1e-13, rtol=8.9e-16))


@dataclass
class DiffusiveRunConfig:
    tail: InitialTail
    eps: float
    t_end: float
    x_max: float | None = None  # default: initial support + generous growth room
    n_cells: int = 512
    limiter: bool = True
    cfl: float = 0.5
    output_stride: float = 0.1
    snapshot_times: tuple = ()

    def validate(self) -> None:
        if self.eps <= 0 or self.eps > 1:
            raise ValueError("eps must lie in (0, 1]")
        if self.t_end <= 0 or self.cfl <= 0 or self.cfl > 0.9:
            raise ValueError("t_end must be positive and cfl in (0, 0.9]")
        if self.n_cells < 16:
            raise ValueError("n_cells too small")
        if self.x_max is not None and self.x_max <= self.eps:
            raise ValueError("x_max must exceed eps")
        if self.output_stride <= 0:
            raise ValueError("output_stride must be positive")
        if any(not 0 < s <= self.t_end for s in self.snapshot_times):
            raise ValueError("snapshot_times must lie in (0, t_end]")


class DiffusiveSolver:
    """The state is ``cbar`` (cell averages), ``t`` and the last ``L``."""

    def __init__(self, config: DiffusiveRunConfig):
        config.validate()
        self.config = config
        x_max = config.x_max
        if x_max is None:
            x_max = config.tail.x_max + 4.0 * (1.0 + config.t_end)
        self.grid = Grid.log_graded(config.eps, x_max, config.n_cells)
        self.ops = _Operators(self.grid, config.eps)
        self.cbar = cell_averages(config.tail, self.grid.edges)
        self.t = 0.0
        self.L = _moment_l(self.cbar, self.grid)
        self.neg_clips: list[float] = []

    def mass(self) -> float:
        return float(self.grid.centers @ (self.cbar * self.grid.widths))

    def _dt(self) -> float:
        """CFL-limited explicit-advection step, binding in the boundary layer."""
        u = np.abs(self.ops.edge_velocity(self.L))
        u_cell = np.maximum(u[:-1], u[1:])
        return self.config.cfl * float(np.min(self.grid.widths / np.maximum(u_cell, 1e-12)))

    def step(self, dt: float) -> None:
        states = self.ops.edge_states(self.cbar, self.config.limiter)
        L = determine_L(self.cbar, self.ops, states, dt=dt)
        rhs = self.cbar + dt * self.ops.advective_rate(states, L)
        c_new = self.ops.diffusion_solve(rhs, dt)
        m = float(c_new.min())
        if m < -1e-12:
            raise RuntimeError(f"negativity {m:.3e} at t = {self.t}; reduce cfl")
        if m < 0:
            self.neg_clips.append(m)
            c_new = np.maximum(c_new, 0.0)
        self.cbar = c_new
        self.L = L
        self.t += dt

    def run(self) -> tuple[TrajectorySeries, LHistory, list[tuple[float, np.ndarray]]]:
        cfg = self.config
        mass0 = self.mass()
        out_times = output_times(cfg.t_end, cfg.output_stride)
        snap_times = sorted(set(float(s) for s in cfg.snapshot_times) | {cfg.t_end})
        rows = [self._row(mass0)]
        knot_t, knot_l = [0.0], [self.L]
        snapshots = []
        next_out = 1
        next_snap = 0
        while self.t < cfg.t_end - 1e-12:
            stops = [cfg.t_end]
            if next_out < len(out_times):
                stops.append(out_times[next_out])
            if next_snap < len(snap_times):
                stops.append(snap_times[next_snap])
            t_stop = min(stops)
            dt = min(self._dt(), t_stop - self.t)
            self.step(dt)
            knot_t.append(self.t)
            knot_l.append(self.L)
            if abs(self.mass() - mass0) > _MASS_TOL:
                raise RuntimeError(f"mass drift {self.mass() - mass0:.3e} at t = {self.t}")
            if next_snap < len(snap_times) and self.t >= snap_times[next_snap] - 1e-10:
                snapshots.append((self.t, self.cbar.copy()))
                next_snap += 1
            if next_out < len(out_times) and self.t >= out_times[next_out] - 1e-10:
                rows.append(self._row(mass0))
                next_out += 1
        series = TrajectorySeries.from_rows(
            rows, f"diffusive:eps={cfg.eps}:conserve:M={cfg.n_cells}:{cfg.tail.label}")
        history = LHistory(times=np.array(knot_t), values=np.array(knot_l))
        return series, history, snapshots

    def _row(self, mass0: float) -> dict:
        number, mass, energy, scale = moments(self.grid.centers, self.cbar * self.grid.widths)
        lam = mass / number if number > 0 else np.nan
        return {"t": self.t, "L": self.L, "Lambda": lam, "E": energy, "M": scale,
                "N": number, "mass_residual": mass - mass0}

    def tail_at(self, cbar: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """int_x^inf c at probe points, by exact integration of cell averages."""
        edges = self.grid.edges
        seg = cbar * self.grid.widths
        tail_edges = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        probes = np.asarray(probes, dtype=float)
        idx = np.clip(np.searchsorted(edges, probes, side="right") - 1, 0,
                      len(seg) - 1)
        remaining = (edges[idx + 1] - probes) * cbar[idx]
        out = tail_edges[idx + 1] + np.maximum(remaining, 0.0)
        return np.where(probes >= edges[-1], 0.0, out)


def run_diffusive(config: DiffusiveRunConfig):
    """Integrate to t_end; returns (series, L history, snapshots, solver)."""
    solver = DiffusiveSolver(config)
    series, history, snapshots = solver.run()
    return series, history, snapshots, solver


def adjoint_solve(
    w_terminal: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    T: float,
    history: LHistory,
    eps: float,
    grid: Grid,
) -> np.ndarray:
    """Backward solve of the adjoint equation; returns w(., 0) on cell centers.

    ``w_terminal`` is the payoff: a callable evaluated at cell centers, or an
    array already on the grid, of shape ``(n_cells,)`` or ``(n_cells, k)``
    for ``k`` payoffs marched together, one solve per step for all columns.
    Indicator-like payoffs should be smoothed over a cell by the caller (see
    ``smoothed_indicator``).
    """
    ops = _Operators(grid, eps)
    if callable(w_terminal):
        w = np.asarray(w_terminal(grid.centers), dtype=float)
    else:
        w = np.asarray(w_terminal, dtype=float).copy()
    if w.ndim not in (1, 2) or w.shape[0] != grid.n_cells:
        raise ValueError(f"terminal payoff of shape {w.shape} does not match the "
                         f"grid's {grid.n_cells} cells")
    n_steps = max(64, 4 * grid.n_cells)
    dt = T / n_steps
    for k in range(n_steps):
        t_new = T - (k + 1) * dt
        L = float(history.value(max(t_new, history.times[0])))
        w = ops.adjoint_solve_step(w, dt, L)
    return w


def smoothed_indicator(grid: Grid, x0: float) -> np.ndarray:
    """Indicator 1_{x > x0} ramped linearly across the cell containing x0."""
    c = grid.centers
    i = int(np.searchsorted(grid.edges, x0, side="right") - 1)
    i = min(max(i, 0), grid.n_cells - 1)
    lo, hi = grid.edges[i], grid.edges[i + 1]
    out = (c > x0).astype(float)
    out[i] = min(max((hi - x0) / (hi - lo), 0.0), 1.0)  # x0 may lie off the grid
    return out

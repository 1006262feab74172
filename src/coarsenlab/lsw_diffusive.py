"""Finite-volume solver for the diffusive coarsening equation.

The equation advanced is

    dc/dt = d^2/dx^2 [ D(x) c ] + d/dx [ (1 - (x/L)^{1/3}) c ],
    D(x) = eps (1 + x/eps)^{1/3},   c(0, t) = 0,

with the transport parameter L chosen each step by a root-find that makes the
fully discrete step conserve the first moment exactly; its bracket starts at
L extrapolated from the last step's dL/dt.

The grid is logarithmically graded, ``x_i = eps (e^{v_i} - 1)`` with uniform
``v``; this resolves the boundary layer of width eps and maps exactly onto
itself under the dilation (eps, x) -> (eps/lam, x/lam), which the covariance
tests rely on.

Advection is explicit upwind with an optional minmod limiter; diffusion is
implicit, one banded solve per step (``banded.solve_banded``).
The diffusion matrix does not depend on L, and the step's mass change is
linear in L^{-1/3} between grid edges.  So a step costs one O(n) pass that
builds prefix sums, an O(log n) evaluation of the mass change per root-find
iteration, and the forward solve; the implicit operator and the transposed
solve that weights the mass change depend only on dt and are redone only when
dt changes, which the CFL step, clipped to the output and snapshot times by
``diagnostics.march``, rarely does.  The adjoint solver uses the
measure-weighted transpose of the linearized forward operator, stepped by
implicit Euler, so the duality pairing is broken only by the time
discretization; it marches several payoffs through one solve per step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .banded import bracket, shifted, solve_banded, weighted_transpose
from .diagnostics import (LHistory, TrajectorySeries, check_window, clip_negatives, march,
                          moments, output_times)
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
        e_in = grid.edges[1:-1]  # the interior edges
        self.gaps = np.diff(x)
        self.to_edge_left = e_in - x[:-1]  # from the center left of each edge
        self.to_edge_right = e_in - x[1:]
        self.cbrt_centers = np.cbrt(x)
        self.inner_edges = e_in.tolist()  # for bisect
        self.defect_rows = np.vstack((np.cbrt(e_in), np.ones_like(e_in)))
        self.inv_w = 1.0 / grid.widths
        self.d_centers = np.asarray(diffusion_coefficient(eps, x))
        # inverse distances between the points where D*c is sampled; the
        # left boundary uses the Dirichlet value (D c)(0) = 0 at x = 0
        beta = np.zeros(n + 1)
        beta[0] = 1.0 / x[0]
        beta[1:n] = 1.0 / self.gaps
        beta[n] = 0.0  # no diffusive flux through the outer edge
        self.beta = beta
        inv_w = self.inv_w
        d = self.d_centers
        self.diff = np.zeros((3, n))  # the diffusion operator, banded
        self.diff[0, 1:] = beta[1:n] * d[1:] * inv_w[:-1]
        self.diff[1] = -(beta[:n] + beta[1:]) * d * inv_w
        self.diff[2, :-1] = beta[1:n] * d[:-1] * inv_w[1:]
        self.diff_adjoint = weighted_transpose(self.diff, grid.widths)
        self._cached_dt = self._cached_L = None  # the keys of ``for_dt`` and ``edge_velocity``

    def moment_l(self, cbar: np.ndarray) -> float:
        """Cube of the 1/3-moment ratio of the cell averages ``cbar``."""
        w = cbar * self.grid.widths
        number = float(w.sum())
        if number <= 0:
            raise ValueError("empty distribution")
        return (float(self.cbrt_centers @ w) / number) ** 3

    # -- advection ----------------------------------------------------------

    def edge_velocity(self, L: float) -> np.ndarray:
        """u = (x/L)^{1/3} - 1 at the cell edges (drift toward 0 below L); read-only,
        kept for the last ``L``, so the CFL step after a step reads the step's."""
        if L != self._cached_L:
            self._cached_L, self._velocity = L, np.cbrt(self.grid.edges / L) - 1.0
        return self._velocity

    def edge_states(self, c: np.ndarray, limiter: bool) -> tuple[np.ndarray, np.ndarray]:
        """States of ``c`` at the interior edges, reconstructed from the left
        and from the right cell: minmod-limited linear, or constant without
        the limiter.  They do not depend on L."""
        if not limiter:
            return c[:-1], c[1:]
        s = np.diff(c) / self.gaps
        lo, hi = s[:-1], s[1:]  # the slopes on each side of a cell
        slope = np.zeros_like(c)  # the end cells see a zero slope outside
        # minmod: the smaller slope where both have one sign, even where lo*hi underflows; else 0
        np.maximum(np.minimum(lo, hi), 0.0, out=slope[1:-1])
        slope[1:-1] += np.minimum(np.maximum(lo, hi), 0.0)
        return (c[:-1] + slope[:-1] * self.to_edge_left,
                c[1:] + slope[1:] * self.to_edge_right)

    def advective_rate(self, states: tuple[np.ndarray, np.ndarray], L: float) -> np.ndarray:
        """-d/dx of the upwind flux u*c from the ``edge_states``; boundary
        fluxes are 0 (Dirichlet/wall)."""
        from_left, from_right = states
        u = self.edge_velocity(L)
        k = bisect_right(self.inner_edges, L)  # u <= 0 on the k edges at or below L
        flux = np.zeros(self.grid.n_cells + 1)
        np.multiply(u[1:k + 1], from_right[:k], out=flux[1:k + 1])
        np.multiply(u[k + 1:-1], from_left[k:], out=flux[k + 1:-1])
        return -np.diff(flux) / self.grid.widths

    def adjoint_bands(self, L: float) -> np.ndarray:
        """W^{-1} (Diff + Adv(L))^T W, banded, with W = diag(cell widths) and
        Adv(L) the first-order (unlimited) upwind operator: the generator of
        the adjoint, so the semi-discrete pairing sum_i w_i c_i dx_i is
        exactly conserved.

        Through an interior edge with velocity ``u``, Adv moves ``u`` times
        the upwind cell's average from cell i to cell i+1, per width of the
        cell it enters or leaves.  Each such entry is written straight into
        its transposed position, on top of ``diff_adjoint``, where the
        widths of W cancel against the ``1 / width`` of the entry.
        """
        u = self.edge_velocity(L)[1:-1]
        k = bisect_right(self.inner_edges, L)  # u <= 0 on the k edges at or below L
        from_right = u[:k] * self.inv_w[1:k + 1]
        from_left = u[k:] * self.inv_w[k:-1]
        ab = self.diff_adjoint.copy()
        ab[0, k + 1:] += from_left
        ab[1, k:-1] -= from_left
        ab[1, 1:k + 1] += from_right
        ab[2, :k] -= from_right
        return ab

    # -- implicit solves ----------------------------------------------------

    def diffusion_solve(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt * Diff) c = rhs."""
        return solve_banded(self.for_dt(dt)[0], rhs)

    def for_dt(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(S, z - x, diff(z))``: ``S = I - dt * Diff``, banded, and the mass weights
        ``z = W^{-1} S^{-T} W x`` (the mass of ``S^{-1} r`` is ``(z * w) . r``).  Kept for
        the last ``dt``: the CFL step repeats, so most steps build and solve nothing here."""
        if dt != self._cached_dt:
            x = self.grid.centers
            z = solve_banded(shifted(dt, self.diff_adjoint), x)
            self._cached_dt, self._for_dt = dt, (shifted(dt, self.diff), z - x, np.diff(z))
        return self._for_dt


def _split_sums(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """``sum(below[..., :k]) + sum(above[..., k:])`` for k = 0..n, along the
    last axis, of length n."""
    out = np.zeros(below.shape[:-1] + (below.shape[-1] + 1,))
    np.cumsum(below, axis=-1, out=out[..., 1:])
    out[..., :-1] += np.cumsum(above[..., ::-1], axis=-1)[..., ::-1]
    return out


def _mass_defect(L: float, base: float, dt: float, edges: list[float],
                 slope: np.ndarray, offset: np.ndarray) -> float:
    """``base + dt * sum_j u_j(L) a_j r_j`` over the interior edges ``e_j``,
    with ``u_j = e_j^{1/3} L^{-1/3} - 1`` and the upwind state ``r_j`` taken
    from the left where ``u_j > 0``, that is where ``e_j > L``.

    The sum is linear in ``L^{-1/3}`` between edges.  With k edges at or
    below L it is ``slope[k] L^{-1/3} - offset[k]``, so one evaluation is a
    bisection and two lookups (see ``determine_L``).  Module-level, so its
    arrays reach ``brentq`` through ``args`` and die with the call.
    """
    k = bisect_right(edges, L)
    return base + dt * (slope[k] * L ** (-1.0 / 3.0) - offset[k])


# The conservative L's bracket starts this far, relative, either side of its
# guess; on diffusive-coarsen the guess misses by 2.3e-9 in the median.
_GUESS_SPREAD = 1e-6


def determine_L(
    c: np.ndarray,
    ops: _Operators,
    states: tuple[np.ndarray, np.ndarray],
    dt: float,
    guess: float,
) -> float:
    """Conservative transport parameter for the cell averages ``c``.

    Root-find so the step of length ``dt`` does not change the mass.
    ``states`` are ``ops.edge_states(c, limiter)``.  The search starts
    ``_GUESS_SPREAD`` either side of ``guess``, which ``DiffusiveSolver``
    extrapolates from the last two values of L, and widens from there.

    The step is ``c_new = S^{-1} (c + dt * advective_rate)`` with
    ``S = I - dt * Diff`` independent of L, so its mass is ``(z * w) . (c +
    dt * advective_rate)`` with ``z`` from ``ops.for_dt(dt)``, which
    makes a transposed solve only when ``dt`` changes.  With ``a = diff(z)``
    the mass change is ``_mass_defect``: one O(n) pass builds its prefix and
    suffix sums, and each evaluation in the root-find is then O(log n).
    """
    _, z_minus_x, a = ops.for_dt(dt)
    base = float(z_minus_x @ (c * ops.grid.widths))
    from_left, from_right = states
    rows = ops.defect_rows  # (e_j^{1/3}, 1) for the slope and the offset
    slope, offset = _split_sums(rows * (a * from_right), rows * (a * from_left))
    args = (base, dt, ops.inner_edges, slope, offset)
    # a larger L drifts more mass toward 0, so the defect decreases in L
    lo, hi = bracket(lambda L: _mass_defect(L, *args), (1.0 - _GUESS_SPREAD) * guess,
                     (1.0 + _GUESS_SPREAD) * guess, origin=0.0, increasing=False)
    return float(brentq(_mass_defect, lo, hi, args=args, xtol=1e-13, rtol=8.9e-16))


@dataclass
class DiffusiveRunConfig:
    """A field with ``json`` metadata is a ``diffusive`` config key: its JSON type and default."""

    tail: InitialTail
    eps: float = field(metadata={"json": float})
    t_end: float = field(default=1.0, metadata={"json": float})
    x_max: float | None = field(default=None, metadata={"json": float})  # None: see grid_x_max
    n_cells: int = field(default=512, metadata={"json": int})
    limiter: bool = field(default=True, metadata={"json": bool})
    cfl: float = field(default=0.5, metadata={"json": float})
    output_stride: float = field(default=0.1, metadata={"json": float})
    snapshot_times: tuple = field(default=(), metadata={"json": list[float]})

    @property
    def grid_x_max(self) -> float:
        """The grid's right end: ``x_max``, by default the initial support plus growth room."""
        if self.x_max is not None:
            return self.x_max
        return self.tail.x_max + 4.0 * (1.0 + self.t_end)

    def validate(self) -> None:
        if self.eps <= 0 or self.eps > 1:
            raise ValueError("eps must lie in (0, 1]")
        check_window(self.t_end, self.output_stride)
        if self.cfl <= 0 or self.cfl > 0.9:
            raise ValueError("cfl must lie in (0, 0.9]")
        if self.n_cells < 16:
            raise ValueError("n_cells too small")
        if self.x_max is not None and self.x_max <= self.eps:
            raise ValueError("x_max must exceed eps")
        if any(not 0 < s <= self.t_end for s in self.snapshot_times):
            raise ValueError("snapshot_times must lie in (0, t_end]")


class DiffusiveSolver:
    """The state is ``cbar`` (cell averages), ``t``, the last ``L`` and its last rate of change."""

    def __init__(self, config: DiffusiveRunConfig):
        config.validate()
        self.config = config
        self.grid = Grid.log_graded(config.eps, config.grid_x_max, config.n_cells)
        self.ops = _Operators(self.grid, config.eps)
        self.cbar = cell_averages(config.tail, self.grid.edges)
        self.t = 0.0
        self.L = self.ops.moment_l(self.cbar)
        self.dL_dt = 0.0  # so the first step's guess is the moment L
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
        L = determine_L(self.cbar, self.ops, states, dt, self.L + self.dL_dt * dt)
        rhs = self.cbar + dt * self.ops.advective_rate(states, L)
        solved = self.ops.diffusion_solve(rhs, dt)
        c_new = clip_negatives(solved, self.neg_clips)
        if c_new is None:
            raise RuntimeError(f"negativity {solved.min():.3e} at t = {self.t}; reduce cfl")
        self.cbar = c_new
        self.L, self.dL_dt = L, (L - self.L) / dt
        self.t += dt

    def run(self) -> tuple[TrajectorySeries, LHistory, list[tuple[float, np.ndarray]]]:
        cfg = self.config
        mass0 = self.mass()
        out_times = set(output_times(cfg.t_end, cfg.output_stride).tolist())
        snap_times = set(map(float, cfg.snapshot_times)) | {cfg.t_end}
        rows, snapshots = [], []
        knot_t, knot_l = [0.0], [self.L]

        def attempt(t: float, dt: float, clipped: bool) -> float:
            self.step(dt)
            knot_t.append(self.t)
            knot_l.append(self.L)
            return dt

        def at_stop(t: float, stop: float) -> None:
            if stop in snap_times:
                snapshots.append((self.t, self.cbar.copy()))
            if stop in out_times:
                rows.append(self._row(mass0))

        march(sorted(out_times | snap_times), self._dt, attempt, at_stop, self.mass)
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
    w_terminal: np.ndarray,
    T: float,
    history: LHistory,
    eps: float,
    grid: Grid,
) -> np.ndarray:
    """Backward solve of the adjoint equation; returns w(., 0) on cell centers.

    ``w_terminal`` is the payoff on the cell centers, of shape ``(n_cells,)``
    or ``(n_cells, k)`` for ``k`` payoffs marched together, one solve per step
    for all columns.
    Indicator-like payoffs should be smoothed over a cell by the caller (see
    ``smoothed_indicator``).
    """
    ops = _Operators(grid, eps)
    w = np.asarray(w_terminal, dtype=float).copy()
    if w.ndim not in (1, 2) or w.shape[0] != grid.n_cells:
        raise ValueError(f"terminal payoff of shape {w.shape} does not match the "
                         f"grid's {grid.n_cells} cells")
    n_steps = max(64, 4 * grid.n_cells)
    dt = T / n_steps
    # the step from t_new + dt back to t_new uses L(t_new)
    t_new = np.maximum(T - np.arange(1, n_steps + 1) * dt, history.times[0])
    L_built = None
    for L in history.value(t_new):
        if L != L_built:  # a constant L builds its operator once
            lhs, L_built = shifted(dt, ops.adjoint_bands(L)), L
        w = solve_banded(lhs, w)
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

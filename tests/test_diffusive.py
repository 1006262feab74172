import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from coarsenlab import initial_data, lsw_diffusive
from coarsenlab.banded import bracket, matvec, weighted_transpose
from coarsenlab.diagnostics import T_SLACK, LHistory, output_times
from coarsenlab.lsw_diffusive import (
    DiffusiveRunConfig,
    DiffusiveSolver,
    Grid,
    _mass_defect,
    _Operators,
    _split_sums,
    adjoint_solve,
    determine_L,
    diffusion_coefficient,
    run_diffusive,
    smoothed_indicator,
)


class TestDiffusionCoefficient:
    def test_boundary_value(self):
        assert diffusion_coefficient(0.25, 0.0) == 0.25

    def test_hand_value(self):
        # D(7 eps) = eps * 8^{1/3} = 2 eps
        assert diffusion_coefficient(0.1, 0.7) == pytest.approx(0.2, rel=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            diffusion_coefficient(0.0, 1.0)
        with pytest.raises(ValueError):
            diffusion_coefficient(0.1, -1.0)


class TestGrid:
    def test_log_graded_endpoints(self):
        g = Grid.log_graded(0.1, 20.0, 64)
        assert g.edges[0] == 0.0
        assert g.edges[-1] == pytest.approx(20.0, rel=1e-12)
        assert g.n_cells == 64

    def test_grading_resolves_boundary_layer(self):
        g = Grid.log_graded(0.05, 20.0, 256)
        assert g.widths[0] < 0.05
        assert np.all(np.diff(g.widths) > 0)

    def test_dilation_maps_grid_onto_itself(self):
        g1 = Grid.log_graded(0.2, 10.0, 32)
        g2 = Grid.log_graded(0.1, 5.0, 32)
        assert np.allclose(2.0 * g2.edges, g1.edges, rtol=1e-14, atol=0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Grid(edges=np.array([0.1, 0.5, 1.0]))


def _exp_data(eps=0.25, n_cells=128):
    """Cell averages of the exponential data and the operators of their grid."""
    tail = initial_data.exponential_moment()
    grid = Grid.log_graded(eps, 45.0, n_cells)
    return initial_data.cell_averages(tail, grid.edges), _Operators(grid, eps)


def _dense_diffusion(grid, eps):
    """d^2/dx^2 (D c) as a dense matrix, built from its edge fluxes.

    The flux through the left edge of cell j is the difference of D c
    between the center of cell j and the previous sample point, over their
    distance; the first sample is the Dirichlet value (D c)(0) = 0 at x = 0,
    and no flux passes the outer wall.
    """
    x = grid.centers
    n = len(x)
    dc = diffusion_coefficient(eps, x)
    gaps = np.diff(np.concatenate(([0.0], x)))
    flux = np.zeros((n + 1, n))
    for j in range(n):
        flux[j, j] = dc[j] / gaps[j]
        if j > 0:
            flux[j, j - 1] = -dc[j - 1] / gaps[j]
    return (flux[1:] - flux[:-1]) / grid.widths[:, None]


class TestDetermineL:
    def test_moment_mode_single_cell_mass(self):
        cbar, ops = _exp_data()
        cbar = np.zeros_like(cbar)
        cbar[50] = 1.0
        # all mass at one center: L is exactly that center's volume
        assert ops.moment_l(cbar) == pytest.approx(
            ops.grid.centers[50], rel=1e-12
        )

    def test_diffusion_bands_match_dense_operator(self):
        _, ops = _exp_data()
        dense = (np.diag(ops.diff[1]) + np.diag(ops.diff[0, 1:], 1)
                 + np.diag(ops.diff[2, :-1], -1))
        assert np.allclose(dense, _dense_diffusion(ops.grid, ops.eps),
                           rtol=1e-13, atol=0.0)

    def test_conserve_fully_discrete_zeroes_step_change(self):
        # against the definition, one diffusion solve per defect evaluation
        c, ops = _exp_data()
        xw = ops.grid.centers * ops.grid.widths
        for limiter in (True, False):
            states = ops.edge_states(c, limiter)
            for dt in (1e-4, 1e-3, 1e-2):
                L = determine_L(c, ops, states, dt, ops.moment_l(c))
                assert L == pytest.approx(_determine_l_by_solves(c, ops, states, dt),
                                          rel=1e-10)
                c_new = ops.diffusion_solve(c + dt * ops.advective_rate(states, L), dt)
                assert abs(float(xw @ c_new) - float(xw @ c)) <= 1e-13


    @pytest.mark.parametrize("limiter", [True, False])
    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    def test_any_guess_finds_the_root(self, limiter, dt):
        # guesses off by more than the spread widen the bracket first
        c, ops = _exp_data()
        states = ops.edge_states(c, limiter)
        root = _determine_l_from_moment(c, ops, states, dt)
        for factor in (0.5, 1.0, 2.0, 10.0):
            assert determine_L(c, ops, states, dt, factor * root) == pytest.approx(
                root, rel=1e-12)


def _determine_l_from_moment(c, ops, states, dt):
    """The conservative L from the prefix-sum defect, bracketed about the
    moment value as [L/2, 2L]."""
    _, z_minus_x, a = ops.for_dt(dt)
    from_left, from_right = states
    rows = ops.defect_rows
    args = (float(z_minus_x @ (c * ops.grid.widths)), dt, ops.inner_edges,
            *_split_sums(rows * (a * from_right), rows * (a * from_left)))
    l_mom = ops.moment_l(c)
    lo, hi = bracket(lambda L: _mass_defect(L, *args), 0.5 * l_mom, 2.0 * l_mom,
                     origin=0.0, increasing=False)
    return brentq(_mass_defect, lo, hi, args=args, xtol=1e-13, rtol=8.9e-16)


def _determine_l_by_solves(c, ops, states, dt):
    """The conservative L by definition: one diffusion solve per evaluation
    of the step's mass change, bracketed from the moment value."""
    xw = ops.grid.centers * ops.grid.widths
    m0 = float(xw @ c)

    def defect(L):
        rhs = c + dt * ops.advective_rate(states, L)
        return float(xw @ ops.diffusion_solve(rhs, dt)) - m0

    l_mom = ops.moment_l(c)
    lo, hi = bracket(defect, 0.5 * l_mom, 2.0 * l_mom, origin=0.0, increasing=False)
    return brentq(defect, lo, hi, xtol=1e-13, rtol=8.9e-16)


def _mass_defect_by_sum(L, base, dt, edges, a_left, a_right):
    """The step's mass change as one O(n) sum over the interior edges: the
    oracle for the prefix-sum ``_mass_defect``."""
    u = np.cbrt(edges / L) - 1.0
    return base + dt * float(u @ np.where(u > 0, a_left, a_right))


@st.composite
def _defect_case(draw):
    """Edges of a graded grid, edge weights, and an L below, between,
    exactly on or above the edges."""
    n = draw(st.integers(2, 40))  # interior edges
    edges = Grid.log_graded(draw(st.floats(0.01, 1.0)), draw(st.floats(2.0, 50.0)),
                            n + 1).edges[1:-1]
    weights = arrays(float, n, elements=st.floats(-10.0, 10.0))
    a_left, a_right = draw(weights), draw(weights)
    j = draw(st.integers(0, n - 2))
    where = draw(st.sampled_from(["below", "between", "on", "above"]))
    if where == "below":
        L = edges[0] * draw(st.floats(1e-3, 0.999))
    elif where == "between":
        L = edges[j] + draw(st.floats(1e-3, 0.999)) * (edges[j + 1] - edges[j])
    elif where == "on":
        L = edges[draw(st.sampled_from([j, j + 1]))]
    else:
        L = edges[-1] * draw(st.floats(1.001, 100.0))
    return float(L), draw(st.floats(-1.0, 1.0)), draw(st.floats(1e-4, 1.0)), \
        edges, a_left, a_right


class TestMassDefect:
    @given(_defect_case())
    def test_prefix_sums_equal_the_direct_sum(self, case):
        L, base, dt, edges, a_left, a_right = case
        cbrt_e = np.cbrt(edges)
        value = _mass_defect(L, base, dt, edges.tolist(),
                             _split_sums(cbrt_e * a_right, cbrt_e * a_left),
                             _split_sums(a_right, a_left))
        # rounding differs: cube roots taken apart, sums in another order
        scale = abs(base) + dt * float((np.cbrt(edges / L) + 1.0)
                                       @ (np.abs(a_left) + np.abs(a_right)))
        expected = _mass_defect_by_sum(L, base, dt, edges, a_left, a_right)
        assert abs(value - expected) <= 1e-14 * scale

    def test_split_sums(self):
        below, above = np.array([1.0, 2.0, 4.0]), np.array([8.0, 16.0, 32.0])
        assert _split_sums(below, above).tolist() == [56.0, 49.0, 35.0, 7.0]
        # row by row
        assert _split_sums(np.vstack((below, above)), np.vstack((above, below))).tolist() == [
            [56.0, 49.0, 35.0, 7.0], [7.0, 14.0, 28.0, 56.0]]


def _upwind_bands(ops, L):
    """The first-order upwind operator Adv(L), banded, built row by row from
    its edge fluxes: the oracle for ``adjoint_bands``."""
    n = ops.grid.n_cells
    u = ops.edge_velocity(L)
    dense = np.zeros((n, n))
    for i in range(n - 1):  # the edge between cells i and i+1
        upwind = i if u[i + 1] > 0 else i + 1
        dense[i, upwind] -= u[i + 1] / ops.grid.widths[i]
        dense[i + 1, upwind] += u[i + 1] / ops.grid.widths[i + 1]
    ab = np.zeros((3, n))
    ab[0, 1:] = np.diag(dense, 1)
    ab[1] = np.diag(dense)
    ab[2, :-1] = np.diag(dense, -1)
    return ab


class TestAdjointBands:
    # below the first interior edge (k = 0), between edges, on the first, a
    # middle and the last interior edge (u = 0 there), above the last (k = n - 1)
    @pytest.mark.parametrize("L", [1e-3, 0.7, 3.0, "edge 1", "edge 64", "edge 127", 1e3])
    def test_equal_the_weighted_transpose(self, L):
        c, ops = _exp_data()
        if isinstance(L, str):
            L = float(ops.grid.edges[int(L.split()[1])])
        upwind = _upwind_bands(ops, L)
        # the oracle is the forward scheme without the limiter
        assert np.allclose(matvec(upwind, c),
                           ops.advective_rate(ops.edge_states(c, False), L),
                           rtol=1e-13, atol=1e-13 * np.abs(c).max())
        expected = weighted_transpose(ops.diff + upwind, ops.grid.widths)
        np.testing.assert_allclose(ops.adjoint_bands(L), expected, rtol=1e-14, atol=0.0)


class TestAdvectiveRate:
    def test_equals_the_selected_upwind_flux(self):
        # the flux by slices split at bisect_right(inner_edges, L), against the
        # per-edge select on the sign of u: random L, every 8th interior edge
        # and one ulp either side of it, limiter on and off
        c, ops = _exp_data(eps=0.1, n_cells=512)
        edges = ops.grid.edges[1:-1:8]
        rng = np.random.default_rng(5)
        Ls = np.concatenate((np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 100)), edges,
                             np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)))
        for limiter in (False, True):
            states = ops.edge_states(c, limiter)
            for L in Ls.tolist():
                u = ops.edge_velocity(L)
                flux = np.zeros(ops.grid.n_cells + 1)
                flux[1:-1] = np.where(u[1:-1] > 0, u[1:-1] * states[0], u[1:-1] * states[1])
                assert np.array_equal(ops.advective_rate(states, L),
                                      -np.diff(flux) / ops.grid.widths)


@pytest.fixture(scope="module")
def reference_run():
    cfg = DiffusiveRunConfig(
        tail=initial_data.exponential_moment(),
        eps=0.25,
        t_end=2.0,
        n_cells=256,
        output_stride=0.1,
        snapshot_times=(1.0,),
    )
    return run_diffusive(cfg)


class TestRun:
    def test_mass_conserved(self, reference_run):
        series, _, _, _ = reference_run
        assert np.max(np.abs(series.column("mass_residual"))) <= 1e-8

    def test_monotone_functionals(self, reference_run):
        series, _, _, _ = reference_run
        lam = series.column("Lambda")
        assert np.all(np.diff(lam) >= -1e-10)
        assert np.all(series.column("L") <= lam + 1e-9)
        assert np.all(np.diff(series.column("E")) < 0)
        assert np.all(np.diff(series.column("N")) < 0)

    def test_nonnegative(self, reference_run):
        _, _, snapshots, solver = reference_run
        assert float(solver.cbar.min()) >= 0.0
        assert all(float(c.min()) >= 0.0 for _, c in snapshots)

    def test_history_covers_run(self, reference_run):
        _, history, _, _ = reference_run
        assert history.times[0] == 0.0
        assert history.t_end == pytest.approx(2.0)
        assert np.all(history.values > 0)

    def test_one_transposed_solve_per_dt_change(self, monkeypatch):
        cfg = DiffusiveRunConfig(tail=initial_data.exponential_moment(), eps=0.25,
                                 t_end=0.2, n_cells=64, output_stride=0.05)
        solves, dts = [], []
        solve, step = lsw_diffusive.solve_banded, DiffusiveSolver.step

        def counted_solve(ab, b):
            solves.append(b)
            return solve(ab, b)

        def recorded_step(self, dt):
            dts.append(dt)
            step(self, dt)

        monkeypatch.setattr(lsw_diffusive, "solve_banded", counted_solve)
        monkeypatch.setattr(DiffusiveSolver, "step", recorded_step)
        _, _, _, solver = run_diffusive(cfg)
        changes = 1 + sum(a != b for a, b in zip(dts, dts[1:]))
        assert 1 < changes < len(dts)  # the output stops clip a few steps
        transposed = sum(b is solver.grid.centers for b in solves)  # the mass weights
        assert transposed == changes
        assert len(solves) == len(dts) + changes  # and one forward solve a step

    def test_stops_at_output_and_snapshot_times(self):
        # 0.3 is a snapshot, and 0.30000000000000004 an output time, reached together
        cfg = DiffusiveRunConfig(tail=initial_data.exponential_moment(), eps=0.2, t_end=0.5,
                                 n_cells=64, output_stride=0.1, snapshot_times=(0.15, 0.3))
        series, history, snapshots, _ = run_diffusive(cfg)
        np.testing.assert_allclose(series.times, output_times(0.5, 0.1), rtol=0.0, atol=T_SLACK)
        np.testing.assert_allclose([t for t, _ in snapshots], [0.15, 0.3, 0.5],
                                   rtol=0.0, atol=T_SLACK)
        assert set(series.times) | {t for t, _ in snapshots} <= set(history.times)

    def test_zero_data_stays_zero_operators(self):
        grid = Grid.log_graded(0.25, 10.0, 64)
        ops = _Operators(grid, 0.25)
        zero = np.zeros(64)
        assert np.all(ops.advective_rate(ops.edge_states(zero, True), 1.0) == 0.0)
        assert np.all(ops.diffusion_solve(zero, 0.01) == 0.0)

    def test_tail_at_consistency(self, reference_run):
        _, _, _, solver = reference_run
        cbar = solver.cbar
        tail0 = solver.tail_at(cbar, np.array([0.0]))[0]
        assert tail0 == pytest.approx(cbar @ solver.grid.widths, rel=1e-12)
        probes = np.array([0.5, 1.0, 3.0])
        vals = solver.tail_at(cbar, probes)
        assert np.all(np.diff(vals) < 0)
        assert solver.tail_at(cbar, np.array([1e9]))[0] == 0.0

    def test_dilation_pairing(self):
        # (eps, c0) on [0, 1] against (eps/2, dilated c0) on [0, 1/2]
        lam = 2.0
        base_cfg = DiffusiveRunConfig(
            tail=initial_data.exponential_moment(), eps=0.2, t_end=1.0,
            n_cells=256, x_max=20.0,
        )
        base, _, _, _ = run_diffusive(base_cfg)
        scaled_cfg = DiffusiveRunConfig(
            tail=initial_data.dilated(base_cfg.tail, lam),
            eps=base_cfg.eps / lam, t_end=base_cfg.t_end / lam,
            n_cells=256, x_max=20.0 / lam, output_stride=0.1 / lam,
        )
        scaled, _, _, _ = run_diffusive(scaled_cfg)
        assert lam * scaled.column("L")[-1] == pytest.approx(
            float(base.column("L")[-1]), abs=1e-3
        )
        assert lam * scaled.column("Lambda")[-1] == pytest.approx(
            float(base.column("Lambda")[-1]), abs=1e-3
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiffusiveRunConfig(
                tail=initial_data.exponential_moment(), eps=1.5, t_end=1.0
            ).validate()


class TestAdjoint:
    def test_constant_payoff_no_transport_no_absorption(self):
        # with the boundary term switched off the operators conserve number;
        # here we just check the solve is stable and stays within [0, 1]
        grid = Grid.log_graded(0.25, 20.0, 128)
        hist = LHistory.constant(1.0, 0.25)
        w = adjoint_solve(np.ones(grid.n_cells), 0.25, hist, 0.25, grid)
        assert np.all(w >= -1e-12)
        assert np.all(w <= 1.0 + 1e-12)

    def test_survival_increases_with_start(self):
        grid = Grid.log_graded(0.25, 20.0, 256)
        hist = LHistory.constant(1.0, 0.25)
        w = adjoint_solve(np.ones(grid.n_cells), 0.25, hist, 0.25, grid)
        inner = grid.centers < 10.0
        assert np.all(np.diff(w[inner]) > -1e-10)

    def test_vanishes_at_boundary(self):
        grid = Grid.log_graded(0.25, 20.0, 256)
        hist = LHistory.constant(1.0, 0.25)
        w = adjoint_solve(np.ones(grid.n_cells), 0.25, hist, 0.25, grid)
        # absorption at 0 drives the solution down in the boundary layer
        assert w[0] < 0.5 * w[128]

    def test_monotone_comparison_in_l(self):
        # a larger transport parameter strengthens the inward drift and can
        # only reduce survival
        grid = Grid.log_graded(0.25, 20.0, 256)
        w_small = adjoint_solve(
            np.ones(grid.n_cells), 0.25, LHistory.constant(1.0, 0.25),
            0.25, grid,
        )
        w_big = adjoint_solve(
            np.ones(grid.n_cells), 0.25, LHistory.constant(2.0, 0.25),
            0.25, grid,
        )
        assert np.all(w_big <= w_small + 1e-10)

    def test_duality_pairing(self):
        # <w(0), c(0)> == <w(T), c(T)> up to time-discretization error
        eps, T = 0.25, 0.5
        cfg = DiffusiveRunConfig(
            tail=initial_data.exponential_moment(), eps=eps, t_end=T,
            n_cells=512, limiter=False, snapshot_times=(T,),
        )
        series, history, snapshots, solver = run_diffusive(cfg)
        grid = solver.grid
        payoff = np.ones(grid.n_cells)
        w0 = adjoint_solve(payoff, T, history, eps, grid)
        c0 = initial_data.cell_averages(cfg.tail, grid.edges)
        lhs = float((w0 * c0) @ grid.widths)
        rhs = float((payoff * snapshots[-1][1]) @ grid.widths)
        assert abs(lhs - rhs) <= 1e-4

    def test_payoff_shape_checked(self):
        grid = Grid.log_graded(0.25, 20.0, 64)
        hist = LHistory.constant(1.0, 0.1)
        for shape in ((10,), (10, 3), (64, 2, 1)):
            with pytest.raises(ValueError):
                adjoint_solve(np.ones(shape), 0.1, hist, 0.25, grid)

    def test_batched_payoffs_equal_the_single_solves(self):
        grid = Grid.log_graded(0.25, 20.0, 128)
        hist = LHistory(times=np.linspace(0.0, 0.25, 6), values=np.linspace(1.0, 1.3, 6))
        payoffs = [np.ones(128), np.cbrt(grid.centers), smoothed_indicator(grid, 1.0)]
        batched = adjoint_solve(np.column_stack(payoffs), 0.25, hist, 0.25, grid)
        assert batched.shape == (128, 3)
        for j, payoff in enumerate(payoffs):
            assert np.array_equal(batched[:, j], adjoint_solve(payoff, 0.25, hist, 0.25, grid))


class TestSmoothedIndicator:
    def test_ramp(self):
        grid = Grid.log_graded(0.25, 20.0, 64)
        x0 = 1.3
        w = smoothed_indicator(grid, x0)
        i = int(np.searchsorted(grid.edges, x0, side="right") - 1)
        assert np.all(w[:i] == 0.0)
        assert np.all(w[i + 1 :] == 1.0)
        assert 0.0 < w[i] < 1.0

    def test_beyond_the_grid_is_all_zeros(self):
        grid = Grid.log_graded(0.25, 20.0, 16)
        assert np.all(smoothed_indicator(grid, 100.0) == 0.0)

    def test_below_zero_is_all_ones(self):
        grid = Grid.log_graded(0.25, 20.0, 16)
        assert np.all(smoothed_indicator(grid, -1.0) == 1.0)

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from coarsenlab import initial_data, lsw_classical
from coarsenlab.diagnostics import LHistory
from coarsenlab.lsw_classical import (
    ClassicalRunConfig,
    ClassicalSolver,
    _backward_feet,
    _fixed_point_start,
    _foot_and_jacobian,
    _interp_reader,
    characteristic_backward,
    rate_semi_analytic,
    run_classical,
)


def characteristic_jacobian(x, t, history):
    """dF/dx along the backward characteristic ending at x at time t."""
    return _foot_and_jacobian(x, t, history)[1]


# Initial transport parameter for c0 = x e^{-x}/2:
# L0^{1/3} = (Gamma(1/3) + Gamma(4/3)) / 3, evaluated with mpmath (50 digits).
L0_EXPONENTIAL = 1.6878766048919847

# Foot of the boundary characteristic under L == 1 at t = 0.5, i.e. the root
# of the separable quadrature T(x) = 0.5 (see deterministic_exit_time below);
# computed with mpmath findroot at 50 digits.
FOOT_HALF = 0.251005433430258428


def deterministic_exit_time(x: float) -> float:
    """Closed-form travel time to 0 under dx/dt = -(1 - x^{1/3}), L == 1."""
    u = x ** (1.0 / 3.0)
    return 3.0 * (-u * u / 2.0 - u - math.log1p(-u))


# A history with a kink in L at every knot.
KINKED = LHistory(times=np.array([0.0, 0.1, 0.2, 0.3]),
                  values=np.array([1.0, 1.6, 1.1, 1.4]))


def kinked_oracle(x: float, t: float) -> tuple[float, float]:
    """(F(x,t), dF/dx) under KINKED for x > 0, by tight solves stopped at every knot."""

    def rhs(s, y):
        big_l = np.interp(s, KINKED.times, KINKED.values)
        return [-(1.0 - np.cbrt(max(y[0], 0.0) / big_l)),
                1.0 / np.cbrt(y[0] * y[0] * big_l)]

    stops = [t, *(k for k in KINKED.times[::-1] if 0.0 < k < t), 0.0]
    y = [x, 0.0]
    for hi, lo in zip(stops[:-1], stops[1:]):
        y = solve_ivp(rhs, (hi, lo), y, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
    return float(y[0]), math.exp(y[1] / 3.0)


class TestBackwardCharacteristics:
    def test_identity_at_t0(self):
        hist = LHistory.constant(1.0, 1.0)
        for x in (0.0, 0.4, 2.7):
            assert characteristic_backward(x, 0.0, hist) == x

    def test_boundary_foot_oracle(self):
        hist = LHistory.constant(1.0, 1.0)
        foot = characteristic_backward(0.0, 0.5, hist)
        assert foot == pytest.approx(FOOT_HALF, abs=1e-8)
        # the foot's travel time back to zero is exactly the elapsed time
        assert deterministic_exit_time(foot) == pytest.approx(0.5, abs=1e-10)

    def test_exit_time_consistency(self):
        # starting from x the characteristic reaches 0 after T(x): the foot
        # at time T(x) of the terminal point 0 must be x itself
        hist = LHistory.constant(1.0, 2.0)
        for x in (0.1, 0.3, 0.6):
            t_exit = deterministic_exit_time(x)
            assert characteristic_backward(0.0, t_exit, hist) == pytest.approx(
                x, abs=1e-9
            )

    def test_feet_increase_with_terminal_position(self):
        hist = LHistory.constant(1.5, 1.0)
        xs = np.linspace(0.0, 4.0, 40)
        feet = np.array([characteristic_backward(x, 0.8, hist) for x in xs])
        assert np.all(np.diff(feet) > 0)

    def test_foot_below_x_plus_t(self):
        hist = LHistory.constant(0.7, 1.0)
        for x in (0.0, 0.5, 2.0):
            for t in (0.25, 1.0):
                assert characteristic_backward(x, t, hist) < x + t

    def test_rejects_negative_terminal(self):
        hist = LHistory.constant(1.0, 1.0)
        with pytest.raises(ValueError):
            characteristic_backward(-0.1, 0.5, hist)

    def test_kinked_history_matches_oracle(self):
        xs = np.array([0.05, 0.4, 1.5, 4.0])
        for t in (0.1, 0.25, 0.3):
            feet = _backward_feet(xs, t, KINKED)
            expected = [kinked_oracle(x, t)[0] for x in xs]
            np.testing.assert_allclose(feet, expected, rtol=1e-11, atol=0.0)

    def test_rejects_time_beyond_history(self):
        with pytest.raises(ValueError, match="outside the recorded history"):
            _backward_feet(np.array([0.0, 0.5]), 0.31, KINKED)
        with pytest.raises(ValueError, match="outside the recorded history"):
            characteristic_backward(0.5, 0.31, KINKED)


class TestJacobian:
    def test_identity_at_t0(self):
        hist = LHistory.constant(1.0, 1.0)
        assert characteristic_jacobian(0.5, 0.0, hist) == 1.0

    def test_matches_finite_difference(self):
        hist = LHistory(
            times=np.array([0.0, 0.5, 1.0]),
            values=np.array([1.0, 1.3, 1.7]),
        )
        # the FD is limited by the ~1e-11 accuracy of the feet themselves
        h = 1e-5
        for x, t in ((0.4, 0.8), (1.5, 1.0), (0.05, 0.3)):
            fd = (
                characteristic_backward(x + h, t, hist)
                - characteristic_backward(x - h, t, hist)
            ) / (2 * h)
            assert characteristic_jacobian(x, t, hist) == pytest.approx(fd, rel=1e-4)

    def test_boundary_limit_matches_one_sided_difference(self):
        # dF/dx has an O(x^{1/3}) correction near the boundary, so a plain
        # one-sided difference converges slowly; extrapolate it away with two
        # step sizes in ratio 8 (ratio 2 in h^{1/3})
        hist = LHistory.constant(1.0, 1.0)
        f0 = characteristic_backward(0.0, 0.5, hist)

        def fd(h):
            return (characteristic_backward(h, 0.5, hist) - f0) / h

        extrapolated = 2.0 * fd(1e-6) - fd(8e-6)
        assert characteristic_jacobian(0.0, 0.5, hist) == pytest.approx(
            extrapolated, rel=2e-3
        )

    def test_kinked_history_matches_oracle(self):
        for x in (0.05, 0.4, 1.5):
            for t in (0.1, 0.25, 0.3):
                assert characteristic_jacobian(x, t, KINKED) == pytest.approx(
                    kinked_oracle(x, t)[1], rel=1e-11, abs=0.0)

    def test_rejects_negative_terminal(self):
        # checked before the t = 0 shortcut, as for the feet
        hist = LHistory.constant(1.0, 1.0)
        for t in (0.0, 0.5):
            with pytest.raises(ValueError):
                characteristic_jacobian(-0.5, t, hist)

    def test_within_unit_interval(self):
        hist = LHistory.constant(0.9, 2.0)
        for x in (0.0, 0.3, 1.2, 5.0):
            j = characteristic_jacobian(x, 1.5, hist)
            assert 0.0 < j <= 1.0 + 1e-12


class TestSemiAnalyticRate:
    @staticmethod
    def kinked_solver():
        solver = ClassicalSolver(ClassicalRunConfig(
            tail=initial_data.exponential_moment(), t_end=0.3))
        solver.history = KINKED
        return solver

    def test_kinked_history_matches_two_solve_formula(self):
        # the rate's one solve starts eta = 1e-9 off the boundary, so its foot
        # differs from characteristic_backward's by O(eta^{4/3})
        solver = self.kinked_solver()
        tail = solver.tail
        for t in (0.1, 0.25, 0.3):
            foot = characteristic_backward(0.0, t, KINKED)
            jac = characteristic_jacobian(0.0, t, KINKED)
            expected = float(tail.c0(foot)) * jac / float(tail.w0(foot)) ** 2
            assert rate_semi_analytic(solver, t) == pytest.approx(expected, rel=1e-10)

    def test_one_backward_solve(self, monkeypatch):
        calls = []
        solve_back = lsw_classical._solve_back

        def counted(*args):
            calls.append(args)
            return solve_back(*args)

        monkeypatch.setattr(lsw_classical, "_solve_back", counted)
        rate_semi_analytic(self.kinked_solver(), 0.25)
        assert len(calls) == 1


class TestLHistory:
    def test_interpolation_and_bounds(self):
        hist = LHistory(times=np.array([0.0, 1.0]), values=np.array([1.0, 3.0]))
        assert hist.value(0.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            hist.value(1.5)

    def test_extension_must_advance(self):
        hist = LHistory.constant(1.0, 1.0)
        with pytest.raises(ValueError):
            hist.extended(0.5, 2.0)

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            LHistory(times=np.array([0.0, 1.0]), values=np.array([1.0, 1e-12]))


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def knots_and_points(draw):
    """Increasing knot times, values of either sign, and points to read at."""
    times = sorted(draw(st.lists(_FINITE, min_size=1, max_size=12, unique=True)))
    values = draw(st.lists(_FINITE, min_size=len(times), max_size=len(times)))
    mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
    ends = [times[0] - 1.0, times[-1] + 1.0, np.nextafter(times[0], -np.inf),
            np.nextafter(times[-1], np.inf)]
    inside = draw(st.lists(st.floats(times[0] - 1.0, times[-1] + 1.0), max_size=20))
    return np.array(times), np.array(values), [*times, *mids, *ends, *inside]


class TestInterpReader:
    @given(knots_and_points())
    def test_equals_np_interp_bit_for_bit(self, case):
        times, values, points = case
        value_at = _interp_reader(times, values)
        for s in points:
            got, want = value_at(s), np.interp(s, times, values)
            assert got == want and np.signbit(got) == np.signbit(want), (s, got, want)

    def test_signed_zero_knot_values(self):
        # at a knot the knot's own value, not slope*0 + v, which is +0 for v = -0
        value_at = _interp_reader(np.array([0.0, 1.0]), np.array([-0.0, 1.0]))
        assert value_at(0.0) == 0.0 and np.signbit(value_at(0.0))
        value_at = _interp_reader(np.array([0.5]), np.array([-0.0]))  # a single knot
        for s in (-1.0, 0.5, 2.0):
            assert value_at(s) == 0.0 and np.signbit(value_at(s))


class TestFixedPointStart:
    def test_exact_for_a_cubic_on_varying_steps(self):
        times = np.array([0.0, 0.1, 0.15, 0.3, 0.35])
        cubic = np.polynomial.Polynomial([1.0, 0.5, -0.3, 0.2])
        hist = LHistory(times=times, values=cubic(times))
        assert _fixed_point_start(hist, 0.4) == pytest.approx(cubic(0.4), rel=1e-13)

    def test_first_step_starts_from_the_current_value(self):
        assert _fixed_point_start(LHistory.constant(1.3, 0.1), 0.2) == 1.3
        hist = LHistory(times=np.array([0.0]), values=np.array([1.7]))
        assert _fixed_point_start(hist, 0.1) == 1.7

    def test_steeply_falling_history_is_clamped_positive(self):
        # the cubic through these knots is -0.6 at t = 0.4
        hist = LHistory(times=np.array([0.0, 0.1, 0.2, 0.3]),
                        values=np.array([1.0, 0.9, 0.6, 0.1]))
        assert _fixed_point_start(hist, 0.4) == 0.5 * 0.1
        # and the cubic through these is 5 at t = 0.4
        rising = LHistory(times=hist.times, values=np.array([1.0, 1.0, 1.0, 2.0]))
        assert _fixed_point_start(rising, 0.4) == 2.0 * 2.0

    def test_reference_run_takes_two_iterations_after_the_fifth_step(
            self, classical_exponential_run):
        iterations = classical_exponential_run[2].fp_iterations
        assert len(iterations) == 40
        assert max(iterations[5:]) <= 2
        assert sum(iterations) <= 90


class TestSolver:
    def test_initial_transport_parameter(self):
        cfg = ClassicalRunConfig(tail=initial_data.exponential_moment(), t_end=1.0)
        solver = ClassicalSolver(cfg)
        assert solver.current_l == pytest.approx(L0_EXPONENTIAL, rel=1e-10)

    def test_mass_conserved(self, classical_exponential_run):
        series, _, _ = classical_exponential_run
        assert np.max(np.abs(series.column("mass_residual"))) <= 1e-6

    def test_monotone_functionals(self, classical_exponential_run):
        series, _, _ = classical_exponential_run
        lam = series.column("Lambda")
        assert np.all(np.diff(lam) >= -1e-12)
        assert np.all(series.column("L") <= lam + 1e-9)
        assert np.all(np.diff(series.column("N")) < 0)

    def test_energy_decreasing(self, classical_exponential_run):
        series, _, _ = classical_exponential_run
        assert np.all(np.diff(series.column("E")) < 0)

    def test_tail_value_matches_series_number(self, classical_exponential_run):
        series, _, solver = classical_exponential_run
        n_end = float(series.column("N")[-1])
        assert solver.tail_value(0.0) == pytest.approx(n_end, rel=1e-8)

    def test_semi_analytic_rate_matches_finite_difference(
            self, classical_exponential_run):
        series, _, solver = classical_exponential_run
        t = 0.25
        lam = series.column("Lambda")
        i = int(np.argmin(np.abs(series.times - t)))
        fd = (lam[i + 1] - lam[i - 1]) / (series.times[i + 1] - series.times[i - 1])
        assert rate_semi_analytic(solver, t) == pytest.approx(fd, rel=1e-3)

    def test_step_size_self_consistency(self):
        # halving dt moves L(t_end) by far less than the acceptance tolerances
        vals = []
        for dt in (0.025, 0.0125):
            cfg = ClassicalRunConfig(
                tail=initial_data.exponential_moment(), t_end=0.25, dt=dt
            )
            series, _, _ = run_classical(cfg)
            vals.append(float(series.column("L")[-1]))
        assert vals[0] == pytest.approx(vals[1], abs=1e-5)

    def test_dilation_covariance(self, classical_exponential_run,
                                 classical_dilated_run):
        lam = 2.0  # the dilation of classical_dilated_run
        base = classical_exponential_run[0]
        scaled = classical_dilated_run[0]
        assert lam * scaled.column("L")[-1] == pytest.approx(
            float(base.column("L")[-1]), abs=1e-4
        )
        assert lam * scaled.column("Lambda")[-1] == pytest.approx(
            float(base.column("Lambda")[-1]), abs=1e-4
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClassicalRunConfig(
                tail=initial_data.exponential_moment(), t_end=-1.0
            ).validate()

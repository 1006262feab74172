import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coarsenlab import initial_data
from coarsenlab.diagnostics import (
    MASS_TOL,
    T_SLACK,
    TrajectorySeries,
    above,
    bounded,
    clip_negatives,
    coarsening_rate,
    kohn_otto_report,
    march,
    max_drift,
    moments,
    nondecreasing,
    nonincreasing,
    output_times,
    run_checks,
    strictly_decreasing,
)

# Moments of c0 = x e^{-x}/2: the 2/3-moment is Gamma(8/3)/2 and the
# 4/3-moment is Gamma(10/3)/2 (mpmath, 50 digits).
E_EXPONENTIAL = 0.7522877441257714
M_EXPONENTIAL = 1.3890792402188857


def _exp_grid_weights(n_cells=3000, x_max=60.0):
    """(cell centers, number per cell) for the exponential-moment profile."""
    edges = np.linspace(0.0, x_max, n_cells + 1)
    w = initial_data.exponential_moment().w0(edges)
    return 0.5 * (edges[:-1] + edges[1:]), w[:-1] - w[1:]


def _sizes(n):
    return np.arange(1, n + 1, dtype=float)


class TestTrajectorySeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectorySeries(times=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            TrajectorySeries(
                times=np.array([0.0, 1.0]), columns={"x": np.array([1.0])}
            )

    def test_write_csv_format(self, tmp_path):
        series = TrajectorySeries(
            times=np.array([0.0, 0.5]),
            columns={"a": np.array([1.0, 0.1]), "b": np.array([2.0, 3.0])},
        )
        path = tmp_path / "out.csv"
        series.write_csv(path, ["b", "a"])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,b,a"
        assert lines[1] == "0.0,2.0,1.0"
        assert lines[2] == "0.5,3.0,0.1"

    def test_from_rows(self):
        rows = [{"t": 0.0, "b": 2.0, "a": 1.0},
                {"t": 0.5, "b": np.nan, "a": 0.1}]
        series = TrajectorySeries.from_rows(rows, "rows")
        assert list(series.columns) == ["b", "a"]
        assert np.array_equal(series.times, [0.0, 0.5])
        assert np.array_equal(series.column("a"), [1.0, 0.1])
        assert np.array_equal(series.column("b"), [2.0, np.nan], equal_nan=True)
        assert series.provenance == "rows"


class TestMeanVolume:
    """Mean volume = mass / N from :func:`moments`."""

    def test_discrete_hand_value(self):
        # one cluster species of size 2: mean volume is 2
        number, mass, _, _ = moments(_sizes(2), np.array([0.0, 0.5]))
        assert mass / number == pytest.approx(2.0)

    def test_discrete_mixture(self):
        # sizes 1 and 3, equal numbers
        number, mass, _, _ = moments(_sizes(3), np.array([1.0, 0.0, 1.0]))
        assert mass / number == pytest.approx(2.0)

    def test_grid_state(self):
        number, mass, _, _ = moments(*_exp_grid_weights())
        assert mass / number == pytest.approx(2.0, rel=1e-4)

    def test_empty_distribution(self):
        # every moment of an empty distribution is 0; callers report the
        # mean volume of such a state as NaN rather than divide
        assert moments(_sizes(5), np.zeros(5)) == (0.0, 0.0, 0.0, 0.0)


class TestEnergyAndScale:
    """E (2/3-moment) and M (4/3-moment) from :func:`moments`."""

    def test_exponential_oracles(self):
        _, _, e, m = moments(*_exp_grid_weights())
        assert e == pytest.approx(E_EXPONENTIAL, rel=2e-4)
        assert m == pytest.approx(M_EXPONENTIAL, rel=2e-4)

    def test_discrete_hand_value(self):
        c = np.zeros(12)
        c[7] = 0.125  # size 8
        _, _, e, m = moments(_sizes(12), c)
        assert e == pytest.approx(0.125 * 4.0)
        assert m == pytest.approx(0.125 * 16.0)


def _power_law_series(t_end=50.0, n=400, e0=1.2, m0=1.0):
    """Synthetic run following the self-similar coarsening laws."""
    t = np.linspace(0.0, t_end, n)
    lam = 2.0 * (1.0 + t)
    return TrajectorySeries(
        times=t,
        columns={
            "Lambda": lam,
            "E": e0 * (1.0 + t) ** (-1.0 / 3.0),
            "M": m0 * (1.0 + t) ** (1.0 / 3.0),
        },
        provenance="synthetic",
    )


class TestKohnOttoReport:
    def test_self_similar_series_passes(self):
        report = kohn_otto_report(_power_law_series())
        assert report["E_nonincreasing"]
        assert report["EM_at_least_one"]
        assert report["EM_min"] == pytest.approx(1.2, rel=1e-12)
        assert report["rate_ratio_bounded"]
        assert report["R_bounded"]
        assert len(report["R_ladder"]) == 8

    def test_growing_energy_flagged(self):
        series = _power_law_series()
        series.columns["E"] = series.columns["E"][::-1].copy()
        report = kohn_otto_report(series)
        assert not report["E_nonincreasing"]

    def test_schwarz_violation_flagged(self):
        report = kohn_otto_report(_power_law_series(e0=0.5))
        assert not report["EM_at_least_one"]

    def test_doubling_time(self):
        # Lambda = 2(1+t) doubles at t = 1
        report = kohn_otto_report(_power_law_series())
        assert report["T_doubling"] == pytest.approx(1.0, abs=0.2)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            kohn_otto_report(_power_law_series(n=5))


_VALUES = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12).map(np.array)
_SLACKS = st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 0.5])


class TestInvariants:
    # each invariant against the inline expression a check used before it
    @given(_VALUES, _SLACKS)
    def test_monotone_rules(self, x, slack):
        assert nondecreasing("a", x, atol=slack)["passed"] == bool(np.all(np.diff(x) >= -slack))
        assert nondecreasing("a", x, rtol=slack)["passed"] == bool(
            np.all(np.diff(x) >= -slack * np.abs(x[:-1])))
        assert nonincreasing("a", x, slack, "E")["passed"] == bool(np.all(np.diff(x) <= slack))
        assert strictly_decreasing("a", x)["passed"] == all(a > b for a, b in zip(x, x[1:]))

    @given(_VALUES, _SLACKS, st.floats(-1e3, 1e3))
    def test_bound_rules(self, x, slack, ref):
        bound = x[::-1]
        assert bounded("a", x, bound, rtol=slack)["passed"] == bool(
            np.all(x <= bound * (1 + slack)))
        assert bounded("a", x, lo=-slack)["passed"] == (float(np.min(x)) >= -slack)
        assert bounded("a", x, lo=slack, hi=ref)["passed"] == all(slack <= v <= ref for v in x)
        assert above("a", x, ref, "c1")["passed"] == bool(np.all(x > ref))
        drift = float(np.max(np.abs(x - ref)))
        assert max_drift("a", x, ref, tol=slack) == {
            "name": "a", "passed": drift <= slack * max(ref, 1.0), "max_drift": drift}
        resid = float(np.max(np.abs(x)))
        assert max_drift("a", x, tol=slack) == {
            "name": "a", "passed": resid <= slack, "max_residual": resid}

    def test_slack_boundaries(self):
        # a step down by exactly the slack passes, one rounding step more fails
        assert nondecreasing("a", np.array([1.0, 0.75]), atol=0.25)["passed"]
        assert not nondecreasing("a", np.array([1.0, np.nextafter(0.75, 0.0)]), atol=0.25)["passed"]
        # the relative slack scales with the value the step leaves
        assert nondecreasing("a", np.array([4.0, 2.0]), rtol=0.5)["passed"]
        assert not nondecreasing("a", np.array([2.0, 0.9]), rtol=0.5)["passed"]
        assert nonincreasing("a", np.array([1.0, 1.5]), 0.5, "E")["passed"]
        assert not strictly_decreasing("a", np.array([2.0, 1.0, 1.0]))["passed"]
        assert bounded("a", np.array([1.5]), np.array([1.0]), rtol=0.5)["passed"]
        assert not bounded("a", np.array([1.5]), np.array([1.0]), rtol=0.25)["passed"]
        assert not above("a", np.array([2.0, 1.0]), 1.0, "c1")["passed"]
        # the drift tolerance is relative to max(ref, 1): absolute below 1
        assert max_drift("a", np.array([4.0, 4.0 + 2e-8]), 4.0, tol=1e-8)["passed"]
        assert not max_drift("a", np.array([0.5, 0.5 + 2e-8]), 0.5, tol=1e-8)["passed"]

    def test_nan_fails(self):
        x = np.array([1.0, np.nan, 0.5])
        assert not nondecreasing("a", x)["passed"]
        assert not nonincreasing("a", x, 1.0, "E")["passed"]
        assert not strictly_decreasing("a", x)["passed"]
        assert not bounded("a", x, hi=2.0)["passed"]
        assert not above("a", x, 0.0, "c1")["passed"]
        assert not max_drift("a", x, tol=1.0)["passed"]

    def test_reported_values(self):
        x = np.array([3.0, 2.0, 1.0])
        assert nonincreasing("E_nonincreasing", x, 0.0, "E") == {
            "name": "E_nonincreasing", "passed": True, "E_first": 3.0, "E_last": 1.0}
        assert strictly_decreasing("g_strictly_decreasing", x, "g") == {
            "name": "g_strictly_decreasing", "passed": True, "g_first": 3.0, "g_last": 1.0}
        assert strictly_decreasing("gaps", [3.0, 2.0]) == {
            "name": "gaps", "passed": True, "values": [3.0, 2.0]}
        assert above("c1_above", x, 0.0, "c1") == {"name": "c1_above", "passed": True,
                                                    "min_c1": 1.0}
        assert bounded("r", 0.5, hi=1.0, residual=0.5) == {"name": "r", "passed": True,
                                                           "residual": 0.5}
        assert nondecreasing("Lambda", x[::-1]) == {"name": "Lambda", "passed": True}

    def test_run_checks_applies_each_row_in_order(self):
        data = {"L": np.array([1.0, 2.0]), "Lambda": np.array([1.5, 2.0]), "ref": 2.0}
        rows = [("below", bounded, ("L", "Lambda"), {"rtol": 0.0}),
                ("rising", nondecreasing, ("L",), {}),
                ("drift", max_drift, ("L", "ref"), {"tol": 0.25})]
        assert run_checks(rows, data) == [
            {"name": "below", "passed": True},
            {"name": "rising", "passed": True},
            {"name": "drift", "passed": False, "max_drift": 1.0}]

    def test_report_e_rule_is_the_invariant(self):
        # kohn_otto_report's slack on E is relative to max(1, max |E|)
        series = _power_law_series()
        e = series.columns["E"] = 100.0 * series.columns["E"]
        e[5] = e[4] + 0.5e-10  # a rise under 1e-12 * max|E| = 1.2e-10
        assert kohn_otto_report(series)["E_nonincreasing"]
        e[5] = e[4] + 2e-10
        assert not kohn_otto_report(series)["E_nonincreasing"]


class TestCoarseningRate:
    def test_exact_on_cubics(self):
        t = np.linspace(0.0, 4.0, 81)
        series = TrajectorySeries(
            times=t, columns={"Lambda": 1.0 + t + 0.5 * t ** 2}
        )
        rate, smooth = coarsening_rate(series, 2.0)
        assert rate == pytest.approx(3.0, rel=1e-12)
        assert smooth

    def test_flags_kinks(self):
        t = np.linspace(0.0, 4.0, 81)
        lam = np.where(t < 2.0, t, 2.0 + 100.0 * (t - 2.0))
        series = TrajectorySeries(times=t, columns={"Lambda": lam})
        # just past the kink the two strides see different slope mixtures
        _, smooth = coarsening_rate(series, 2.05)
        assert not smooth

    def test_rejects_endpoint(self):
        t = np.linspace(0.0, 4.0, 81)
        series = TrajectorySeries(times=t, columns={"Lambda": t})
        with pytest.raises(ValueError):
            coarsening_rate(series, 0.01)


class TestOutputTimes:
    def test_stride_grid_then_t_end(self):
        assert output_times(0.5, 0.1).tolist() == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
        # a last gap under stride/4 is merged into t_end
        assert output_times(1.02, 0.1)[-2:].tolist() == [0.9, 1.02]

    def test_starts_at_zero_below_a_quarter_stride(self):
        assert output_times(0.02, 0.1).tolist() == [0.0, 0.02]

    @given(st.floats(1e-3, 100.0), st.floats(1e-3, 10.0))
    def test_the_stride_grid_past_a_quarter_stride(self, t_end, stride):
        assume(t_end > 0.25 * stride)
        expected = np.append(np.arange(0.0, t_end - 0.25 * stride, stride), t_end)
        assert np.array_equal(output_times(t_end, stride), expected)


# gaps between stops: ordinary ones, and ones under the slack, which a single
# step must reach together
_GAPS = st.one_of(st.floats(1e-3, 0.4), st.floats(1e-16, 0.4 * T_SLACK))


class TestMarch:
    @given(st.lists(_GAPS, min_size=1, max_size=12),
           st.lists(st.floats(1e-3, 0.3), min_size=1, max_size=8),
           st.lists(st.booleans(), min_size=1, max_size=8))
    def test_reports_every_stop_once_and_in_order(self, gaps, proposals, rejects):
        stops = np.concatenate(([0.0], np.cumsum(gaps)))
        proposals, rejects = itertools.cycle(proposals), itertools.cycle(rejects)
        reported, times = [], []

        def attempt(t, dt, clipped):
            following = stops[len(reported)]
            assert t == times[-1] and dt <= following - t
            assert clipped == (dt < proposed[0])
            if next(rejects) and dt > 1e-3:  # a rejected try halves the step
                dt *= 0.5
            times.append(t + dt)
            assert times[-1] <= following + T_SLACK  # no stop is passed
            return dt

        def propose():
            proposed[:] = [next(proposals)]
            return proposed[0]

        def at_stop(t, stop):
            assert abs(t - stop) <= T_SLACK
            times.append(t)
            reported.append((t, stop))

        proposed = []
        t_end = march(stops, propose, attempt, at_stop, lambda: 1.0)
        assert [stop for _, stop in reported] == stops.tolist()
        assert abs(t_end - stops[-1]) <= T_SLACK
        for t in sorted(set(t for t, _ in reported)):
            group = [stop for t_stop, stop in reported if t_stop == t]
            # the step that reached the group's first stop reports every stop
            # within half the slack of it, and none beyond the slack of t
            assert group == [s for s in stops if group[0] <= s <= t + T_SLACK]
            assert all(s in group for s in stops if group[0] <= s < group[0] + 0.5 * T_SLACK)

    @given(st.integers(0, 5), st.floats(0.1, 10.0),
           st.floats(-2.0, 2.0).filter(lambda f: 0.5 < abs(f) and abs(abs(f) - 1.0) > 1e-3))
    def test_mass_drift_aborts_with_the_time(self, step, mass0, factor):
        # a drift of |factor| times the bound, relative to max(mass0, 1), from ``step`` on
        steps = []

        def mass():
            return mass0 + (factor * MASS_TOL * max(mass0, 1.0) if len(steps) > step else 0.0)

        def attempt(t, dt, clipped):
            steps.append(t + dt)
            return dt

        def run():
            return march(np.linspace(0.0, 1.0, 11), lambda: 0.07, attempt,
                         lambda t, stop: None, mass)

        if abs(factor) < 1.0:
            assert run() == pytest.approx(1.0)
        else:
            with pytest.raises(RuntimeError, match="mass drift") as raised:
                run()
            assert str(raised.value).endswith(f"at t = {steps[step]}")

    def test_clip_negatives(self):
        log = []
        assert clip_negatives(np.array([1.0, 0.0]), log).tolist() == [1.0, 0.0] and not log
        assert clip_negatives(np.array([1.0, -1e-13]), log).tolist() == [1.0, 0.0]
        assert log == [-1e-13]
        assert clip_negatives(np.array([1.0, -1e-11]), log) is None

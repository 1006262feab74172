import numpy as np
import pytest

from coarsenlab import initial_data
from coarsenlab.diagnostics import (
    TrajectorySeries,
    coarsening_rate,
    kohn_otto_report,
    moments,
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

import numpy as np
import pytest
from scipy.integrate import quad

from coarsenlab import initial_data


class TestExponentialMoment:
    def test_mass_is_one(self):
        tail = initial_data.exponential_moment()
        mass, _ = quad(lambda x: x * tail.c0(x), 0, 60)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_tail_matches_density(self):
        tail = initial_data.exponential_moment()
        for x in (0.0, 0.3, 1.7, 6.0):
            ref, _ = quad(tail.c0, x, 60)
            assert float(tail.w0(x)) == pytest.approx(ref, abs=1e-10)

    def test_number(self):
        assert initial_data.exponential_moment().n0 == pytest.approx(0.5)


class TestCompactBump:
    def test_mass_and_support(self):
        tail = initial_data.compact_bump(0.5, 3.0)
        mass, _ = quad(lambda x: x * tail.c0(x), 0.5, 3.0)
        assert mass == pytest.approx(1.0, rel=1e-10)
        assert tail.c0(0.4) == 0.0
        assert tail.c0(3.1) == 0.0
        assert float(tail.w0(3.0)) == 0.0
        assert float(tail.w0(0.0)) == pytest.approx(tail.n0)

    def test_tail_consistency(self):
        tail = initial_data.compact_bump(0.5, 3.0)
        for x in (0.6, 1.5, 2.9):
            ref, _ = quad(tail.c0, x, 3.0)
            assert float(tail.w0(x)) == pytest.approx(ref, rel=1e-10)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            initial_data.compact_bump(2.0, 1.0)


class TestTabulated:
    def test_matches_smooth_profile(self):
        ref = initial_data.exponential_moment()
        x = np.linspace(0.0, 40.0, 4001)
        tail = initial_data.tabulated(x, np.asarray(ref.c0(x)))
        probes = np.array([0.1, 0.9, 2.5, 7.0])
        assert np.allclose(tail.w0(probes), ref.w0(probes), atol=2e-4)
        assert float(tail.w0(45.0)) == 0.0

    def test_monotone_tail(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.random(50)) * 10
        x[0] = 0.0
        tail = initial_data.tabulated(x, rng.random(50))
        probes = np.linspace(0, 10, 200)
        w = tail.w0(probes)
        assert np.all(np.diff(w) <= 1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            initial_data.tabulated(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            initial_data.tabulated(np.array([1.0, 0.5]), np.array([1.0, 1.0]))


class TestDilated:
    def test_scaling_relations(self):
        base = initial_data.exponential_moment()
        tail = initial_data.dilated(base, 2.0)
        xs = np.array([0.1, 0.7, 3.0])
        assert np.allclose(tail.w0(xs), 2.0 * base.w0(2.0 * xs))
        assert np.allclose(tail.c0(xs), 4.0 * base.c0(2.0 * xs))
        mass, _ = quad(lambda x: x * tail.c0(x), 0, 30)
        assert mass == pytest.approx(1.0, abs=1e-10)


class TestCellAverages:
    def test_normalized_mass(self):
        tail = initial_data.exponential_moment()
        edges = np.linspace(0.0, 40.0, 301)
        cbar = initial_data.cell_averages(tail, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        assert float(centers @ (cbar * widths)) == pytest.approx(1.0, abs=1e-14)
        assert np.all(cbar >= 0)

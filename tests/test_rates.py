import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsenlab.rates import (
    RateModel,
    critical_density,
    equilibrium_table,
)

# Reference computed by extended-precision summation of the first 10^4 series
# terms (mpmath, 50 digits) for a1 = z_s = q = 1.
RHO_CRIT_REF = 4.4684877653720019887


class TestClusterRates:
    def test_unit_parameters_monomer(self):
        model = RateModel(1, 1, 1)
        assert model.attach(1) == 1.0
        assert model.detach(1) == 2.0

    def test_unit_parameters_dimer(self):
        model = RateModel(1, 1, 1)
        assert model.attach(2) == pytest.approx(2 ** (1 / 3), abs=1e-12)
        assert model.detach(2) == pytest.approx(2 ** (1 / 3) + 1, abs=1e-12)

    def test_zero_surface_tension_rejected(self):
        # q = 0 violates the model constraints even though the formula extends
        with pytest.raises(ValueError):
            RateModel(2, 0.5, 0)

    @given(
        a1=st.floats(0.1, 10),
        z_s=st.floats(0.1, 10),
        q=st.floats(0.01, 10),
        ell=st.integers(1, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_evaporation_dominates_saturated_attachment(self, a1, z_s, q, ell):
        model = RateModel(a1, z_s, q)
        assert model.detach(ell) > model.attach(ell) * z_s

    def test_rate_ratio_decreases_to_saturation(self):
        model = RateModel(1.3, 0.7, 2.1)
        ells = np.arange(1, 500)
        ratio = model.detach(ells) / model.attach(ells)
        assert np.all(np.diff(ratio) < 0)
        # ratio - z_s = q / ell^{1/3} decays to zero
        assert ratio[-1] - model.z_s == pytest.approx(model.q / 499 ** (1 / 3), rel=1e-12)


class TestEquilibriumTable:
    def test_q1_is_one(self):
        tab = equilibrium_table(RateModel(2.0, 0.5, 3.0), 10)
        assert np.exp(tab.log_q[0]) == 1.0

    def test_q2_hand_value(self):
        tab = equilibrium_table(RateModel(1, 1, 1), 2)
        assert np.exp(tab.log_q[1]) == pytest.approx(1.0 / (2 ** (1 / 3) + 1), rel=1e-12)

    def test_recursion_identity(self):
        model = RateModel(1.7, 0.9, 1.3)
        q = np.exp(equilibrium_table(model, 50).log_q)
        ells = np.arange(1, 50)
        np.testing.assert_allclose(q[1:] * model.detach(ells + 1), q[:-1] * model.attach(ells),
                                   rtol=1e-12, atol=0.0)

    def test_large_size_decay_rate(self):
        # against the leading-order decay exp[-(3q/2z_s) ell^(2/3)] with the
        # algebraic prefactor z_s^{-(ell-1)} ell^{-1/3}; the subleading
        # exp(O(ell^{1/3})) correction is not pinned down, so only a bounded
        # log-ratio is asserted
        tab = equilibrium_table(RateModel(1, 1, 1), 64)
        log_asym = -1.5 * 64 ** (2 / 3) - math.log(64) / 3
        assert abs(tab.log_q[63] - log_asym) <= 0.25 * abs(log_asym)

    def test_zero_flux_at_any_subsaturated_monomer_density(self):
        model = RateModel(1.1, 0.8, 0.6)
        tab = equilibrium_table(model, 40)
        for c1 in (0.2, 0.5, 0.8):
            c = tab.density(c1)
            ells = np.arange(1, 40)
            flux = model.attach(ells) * c1 * c[:-1] - model.detach(ells + 1) * c[1:]
            assert np.max(np.abs(flux)) < 1e-14 * np.max(model.attach(ells) * c1 * c[:-1] + 1e-300)

    def test_requires_at_least_two_sizes(self):
        with pytest.raises(ValueError):
            equilibrium_table(RateModel(1, 1, 1), 1)


def critical_density_loop(model, tol=1e-12):
    """Term-by-term reference: log Q_ell accumulated in a Python loop from
    scalar rates, stopped at the first ell >= 2 whose geometric tail
    t_{ell+1} / (1 - r), with r = t_{ell+1} / t_ell, is at most tol times the
    sum, and that tail added."""
    log_q, ell = 0.0, 1
    log_term = math.log(model.z_s)  # log t_1
    total = model.z_s
    while True:
        a = model.a1 * ell ** (1.0 / 3.0)
        a_next = model.a1 * (ell + 1) ** (1.0 / 3.0)
        b_next = a_next * (model.z_s + model.q * (ell + 1) ** (-1.0 / 3.0))
        log_q += math.log(a) - math.log(b_next)
        log_next = math.log(ell + 1) + log_q + (ell + 1) * math.log(model.z_s)
        ratio = math.exp(log_next - log_term)
        if ell >= 2 and ratio < 1 and math.exp(log_next) / (1 - ratio) <= tol * total:
            return total + math.exp(log_next) / (1 - ratio)
        total += math.exp(log_next)
        ell += 1
        log_term = log_next


class TestCriticalDensity:
    def test_reference_value(self):
        value = critical_density(RateModel(1, 1, 1), tol=1e-12)
        assert value == pytest.approx(RHO_CRIT_REF, rel=1e-9)

    def test_independent_of_rate_scale(self):
        lo = critical_density(RateModel(1, 1, 1), tol=1e-12)
        hi = critical_density(RateModel(7.3, 1, 1), tol=1e-12)
        assert lo == pytest.approx(hi, rel=1e-13)

    def test_decreasing_in_surface_tension(self):
        assert critical_density(RateModel(1, 1, 1)) > critical_density(RateModel(1, 1, 2))

    def test_increasing_in_saturation_density(self):
        assert critical_density(RateModel(1, 1.2, 1)) > critical_density(RateModel(1, 0.8, 1))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            critical_density(RateModel(1, 1, 1), tol=0.0)

    @pytest.mark.parametrize("params, rel", [
        ((1, 1, 1), 3e-14), ((2.0, 0.5, 3.0), 1e-14),
        # thousands of terms, past the first table the truncated sum builds
        ((1, 1, 0.05), 5e-14),
    ])
    def test_matches_brute_force_sum(self, params, rel):
        # the geometric tail added at the cut falls about 1% short of the
        # true one, which is below tol = 1e-12 of the sum: measured gaps are
        # 1.0e-14, 3.7e-15 and 1.4e-14
        model = RateModel(*params)
        table = equilibrium_table(model, 20_000)
        brute = float(np.arange(1, 20_001) @ table.density(model.z_s))
        assert critical_density(model) == pytest.approx(brute, rel=rel)

    @pytest.mark.parametrize("params", [(1, 1, 1), (7.3, 1, 1), (1, 1, 2), (1, 1, 0.05),
                                        (1.1, 0.8, 0.6)])
    def test_matches_term_by_term_loop(self, params):
        # the vector sum rounds cube roots and logs differently from the loop
        model = RateModel(*params)
        assert critical_density(model) == pytest.approx(
            critical_density_loop(model), rel=1e-14)

    def test_term_cap_raises(self):
        # at q = 1e-6 the terms decay too slowly to settle within 1e6 of them
        with pytest.raises(RuntimeError, match="did not converge"):
            critical_density(RateModel(1, 1, 1e-6))

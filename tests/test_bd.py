import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from coarsenlab import bd
from coarsenlab.banded import matvec, shifted, solve_banded
from coarsenlab.rates import RateModel, equilibrium_table

MODEL = RateModel(1, 1, 1)


def coarsening_data(ell_max=300, lo=2, hi=20):
    """Unit-mass data spread uniformly over a band of small cluster sizes."""
    gamma = np.zeros(ell_max)
    gamma[lo - 1 : hi] = 1.0
    ells = np.arange(1, ell_max + 1)
    gamma /= float(ells @ gamma)
    gamma[0] = 0.0
    return gamma


def fluxes(c, c1):
    """J_ell for ell = 1..ell_max as ``bd_rhs`` forms them at monomer density c1.

    The full closure is given the total mass that makes its monomer density
    c1; the fluxes are then the sums of dc/dt above ell, which telescope to
    J_ell since the cutoff flux is zero.
    """
    c = np.concatenate(([c1], c[1:]))
    rho = c1 + float(np.arange(2, len(c) + 1) @ c[1:])
    dc = bd.bd_rhs(c, MODEL, bd.FullClosure(rho=rho))
    return np.append(np.cumsum(dc[:0:-1])[::-1], 0.0)


class TestFlux:
    def test_equilibrium_fluxes_vanish(self):
        tab = equilibrium_table(MODEL, 30)
        c1 = 0.7
        np.testing.assert_allclose(fluxes(tab.density(c1), c1), 0.0, rtol=0.0, atol=1e-15)

    def test_pure_attachment(self):
        c = np.zeros(5)
        c[0] = 1.0
        assert fluxes(c, 1.0)[0] == pytest.approx(MODEL.a1)

    def test_hand_value(self):
        c = np.array([1.5, 0.1, 0.05, 0.0])
        expected = 2 ** (1 / 3) * 1.5 * 0.1 - 3 ** (1 / 3) * (1 + 3 ** (-1 / 3)) * 0.05
        assert fluxes(c, 1.5)[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.066876, abs=1e-6)

    def test_cutoff_flux_is_zero(self):
        # the top bin only gains from below: dc_6/dt = J_5 = a_5 c1 c_5 - b_6 c_6
        c = np.ones(6)
        dc = bd.bd_rhs(c, MODEL, bd.FullClosure(rho=float(np.arange(1, 7).sum())))
        assert dc[-1] == pytest.approx(float(MODEL.attach(5) - MODEL.detach(6)), rel=1e-14)


class TestClosures:
    # the closures take the cluster densities c_ell for ell = 2..ell_max

    def test_full_all_monomers(self):
        assert bd.FullClosure(1.0).c1(np.zeros(9), MODEL) == 1.0

    def test_full_clamp(self):
        c = np.zeros(9)
        c[0] = 0.5  # ell=2 carries mass 1
        assert bd.FullClosure(1.0).c1(c, MODEL) == 0.0

    def test_full_arithmetic(self):
        c = np.zeros(9)
        c[0] = 0.25
        assert bd.FullClosure(2.0).c1(c, MODEL) == pytest.approx(1.5)

    def test_dirichlet_hand_value(self):
        c = np.zeros(9)
        c[0] = 0.5
        expected = 1 + (0.5 + (2 ** (1 / 3) + 1) * 0.5) / (2 ** (1 / 3) * 0.5)
        got = bd.DirichletClosure().c1(c, MODEL)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(3.587401, abs=1e-6)

    def test_dirichlet_single_large_bin(self):
        # one occupied bin at large size recovers c1 = z_s + q / size^{1/3}
        c = np.zeros(499)
        c[398] = 0.01  # ell = 400
        got = bd.DirichletClosure().c1(c, MODEL)
        assert got == pytest.approx(1.0 + 400 ** (-1 / 3), rel=1e-12)

    def test_dirichlet_exceeds_saturation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert bd.DirichletClosure().c1(rng.random(50), MODEL) > MODEL.z_s

    def test_dirichlet_degenerate(self):
        with pytest.raises(ZeroDivisionError):
            bd.DirichletClosure().c1(np.zeros(9), MODEL)

    def test_monomers(self):
        # the size-1 clusters: the full closure's c1, none in the Dirichlet state
        assert bd.FullClosure(1.0).monomers(0.3) == 0.3
        assert bd.DirichletClosure().monomers(0.3) == 0.0

    def test_full_for_data_conserves_the_initial_mass(self):
        gamma = equilibrium_table(MODEL, 100).density(0.9)
        closure, state = bd.FullClosure.for_data(gamma)
        assert state is gamma
        assert closure.rho == float(np.arange(1, 101) @ gamma)

    def test_dirichlet_for_data_drops_monomers_at_unit_mass(self):
        gamma = equilibrium_table(MODEL, 100).density(0.9)
        closure, state = bd.DirichletClosure.for_data(gamma)
        assert state[0] == 0.0 and gamma[0] == 0.9
        assert float(np.arange(1, 101) @ state) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(state[1:] / gamma[1:], state[1] / gamma[1], rtol=1e-15)
        bd.BdRunConfig(model=MODEL, closure=closure, initial=state).validate()

    def test_dirichlet_for_data_keeps_data_without_monomers(self):
        # scaling unit-mass data again would move its last bits
        gamma = coarsening_data(ell_max=100)
        assert bd.DirichletClosure.for_data(gamma)[1] is gamma


class TestRhs:
    def test_equilibrium_stationary(self):
        tab = equilibrium_table(MODEL, 40)
        c = tab.density(0.6)
        rho = float(np.arange(1, 41) @ c)
        dc = bd.bd_rhs(c, MODEL, bd.FullClosure(rho=rho))
        assert np.max(np.abs(dc)) < 1e-15

    def test_full_mass_derivative_vanishes(self):
        rng = np.random.default_rng(1)
        ells = np.arange(1, 31, dtype=float)
        for _ in range(10):
            c = rng.random(30) * 0.01
            rho = float(ells @ c) + 0.5
            c[0] = 0.0
            dc = bd.bd_rhs(c, MODEL, bd.FullClosure(rho=rho))
            # total mass including the monomer slot is conserved
            assert abs(float(ells @ dc)) < 1e-13

    def test_cluster_mass_rate_telescopes_to_flux_sum(self):
        # sum_(ell>=2) ell dc_ell/dt = J_1 + sum_ell J_ell for the full system
        rng = np.random.default_rng(2)
        ells = np.arange(1, 31, dtype=float)
        for _ in range(10):
            c = rng.random(30) * 0.01
            c[0] = 0.0
            rho = float(ells @ c) + 0.3
            c1 = bd.FullClosure(rho).c1(c[1:], MODEL)
            c[0] = c1
            dc = bd.bd_rhs(c, MODEL, bd.FullClosure(rho=rho))
            j = np.append(MODEL.attach(ells[:-1]) * c1 * c[:-1]
                          - MODEL.detach(ells[1:]) * c[1:], 0.0)
            lhs = float(ells[1:] @ dc[1:])
            rhs = j[0] + j.sum()
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    def test_dirichlet_mass_derivative_vanishes(self):
        # the identity requires an empty truncation bin (runs enforce this via
        # the saturation monitor), so the random mass sits well below the cutoff
        rng = np.random.default_rng(3)
        ells = np.arange(1, 41, dtype=float)
        for _ in range(10):
            c = np.zeros(40)
            c[1:20] = rng.random(19) * 0.01
            dc = bd.bd_rhs(c, MODEL, bd.DirichletClosure())
            assert abs(float(ells @ dc)) < 1e-14


class TestSemiImplicitStep:
    @pytest.mark.parametrize("closure", [bd.FullClosure(rho=1.5), bd.DirichletClosure()])
    def test_solves_each_trial_c1_once(self, closure, monkeypatch):
        c = coarsening_data(ell_max=100)[1:]
        ells = np.arange(2, 101, dtype=float)
        tri = bd._Tridiag(MODEL, 100, closure)
        c1_now = closure.c1(c, MODEL)
        trials, solves = [], []

        def recording(search):  # bracket(f, ...) and brentq(f, ...)
            def wrapped(f, *args, **kwargs):
                def f_recorded(c1):
                    trials.append(c1)
                    return f(c1)

                return search(f_recorded, *args, **kwargs)

            return wrapped

        def counted(*args):
            solves.append(args)
            return solve(*args)

        solve = bd.solve_banded
        monkeypatch.setattr(bd, "bracket", recording(bd.bracket))
        monkeypatch.setattr(bd, "brentq", recording(bd.brentq))
        monkeypatch.setattr(bd, "solve_banded", counted)
        c_new, c1 = bd._step_semi_implicit(c, 0.05, MODEL, closure, tri, ells, c1_now)
        assert len(solves) == len(set(trials))
        assert np.array_equal(c_new, tri.trapezoid(c, 0.05)(c1))

    @given(st.integers(2, 40).flatmap(lambda n: arrays(float, n, elements=st.floats(0.0, 1.0))),
           st.floats(1e-3, 1.0), st.floats(0.05, 3.0), st.booleans(),
           st.tuples(*[st.floats(0.5, 2.0)] * 3))
    def test_trial_solve_matches_whole_operator(self, c, dt, c1, full, coefficients):
        model = RateModel(*coefficients)
        closure = bd.FullClosure(rho=1.0) if full else bd.DirichletClosure()
        tri = bd._Tridiag(model, len(c) + 1, closure)
        expected = _trapezoid_reference(model, c, dt, c1, full)
        tol = 1e-13 * max(float(np.max(np.abs(expected))), 1e-300)
        np.testing.assert_allclose(tri.trapezoid(c, dt)(c1), expected, rtol=0.0, atol=tol)

    def test_bracket_widens_when_the_root_lies_outside_its_start(self, monkeypatch):
        # the first step of the band data moves c1 - z_s by 0.5% from the guess
        c = coarsening_data(ell_max=100)[1:]
        ells = np.arange(2, 101, dtype=float)
        excess = bd.DirichletClosure().c1(c, MODEL) - MODEL.z_s
        brackets = []

        def recording(f, lo, hi, **kwargs):
            brackets.append(((lo, hi), bracket(f, lo, hi, **kwargs)))
            return brackets[-1][1]

        bracket = bd.bracket
        monkeypatch.setattr(bd, "bracket", recording)
        tri = bd._Tridiag(MODEL, 100, bd.DirichletClosure())
        c_new, c1 = bd._step_semi_implicit(c, 0.05, MODEL, bd.DirichletClosure(), tri, ells,
                                           excess + MODEL.z_s)
        [(start, found)] = brackets
        assert not start[0] <= c1 <= start[1]
        assert found[0] <= c1 <= found[1] and found != start
        assert (c1 - MODEL.z_s) / excess < 1.0 - bd._GUESS_SPREAD
        assert abs(float(ells @ c_new) - float(ells @ c)) <= 1e-14


def _trapezoid_reference(model, c, dt, c1, full):
    """The trapezoid step with A(c1) and r(c1) assembled whole for one c1:
    (I - h A) c_new = (I + h A) c + dt r, h = dt/2."""
    ells = np.arange(2, len(c) + 2, dtype=float)
    a, b, a_prev = model.attach(ells), model.detach(ells), model.attach(ells - 1)
    op = np.zeros((3, len(c)))
    op[0, 1:] = b[1:]
    op[1] = -(b + a * c1)
    op[1, -1] = -b[-1]  # zero flux out of the top bin
    op[2, :-1] = a_prev[1:] * c1
    r = np.zeros(len(c))
    if full:
        r[0] = model.a1 * c1 * c1
    h = 0.5 * dt
    return solve_banded(shifted(h, op), matvec(shifted(-h, op), c) + dt * r)


class TestErrorControl:
    @pytest.fixture(scope="class")
    def history(self):
        """Two Dirichlet states of a band-200 run, at t = 0.98 and t = 1."""
        _, snaps, _ = bd.run_bd(bd.BdRunConfig(
            model=MODEL, closure=bd.DirichletClosure(),
            initial=coarsening_data(ell_max=200), t_end=1.0, output_stride=0.02,
        ))
        (t_prev, c_prev), (t, c) = snaps[-2:]
        return c_prev[1:], t - t_prev, c[1:]

    def test_estimate_matches_true_local_error(self, history):
        c_prev, tau, c = history
        closure = bd.DirichletClosure()
        tri = bd._Tridiag(MODEL, 200, closure)
        ells = np.arange(2, 201, dtype=float)
        slope = tri.rate(c, closure.c1(c, MODEL))
        estimates = []
        for h in (0.02, 0.01, 0.005):
            c_new, _ = bd._step_semi_implicit(c, h, MODEL, closure, tri, ells,
                                              closure.c1(c, MODEL))
            fine = c
            for _ in range(256):
                fine, _ = bd._step_semi_implicit(fine, h / 256, MODEL, closure, tri, ells,
                                                 closure.c1(fine, MODEL))
            est = np.max(np.abs(bd._local_error(c, c_new, slope, h, (c_prev, tau))))
            assert 0.8 <= est / np.max(np.abs(c_new - fine)) <= 1.25
            estimates.append(est)
        # third order: each halving of h cuts the estimate by about 8
        ratios = np.array(estimates[:-1]) / np.array(estimates[1:])
        assert np.all((6.5 <= ratios) & (ratios <= 9.5))

    @pytest.mark.parametrize("closure", [bd.FullClosure(rho=1.5), bd.DirichletClosure()])
    def test_one_root_find_per_attempt(self, closure, monkeypatch):
        gamma = coarsening_data(ell_max=100)
        if isinstance(closure, bd.FullClosure):
            gamma[0] = 0.5  # free monomers on top of the unit cluster mass
        trials: set[float] = set()
        rootfinds, solves, histories, trials_per_attempt = [], [], [], []

        def recording(search):  # bracket(f, ...) and brentq(f, ...)
            def wrapped(f, *args, **kwargs):
                if search is brentq:
                    rootfinds.append(f)

                def f_recorded(c1):
                    trials.add(c1)
                    return f(c1)

                return search(f_recorded, *args, **kwargs)

            return wrapped

        def counted(*args):
            solves.append(args)
            return solve(*args)

        def estimate(c, c_new, slope, h, previous):  # once per attempt
            histories.append(previous is not None)
            trials_per_attempt.append(len(trials))
            trials.clear()
            return local_error(c, c_new, slope, h, previous)

        solve, brentq, local_error = bd.solve_banded, bd.brentq, bd._local_error
        monkeypatch.setattr(bd, "bracket", recording(bd.bracket))
        monkeypatch.setattr(bd, "brentq", recording(brentq))
        monkeypatch.setattr(bd, "solve_banded", counted)
        monkeypatch.setattr(bd, "_local_error", estimate)
        bd.run_bd(bd.BdRunConfig(model=MODEL, closure=closure, initial=gamma,
                                 t_end=0.5, output_stride=0.25))
        assert len(rootfinds) == len(histories)
        # the first attempts take the Euler estimate, every later one the history
        assert not histories[0] and histories == sorted(histories)
        assert histories[-1]
        assert len(solves) == sum(trials_per_attempt)
        if isinstance(closure, bd.DirichletClosure):
            # 4.13 solves a root-find, from a bracket started 1e-3 either side
            # of the flux-balance guess; the ceiling leaves 4% headroom (a
            # start at x0.25 and x4 of the guess's distance to z_s takes 4.95)
            assert len(solves) <= 4.3 * len(rootfinds)


class TestRun:
    def test_equilibrium_trajectory_is_stationary(self):
        tab = equilibrium_table(MODEL, 100)
        gamma = tab.density(0.8)
        rho = float(np.arange(1, 101) @ gamma)
        cfg = bd.BdRunConfig(
            model=MODEL, closure=bd.FullClosure(rho=rho), initial=gamma,
            t_end=2.0, output_stride=1.0,
        )
        series, snaps, _ = bd.run_bd(cfg)
        assert np.max(np.abs(snaps[-1][1] - gamma)) <= 1e-8

    def test_full_closure_from_no_monomers(self, monkeypatch):
        # c1 is 0 at t = 0 up to rounding (1.1e-16 here), from where a bracket
        # about c1 widens slowly: the first root-find takes [0, rho] instead
        rho, brackets, brentq = 1.0, [], bd.brentq

        def recorded(f, lo, hi, **kwargs):
            brackets.append((lo, hi))
            return brentq(f, lo, hi, **kwargs)

        monkeypatch.setattr(bd, "brentq", recorded)
        series, *_ = bd.run_bd(bd.BdRunConfig(
            model=MODEL, closure=bd.FullClosure(rho=rho), initial=coarsening_data(ell_max=100),
            t_end=0.5, output_stride=0.25))
        assert brackets[0] == (0.0, rho)
        assert all(hi - lo < 1e-2 * rho for lo, hi in brackets[-10:])
        assert np.max(np.abs(series.column("mass") - rho)) <= 1e-8

    def test_dirichlet_structure(self):
        cfg = bd.BdRunConfig(
            model=MODEL, closure=bd.DirichletClosure(),
            initial=coarsening_data(), t_end=10.0, output_stride=0.5,
        )
        series, snaps, _ = bd.run_bd(cfg)
        assert np.all(series.column("c1") > MODEL.z_s)
        assert np.all(np.diff(series.column("g")) < 0)
        assert np.max(np.abs(series.column("mass") - 1.0)) <= 1e-8
        assert min(float(c.min()) for _, c in snaps) >= -1e-12

    def test_dirichlet_monomer_density_relaxes(self):
        cfg = bd.BdRunConfig(
            model=MODEL, closure=bd.DirichletClosure(),
            initial=coarsening_data(ell_max=600), t_end=20.0, output_stride=0.5,
        )
        series, *_ = bd.run_bd(cfg)
        c1 = series.column("c1")
        quarter = float(np.interp(5.0, series.times, c1))
        assert c1[-1] < quarter

    def test_schemes_agree(self):
        # the reference is DOP853 over bd_rhs, one run to t_end
        gamma = coarsening_data(ell_max=200)
        closure = bd.DirichletClosure()
        _, snaps, _ = bd.run_bd(bd.BdRunConfig(
            model=MODEL, closure=closure, initial=gamma, t_end=2.0, output_stride=0.5,
        ))
        ref = solve_ivp(lambda _, c: bd.bd_rhs(c, MODEL, closure), (0.0, 2.0), gamma,
                        method="DOP853", rtol=1e-10, atol=1e-12)
        assert ref.success
        assert np.max(np.abs(snaps[-1][1] - ref.y[:, -1])) < 1e-7

    def test_saturation_monitor(self):
        # data parked right at the cutoff must trip the truncation monitor
        gamma = np.zeros(20)
        gamma[14] = 1.0 / 15.0
        with pytest.raises(bd.BdRunError, match="increase ell_max"):
            bd.run_bd(bd.BdRunConfig(
                model=MODEL, closure=bd.DirichletClosure(), initial=gamma,
                t_end=20.0, output_stride=1.0,
            ))

    def test_config_validation(self):
        gamma = coarsening_data()
        with pytest.raises(ValueError):
            bd.BdRunConfig(
                model=MODEL, closure=bd.FullClosure(rho=5.0), initial=gamma,
                t_end=1.0,
            ).validate()
        bad = gamma.copy()
        bad[0] = 0.1
        with pytest.raises(ValueError):
            bd.BdRunConfig(
                model=MODEL, closure=bd.DirichletClosure(), initial=bad,
                t_end=1.0,
            ).validate()

import math
import threading

import numpy as np
import pytest

from coarsenlab import sde
from coarsenlab.diagnostics import LHistory
from coarsenlab.lsw_diffusive import Grid, adjoint_solve
from coarsenlab.sde import (
    _BLOCK,
    _CUT,
    McConfig,
    _simulate_batch,
    estimate_survival_payoff,
    exit_time_histogram,
    payoff_function,
)


def simulate_path(config, x_start):
    """One path: (absorbed, exit_time) if absorbed else (False, final position)."""
    alive, x_fin, exit_t = _simulate_batch(config, np.array([x_start]))
    return (False, float(x_fin[0])) if alive[0] else (True, float(exit_t[0]))


def deterministic_exit_time(x: float) -> float:
    """Travel time to 0 under the noise-free drift with L == 1."""
    u = x ** (1.0 / 3.0)
    return 3.0 * (-u * u / 2.0 - u - math.log1p(-u))


def _config(eps=0.25, T=0.25, n_paths=20_000, dt=1e-3, seed=7, l_value=1.0):
    return McConfig(
        eps=eps, history=LHistory.constant(l_value, T), T=T,
        n_paths=n_paths, dt=dt, seed=seed,
    )


class TestPayoffs:
    def test_builtin_payoffs(self):
        x = np.array([0.0, 1.0, 8.0])
        assert np.all(payoff_function("one")(x) == 1.0)
        assert np.allclose(payoff_function("cuberoot")(x), [0.0, 1.0, 2.0])
        assert np.all(payoff_function(("indicator", 0.5))(x) == [0.0, 1.0, 1.0])

    def test_unknown_payoff(self):
        with pytest.raises(ValueError):
            payoff_function("banana")


class TestNoiseFreeLimit:
    def test_exit_time_matches_closed_form(self):
        # eps = 0 reduces Euler steps to the drift ODE: the recorded exit time
        # is the closed-form travel time up to the step resolution
        x0 = 0.3
        cfg = _config(eps=0.0, T=1.0, n_paths=1, dt=1e-4)
        absorbed, exit_t = simulate_path(cfg, x0)
        assert absorbed
        assert exit_t == pytest.approx(deterministic_exit_time(x0), abs=5e-3)

    def test_survivor_reports_final_position(self):
        cfg = _config(eps=0.0, T=0.25, n_paths=1, dt=1e-4)
        absorbed, x_fin = simulate_path(cfg, 2.0)
        assert not absorbed
        # x^{1/3} > 1 means outward drift: the path can only grow
        assert x_fin > 2.0

    def test_start_at_zero_is_instantly_absorbed(self):
        cfg = _config(eps=0.0, T=0.5, n_paths=1)
        absorbed, exit_t = simulate_path(cfg, 0.0)
        assert absorbed
        assert exit_t == 0.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            simulate_path(_config(), -0.1)
        with pytest.raises(ValueError):
            estimate_survival_payoff(_config(n_paths=10), "one", -0.1)
        with pytest.raises(ValueError):
            exit_time_histogram(_config(n_paths=10), -0.1, bins=4)


def _reference_batch(config, x_starts):
    """The whole-batch Euler loop, kept as an oracle for ``_simulate_batch``.

    Every step advances every path (dead ones are masked) and evaluates exp
    for the whole batch.  Block j, the paths ``j * _BLOCK`` on, draws its
    normals for its alive paths and its uniforms for its alive paths with
    ``x_new > 0`` and ``x * x_new <= _CUT * sigma^2 dt``, in path order, from
    ``SFC64(SeedSequence(seed, spawn_key=(2j + 1,)))`` and
    ``spawn_key=(2j + 2,)``.
    """
    n = len(x_starts)

    def stream(key):
        seq = np.random.SeedSequence(config.seed, spawn_key=(key,))
        return np.random.Generator(np.random.SFC64(seq))

    blocks = [slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK)]
    normals = [stream(2 * j + 1) for j in range(len(blocks))]
    uniforms = [stream(2 * j + 2) for j in range(len(blocks))]

    def draw(rngs, mask, draw_one):
        out = np.zeros(n)
        for rng, block in zip(rngs, blocks):
            out[block][mask[block]] = draw_one(rng, int(mask[block].sum()))
        return out

    n_steps = config.n_steps
    dt = config.T / n_steps
    x0 = np.asarray(x_starts, dtype=float)
    x = x0.copy()
    alive0 = x0 > 0.0
    alive = alive0.copy()
    exit_t = np.where(alive, np.nan, 0.0)
    eps = config.eps
    bridge = eps > 0.0
    for k in range(n_steps):
        if not alive.any():
            break
        t_mid = k * dt
        big_l = float(config.history.value(min(t_mid, config.history.t_end)))
        xp = np.maximum(x, 0.0)
        drift = np.cbrt(xp / big_l) - 1.0
        if eps > 0.0:
            s2dt = 2.0 * eps * dt * np.cbrt(1.0 + xp / eps)  # sigma^2 dt
            z = draw(normals, alive, lambda rng, m: rng.standard_normal(m))
            x_new = x + drift * dt + np.sqrt(s2dt) * z
        else:
            x_new = x + drift * dt
        crossed = alive & (x_new <= 0.0)
        if bridge:
            prod = x * x_new
            over = alive & (x_new > 0.0) & (prod <= _CUT * s2dt)
            u = draw(uniforms, over, lambda rng, m: rng.random(m))
            with np.errstate(over="ignore"):
                crossed |= over & (u < np.exp(-2.0 * prod / s2dt))
        exit_t = np.where(crossed, (k + 1) * dt, exit_t)
        alive &= ~crossed
        x = np.where(alive, x_new, 0.0)
    return alive, np.where(alive0, x, x0), exit_t


def _assert_same_batch(config, starts):
    got = _simulate_batch(config, starts)
    want = _reference_batch(config, starts)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    return got


# L grows past its last knot before T, so the batch also reads the held value
_GROWING = LHistory(times=np.array([0.0, 0.1, 0.3]), values=np.array([0.8, 1.1, 1.7]))
_MIXED_STARTS = np.repeat([0.0, 0.01, 0.3, 1.0, 2.5], 300)


class TestBatchMatchesReference:
    @pytest.mark.parametrize("eps", [0.0, 0.002, 0.25])
    @pytest.mark.parametrize("growing", [False, True], ids=["constant-L", "growing-L"])
    def test_mixed_starts(self, eps, growing):
        T = 0.4
        history = _GROWING if growing else LHistory.constant(0.9, T)
        cfg = McConfig(eps=eps, history=history, T=T, n_paths=1, dt=2e-3, seed=5)
        alive, _, _ = _assert_same_batch(cfg, _MIXED_STARTS)
        assert 0 < alive.sum() < len(_MIXED_STARTS)

    def test_all_absorbed_before_T(self):
        # travel time from 0.05 is about 0.03, so the batch stops long before T
        cfg = McConfig(eps=0.002, history=LHistory.constant(1.0, 1.0), T=1.0,
                       n_paths=1, dt=1e-3, seed=8)
        alive, x, exit_t = _assert_same_batch(cfg, np.full(500, 0.05))
        assert not alive.any() and np.all(x == 0.0)
        assert exit_t.max() < 0.5

    def test_nothing_alive_at_start(self):
        starts = np.array([0.0, -0.0, 0.0])
        alive, x, _ = _assert_same_batch(_config(n_paths=1, T=0.01), starts)
        assert not alive.any() and np.signbit(x[1])

    def test_several_blocks_on_any_number_of_workers(self, monkeypatch):
        # the last block is partial; the blocks' results do not depend on
        # how many workers run them
        starts = np.resize(_MIXED_STARTS, 2 * _BLOCK + 17)
        cfg = _config(T=0.1, dt=2e-3)
        pooled = _assert_same_batch(cfg, starts)
        monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid: {0})
        single = _simulate_batch(cfg, starts)
        for a, b in zip(pooled, single):
            assert np.array_equal(a, b, equal_nan=True)
        assert 0 < pooled[0].sum() < len(starts)

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        _simulate_batch(_config(T=0.02), _MIXED_STARTS)
        _simulate_batch(_config(eps=0.002, T=1.0, dt=1e-2), np.full(100, 0.05))
        _simulate_batch(_config(T=0.02), np.full(3 * _BLOCK, 0.5))
        assert threading.active_count() == before

    def test_no_state_outlives_a_call(self):
        # each block allocates its buffers, and the starts are only read
        starts = np.resize(_MIXED_STARTS, 2 * _BLOCK + 17)
        kept = starts.copy()
        cfg = _config(T=0.02)
        first = _simulate_batch(cfg, starts)
        second = _simulate_batch(cfg, starts)
        assert np.array_equal(starts, kept)
        for a, b in zip(first, second):
            assert np.array_equal(a, b, equal_nan=True)

    def test_no_uniform_can_beat_exp_below_the_cut(self):
        # the batch draws no uniform where x * x_new > _CUT * sigma^2 dt, that
        # is q < -2 * _CUT: random() returns multiples of 2**-53, and there
        # exp(q) < 2**-53, so only u == 0 could beat it
        u = np.random.Generator(np.random.SFC64(3)).random(1_000_000)
        scaled = np.ldexp(u, 53)
        assert np.array_equal(scaled, np.floor(scaled))
        assert math.exp(-2.0 * _CUT) < 2.0**-53
        assert np.exp(np.float64(-2.0 * _CUT)) < 2.0**-53


class TestEstimates:
    def test_determinism(self):
        a = estimate_survival_payoff(_config(seed=11), "one", 1.0)
        b = estimate_survival_payoff(_config(seed=11), "one", 1.0)
        assert a == b

    def test_seed_changes_result(self):
        a = estimate_survival_payoff(_config(seed=11), "one", 1.0)
        b = estimate_survival_payoff(_config(seed=12), "one", 1.0)
        assert a.mean != b.mean

    def test_bookkeeping(self):
        est = estimate_survival_payoff(_config(), "one", 1.0)
        assert est.n_absorbed + est.n_survived == 20_000
        assert est.mean == pytest.approx(est.n_survived / 20_000, abs=1e-12)
        assert 0.0 < est.mean < 1.0

    def test_survival_increases_with_start(self):
        lo = estimate_survival_payoff(_config(), "one", 0.25)
        hi = estimate_survival_payoff(_config(), "one", 1.5)
        assert hi.mean > lo.mean + 5 * (hi.stderr + lo.stderr)

    def test_constant_small_l_dominates_growing_l(self):
        # the frozen transport parameter L0 = inf L gives the weakest inward
        # drift, hence the largest survival; common random numbers make the
        # comparison pathwise
        T = 0.5
        growing = LHistory(times=np.array([0.0, T]), values=np.array([1.0, 2.0]))
        cfg_grow = McConfig(eps=0.25, history=growing, T=T, n_paths=50_000,
                            dt=1e-3, seed=3)
        cfg_const = McConfig(eps=0.25, history=LHistory.constant(1.0, T), T=T,
                             n_paths=50_000, dt=1e-3, seed=3)
        s_grow = estimate_survival_payoff(cfg_grow, "one", 1.0).mean
        s_const = estimate_survival_payoff(cfg_const, "one", 1.0).mean
        assert s_const >= s_grow

    def test_matches_adjoint_solve(self):
        # cheap version of the full cross-validation at two probe points; near
        # the boundary, at 0.25, Euler paths without the Brownian-bridge
        # correction survive too often to pass
        eps, T = 0.25, 0.25
        hist = LHistory.constant(1.0, T)
        grid = Grid.log_graded(eps, 25.0, 1024)
        w0 = adjoint_solve(np.ones(grid.n_cells), T, hist, eps, grid)
        config = McConfig(eps=eps, history=hist, T=T, n_paths=100_000, dt=1e-3, seed=42)
        for x_probe in (0.25, 1.0):
            pde = float(np.interp(x_probe, grid.centers, w0))
            est = estimate_survival_payoff(config, "one", x_probe)
            assert abs(est.mean - pde) <= 3.0 * (est.stderr + 2e-3), x_probe

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(eps=-0.1)


class TestExitTimeHistogram:
    def test_mass_accounting(self):
        cfg = _config(T=1.0, n_paths=30_000)
        density, edges, survival = exit_time_histogram(cfg, 0.3, bins=40)
        width = edges[1] - edges[0]
        absorbed_mass = float(density.sum() * width)
        assert absorbed_mass + survival == pytest.approx(1.0, abs=1e-12)
        assert np.all(density >= 0.0)
        assert len(edges) == 41

    def test_mode_approaches_deterministic_exit_time(self):
        # as the noise shrinks the first-passage density concentrates near the
        # drift travel time; the approach is slow from below because the noise
        # amplitude stays sizeable at small volumes
        t_star = deterministic_exit_time(0.3)
        modes = []
        for eps in (0.02, 0.002):
            cfg = McConfig(eps=eps, history=LHistory.constant(1.0, 1.0), T=1.0,
                           n_paths=200_000, dt=5e-4, seed=9)
            density, edges, _ = exit_time_histogram(cfg, 0.3, bins=40)
            centers = 0.5 * (edges[:-1] + edges[1:])
            modes.append(float(centers[np.argmax(density)]))
        assert modes[1] > modes[0]
        assert abs(modes[1] - t_star) <= 0.2

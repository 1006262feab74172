"""Top-level acceptance checks, one numbered verdict per criterion.

Each test evaluates one advertised guarantee of the package at its stated
tolerance and reports a single ``ACCEPTANCE NN ...: PASS/FAIL`` line (collected
in the terminal summary).  Expensive runs are shared through module-scoped
fixtures, and the reference classical runs through the session-scoped ones in
``conftest.py``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from coarsenlab import bd, diagnostics, initial_data
from coarsenlab.diagnostics import LHistory, kohn_otto_report
from coarsenlab.harness import run_experiment
from coarsenlab.lsw_classical import characteristic_backward
from coarsenlab.lsw_diffusive import DiffusiveRunConfig, run_diffusive
from coarsenlab.rates import RateModel, equilibrium_table

MODEL = RateModel(1, 1, 1)

# Independent oracles for the boundary characteristic under L == 1
# (separable ODE, mpmath quadrature/findroot at 50 digits):
# foot of the backward characteristic through (0, 0.5), and the travel
# time to 0 from x = 0.3.
FOOT_AT_HALF = 0.251005433430258428
EXIT_TIME_03 = 0.640327736017490449


@pytest.fixture(scope="session")
def verdict(request):
    def _verdict(num, desc, passed, detail=""):
        line = f"ACCEPTANCE {num:02d} {desc}: {'PASS' if passed else 'FAIL'}"
        request.config._acceptance_lines.append(line)
        print(line)
        assert passed, line + (f" [{detail}]" if detail else "")

    return _verdict


def _band_data(ell_max):
    gamma = np.zeros(ell_max)
    gamma[1:20] = 1.0
    gamma /= float(np.arange(1, ell_max + 1) @ gamma)
    return gamma


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def bd_dirichlet_run():
    cfg = bd.BdRunConfig(
        model=MODEL, closure=bd.DirichletClosure(), initial=_band_data(600),
        t_end=50.0, output_stride=0.5,
    )
    return bd.run_bd(cfg)


@pytest.fixture(scope="module")
def bd_full_run():
    gamma = _band_data(200)
    gamma[0] = 0.5  # free monomers on top of the unit cluster mass
    cfg = bd.BdRunConfig(
        model=MODEL, closure=bd.FullClosure(rho=1.5), initial=gamma,
        t_end=5.0, output_stride=0.25,
    )
    return bd.run_bd(cfg)


@pytest.fixture(scope="module")
def diffusive_run():
    cfg = DiffusiveRunConfig(
        tail=initial_data.exponential_moment(), eps=0.25, t_end=5.0,
        n_cells=256,
    )
    return run_diffusive(cfg)


@pytest.fixture(scope="module")
def coarsening_long_run():
    cfg = DiffusiveRunConfig(
        tail=initial_data.exponential_moment(), eps=0.1, t_end=50.0,
        n_cells=512, output_stride=0.5,
    )
    return run_diffusive(cfg)


@pytest.fixture(scope="module")
def sweep_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = run_experiment({"kind": "sweep"}, str(out))
    return code, json.loads((out / "summary.json").read_text())


# ---------------------------------------------------------------------------
# criteria


def test_01_equilibrium_stationarity(verdict):
    gamma = equilibrium_table(MODEL, 200).density(0.9)
    rho = float(np.arange(1, 201) @ gamma)
    cfg = bd.BdRunConfig(
        model=MODEL, closure=bd.FullClosure(rho=rho), initial=gamma,
        t_end=10.0, output_stride=1.0,
    )
    _, snaps, _ = bd.run_bd(cfg)
    drift = max(float(np.max(np.abs(c - gamma))) for _, c in snaps)
    verdict(1, "equilibrium data is stationary (max drift <= 1e-8)",
            drift <= 1e-8, f"drift={drift:.3e}")


def test_02_conservation(verdict, bd_full_run, bd_dirichlet_run, diffusive_run):
    full_series, *_ = bd_full_run
    full_drift = float(np.max(np.abs(full_series.column("mass") - 1.5)))
    dir_series, *_ = bd_dirichlet_run
    dir_drift = float(np.max(np.abs(dir_series.column("mass") - 1.0)))
    diff_series = diffusive_run[0]
    diff_drift = float(np.max(np.abs(diff_series.column("mass_residual"))))
    ok = (full_drift <= 1e-8 * 1.5 and dir_drift <= 1e-8
          and diff_drift <= 1e-8)
    verdict(2, "all conservative solvers hold mass to 1e-8", ok,
            f"full={full_drift:.3e} dirichlet={dir_drift:.3e} "
            f"diffusive={diff_drift:.3e}")


def test_03_dirichlet_structure(verdict, bd_dirichlet_run):
    series, *_ = bd_dirichlet_run
    c1 = series.column("c1")
    g = series.column("g")
    ok = bool(np.all(c1 > MODEL.z_s)) and bool(np.all(np.diff(g) < 0))
    verdict(3, "Dirichlet system keeps c1 > z_s and number strictly falling",
            ok, f"min_c1={float(np.min(c1)):.6f}")


def test_04_characteristics_oracle(verdict):
    hist = LHistory.constant(1.0, 2.0)
    foot = characteristic_backward(0.0, 0.5, hist)
    exit_time = brentq(
        lambda t: characteristic_backward(0.0, t, hist) - 0.3,
        0.1, 1.5, xtol=1e-12, rtol=8.9e-16,
    )
    err_foot = abs(foot - FOOT_AT_HALF)
    err_exit = abs(exit_time - EXIT_TIME_03)
    verdict(4, "boundary characteristic matches the separable-ODE oracle "
               "to 1e-8",
            err_foot <= 1e-8 and err_exit <= 1e-8,
            f"foot_err={err_foot:.3e} exit_err={err_exit:.3e}")


def test_05_duality(verdict, tmp_path):
    cfg = {"kind": "duality", "eps": 0.25, "T": 0.5, "n_cells": 2048,
           "tolerance": 1e-4}
    code = run_experiment(cfg, str(tmp_path), refine=True)
    summary = json.loads((tmp_path / "summary.json").read_text())
    residual = summary["details"]["residuals"]["one"]["residual"]
    ratio = summary["details"]["refinement_ratios"]["one"]
    verdict(5, "forward/adjoint pairing residual <= 1e-4 and halves under "
               "refinement",
            code == 0, f"residual={residual:.3e} ratio={ratio:.3f}")


def test_06_mc_cross_validation(verdict, tmp_path):
    code = run_experiment({"kind": "mc-check", "seed": 20260823},
                          str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    agree = summary["checks"][0]["agree"]
    verdict(6, "Monte Carlo survival matches the adjoint PDE at >= 4/5 "
               "probes (3 error bars)",
            code == 0, f"agree={agree}/5")


def test_07_vanishing_diffusion_limit(verdict, sweep_summary):
    code, summary = sweep_summary
    checks = {c["name"]: c for c in summary["checks"]}
    ok = (checks["tail_distance_decreasing"]["passed"]
          and checks["L_gap_decreasing"]["passed"])
    verdict(7, "tail distance and L gap strictly decrease down the eps "
               "ladder", ok,
            f"tails={checks['tail_distance_decreasing']['values']}")


def test_08_coarsening_rate_limit(verdict, sweep_summary):
    code, summary = sweep_summary
    checks = {c["name"]: c for c in summary["checks"]}
    ok = (checks["rate_gap_decreasing"]["passed"]
          and checks["classical_rate_consistency"]["passed"])
    verdict(8, "rate gap decreases down the ladder; FD and semi-analytic "
               "rates agree within 1%", ok,
            f"rel_err={checks['classical_rate_consistency']['rel_err']:.2e}")


def test_09_coarsening_inequalities(verdict, coarsening_long_run):
    series = coarsening_long_run[0]
    report = kohn_otto_report(series)
    ok = (report["E_nonincreasing"] and report["EM_at_least_one"]
          and report["rate_ratio_bounded"] and report["R_bounded"])
    verdict(9, "long coarsening run satisfies the energy/scale rate bounds",
            ok, f"EM_min={report['EM_min']:.6f}")


def test_10_monotone_functionals(verdict, bd_dirichlet_run,
                                 classical_exponential_run, diffusive_run,
                                 coarsening_long_run):
    ok = True
    details = []
    for label, series in (
        ("bd", bd_dirichlet_run[0]),
        ("classical", classical_exponential_run[0]),
        ("diffusive", diffusive_run[0]),
        ("diffusive-long", coarsening_long_run[0]),
    ):
        lam = series.column("Lambda")
        mono = diagnostics.nondecreasing("Lambda_nondecreasing", lam, rtol=1e-10)["passed"]
        below = diagnostics.bounded("L_below_Lambda", series.column("L"), lam,
                                    rtol=1e-8)["passed"]
        ok = ok and mono and below
        details.append(f"{label}:{'ok' if mono and below else 'BAD'}")
    verdict(10, "Lambda nondecreasing and L <= Lambda on every reference run",
            ok, " ".join(details))


def test_11_dilation_covariance(verdict, classical_exponential_run,
                                classical_dilated_run):
    lam = 2.0  # the dilation of classical_dilated_run
    # classical pairing: (t_end 0.5, dt 0.0125) against the dilated data on
    # (t_end 0.25, dt 0.00625)
    base = classical_exponential_run[0]
    scaled = classical_dilated_run[0]
    err_cls = abs(lam * float(scaled.column("L")[-1])
                  - float(base.column("L")[-1]))
    # diffusive pairing (eps, data) vs (eps/lam, dilated data)
    d_base_cfg = DiffusiveRunConfig(
        tail=initial_data.exponential_moment(), eps=0.2, t_end=1.0,
        n_cells=256, x_max=20.0,
    )
    d_base, _, _, _ = run_diffusive(d_base_cfg)
    d_scaled_cfg = DiffusiveRunConfig(
        tail=initial_data.dilated(d_base_cfg.tail, lam),
        eps=d_base_cfg.eps / lam, t_end=d_base_cfg.t_end / lam,
        n_cells=256, x_max=20.0 / lam, output_stride=0.1 / lam,
    )
    d_scaled, _, _, _ = run_diffusive(d_scaled_cfg)
    err_diff = abs(lam * float(d_scaled.column("L")[-1])
                   - float(d_base.column("L")[-1]))
    verdict(11, "dilation covariance: classical within 1e-4, diffusive "
                "within 1e-3",
            err_cls <= 1e-4 and err_diff <= 1e-3,
            f"classical={err_cls:.3e} diffusive={err_diff:.3e}")


def test_12_determinism(verdict, tmp_path):
    def tree(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, root)] = Path(path).read_bytes()
        return out

    identical = True
    for label, cfg in (
        ("classical", {"kind": "classical", "t_end": 0.25}),
        ("mc-check", {"kind": "mc-check", "n_paths": 20_000, "dt": 2e-3,
                      "n_cells": 512, "probes": [0.5, 1.0], "seed": 7}),
    ):
        a = tmp_path / f"{label}_a"
        b = tmp_path / f"{label}_b"
        run_experiment(dict(cfg), str(a))
        run_experiment(dict(cfg), str(b))
        ta, tb = tree(a), tree(b)
        identical = identical and ta.keys() == tb.keys() and all(
            ta[k] == tb[k] for k in ta
        )
    verdict(12, "identical config + seed reproduces every artifact "
                "bit-for-bit", identical)

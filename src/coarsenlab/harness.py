"""Experiment orchestration: configs, runs, checks, and artifact output.

``KINDS`` maps each experiment kind to a parser that reads and validates
every field of its JSON config through one accessor, ``_get``, and returns
the run.  A run writes ``config.json`` (echo), ``series.csv``,
``snapshots/*.csv``, and ``summary.json`` with a per-check pass/fail list.
``run_experiment`` maps the outcome to the exit code in one place: 0 all
checks pass, 1 a check failed, 2 invalid config (a field missing, of the
wrong JSON type, or failing validation; nothing runs), 3 any exception while
running (``summary.json`` then records its type and message).
All outputs are deterministic for a given config and seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import reprlib
import sys
import traceback

import numpy as np

from . import bd as bd_mod
from . import diagnostics, initial_data, lsw_classical, lsw_diffusive, sde
from .diagnostics import write_csv
from .rates import RateModel, equilibrium_table

__all__ = [
    "KINDS",
    "ConfigError",
    "run_experiment",
    "tail_distance",
    "tail_quantile_probes",
]


class ConfigError(ValueError):
    pass


Outcome = tuple[list[dict], dict]  # (checks, details) of one run


# ---------------------------------------------------------------------------
# config access

_REQUIRED = object()
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object",
               (str, list): "a string or a list"}
_EXPONENTIAL = {"kind": "exponential-moment"}


def _is(value, kind) -> bool:
    """Whether a JSON value has type ``kind``; bools are not numbers."""
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _get(cfg: dict, name, kind, default=_REQUIRED, check=None):
    """Field ``name`` of ``cfg`` as JSON type ``kind``: the one config accessor.

    Raises ConfigError naming the field if it is missing and has no default,
    has another JSON type, or fails ``check``.  ``check`` sees the value (or
    the default) and raises ValueError to reject it; a non-None return
    replaces the value.  Reads nested inside a check are named by their path.
    """
    label = f"[{name}]" if isinstance(name, int) else name
    if name in cfg:
        value = cfg[name]
        if not _is(value, kind):
            raise ConfigError(f"{label}: expected {_TYPE_NAMES[kind]}, "
                              f"got {reprlib.repr(value)}")
        if kind is float:
            value = float(value)
    elif default is _REQUIRED:
        raise ConfigError(f"{label}: required field is missing")
    else:
        value = default
    if check is not None:
        try:
            checked = check(value)
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from None
        if checked is not None:
            value = checked
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _positive(value) -> None:
    _require(value > 0, f"must be positive, got {value!r}")


def _at_least(lo):
    return lambda value: _require(value >= lo, f"must be >= {lo}, got {value!r}")


def _one_of(*options):
    return lambda value: _require(value in options, f"must be one of {options}, got {value!r}")


def _items(kind, check=None):
    """Check for a list field: every item read as JSON type ``kind``."""
    def parse(values: list) -> list:
        indexed = dict(enumerate(values))
        return [_get(indexed, i, kind, check=check) for i in indexed]
    return parse


def _validated(run_cfg):
    """``run_cfg`` once its own ``validate()`` passes, as a config error if not."""
    try:
        run_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return run_cfg


def _initial_tail(spec: dict) -> initial_data.InitialTail:
    kind = _get(spec, "kind", str)
    if kind == "compact-bump":
        _get(spec, "a", float)
        _get(spec, "b", float)
    elif kind == "table":
        _get(spec, "x", list, check=_items(float))
        _get(spec, "c", list, check=_items(float))
    return initial_data.from_spec(spec)


# ---------------------------------------------------------------------------
# artifacts


def _write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_snapshot(out_dir: str, name: str, header: str, t: float,
                    x: np.ndarray, values: np.ndarray) -> None:
    """``snapshots/<name>`` with the rows (t, x_i, values_i)."""
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    write_csv(os.path.join(snap_dir, name), header,
              np.column_stack((np.full(len(x), t), x, values)))


def _check(name: str, passed: bool, **extra) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(extra)
    return entry


def tail_quantile_probes(tail: initial_data.InitialTail, n: int = 16) -> np.ndarray:
    """Probe positions where the initial tail crosses n evenly spaced levels."""
    n0 = tail.n0
    probes = []
    for k in range(1, n + 1):
        level = n0 * k / (n + 1)
        lo, hi = 0.0, tail.x_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(tail.w0(mid)) > level:
                lo = mid
            else:
                hi = mid
        probes.append(0.5 * (lo + hi))
    return np.array(sorted(probes))


def tail_distance(
    diffusive_solver: lsw_diffusive.DiffusiveSolver,
    cbar: np.ndarray,
    classical_solver: lsw_classical.ClassicalSolver,
    t: float,
    probes: np.ndarray,
) -> tuple[float, list[dict]]:
    """Sup over probes of |int_x^inf c_eps  -  w0(F(x,t))| plus the table."""
    tail_eps = diffusive_solver.tail_at(cbar, probes)
    tail_cls = np.atleast_1d(classical_solver.tail_value(probes, t))
    table = [
        {"x": float(x), "tail_diffusive": float(a), "tail_classical": float(b),
         "diff": float(a - b)}
        for x, a, b in zip(probes, tail_eps, tail_cls)
    ]
    return float(np.max(np.abs(tail_eps - tail_cls))), table


# ---------------------------------------------------------------------------
# bd experiment


def _bin(ell_max: int):
    """Check for one 'bins' entry [ell, value]; returns the pair."""
    def parse(pair: list) -> tuple[int, float]:
        _require(len(pair) == 2 and _is(pair[0], int) and _is(pair[1], float)
                 and 2 <= pair[0] <= ell_max and pair[1] >= 0,
                 f"expected [ell, value] with 2 <= ell <= {ell_max}, value >= 0")
        return pair[0], float(pair[1])
    return parse


def _bd_initial(spec: dict, model: RateModel, ell_max: int) -> np.ndarray:
    """gamma_ell on ell = 1..ell_max from an 'equilibrium' or a 'bins' spec."""
    kind = _get(spec, "kind", str, check=_one_of("equilibrium", "bins"))
    if kind == "equilibrium":
        c1 = _get(spec, "c1", float, 0.9 * model.z_s, check=lambda v: _require(
            0 < v <= model.z_s, "must lie in (0, z_s]"))
        return equilibrium_table(model, ell_max).density(c1)
    gamma = np.zeros(ell_max)
    for ell, value in _get(spec, "entries", list, check=_items(list, _bin(ell_max))):
        gamma[ell - 1] = value
    mass = float(np.arange(1, ell_max + 1) @ gamma)
    _require(mass > 0, "entries: carry no mass")
    return gamma / mass  # Dirichlet normalization: unit mass on ell >= 2


def _bd_closure(spec: dict) -> tuple[str, float | None]:
    kind = _get(spec, "type", str, check=_one_of("full", "dirichlet"))
    return kind, _get(spec, "rho", float, None)


def _parse_bd(cfg: dict, seed: int, refine: bool):
    model = _get(cfg, "model", dict, {}, check=lambda m: RateModel(
        *(_get(m, name, float, 1.0) for name in ("a1", "z_s", "q"))))
    closure_kind, rho = _get(cfg, "closure", dict, {"type": "dirichlet"}, check=_bd_closure)
    ell_max = _get(cfg, "ell_max", int, 400, check=_at_least(3))
    gamma = _get(cfg, "initial", dict,
                 check=lambda spec: _bd_initial(spec, model, ell_max))
    if closure_kind == "full":
        mass = float(np.arange(1, ell_max + 1) @ gamma)
        closure = bd_mod.FullClosure(rho=mass if rho is None else rho)
    else:
        gamma[0] = 0.0
        closure = bd_mod.DirichletClosure()
    bound = bd_mod.truncation_bound(closure.rho if closure_kind == "full" else 1.0, ell_max)
    _require(gamma[-1] <= bound,
             f"ell_max: the initial density there, {gamma[-1]:.3e}, already exceeds "
             f"the truncation bound {bound:.3e}; increase ell_max")
    return functools.partial(_run_bd, _validated(bd_mod.BdRunConfig(
        model=model,
        closure=closure,
        initial=gamma,
        t_end=_get(cfg, "t_end", float, 10.0),
        dt_init=_get(cfg, "dt_init", float, 1e-3),
        scheme=_get(cfg, "scheme", str, "semi-implicit"),
        output_stride=_get(cfg, "output_stride", float, 0.5),
    )))


def _run_bd(run_cfg: bd_mod.BdRunConfig, out_dir: str) -> Outcome:
    series, snapshots = bd_mod.run_bd(run_cfg)
    series.write_csv(os.path.join(out_dir, "series.csv"),
                     ["mass", "c1", "g", "Lambda"])
    for idx, (t, c) in enumerate(snapshots):
        _write_snapshot(out_dir, f"bd_{idx:04d}.csv", "t,ell,c", t,
                        np.arange(1, len(c) + 1), c)

    full = isinstance(run_cfg.closure, bd_mod.FullClosure)
    mass = series.column("mass")
    mass_ref = run_cfg.closure.rho if full else 1.0
    drift = float(np.max(np.abs(mass - mass_ref)))
    checks = [
        _check("mass_conservation", drift <= 1e-8 * max(mass_ref, 1.0),
               max_drift=drift),
        _check("nonnegativity",
               min(float(np.min(c)) for _, c in snapshots) >= -1e-12),
    ]
    if not full:
        c1 = series.column("c1")
        g = series.column("g")
        checks.append(_check("c1_above_saturation", bool(np.all(c1 > run_cfg.model.z_s)),
                             min_c1=float(np.min(c1))))
        checks.append(_check("g_strictly_decreasing", bool(np.all(np.diff(g) < 0)),
                             g_first=float(g[0]), g_last=float(g[-1])))
    return checks, {"closure": "full" if full else "dirichlet",
                    "ell_max": len(run_cfg.initial), "mass_drift": drift}


# ---------------------------------------------------------------------------
# classical experiment


def _classical_config(cfg: dict) -> lsw_classical.ClassicalRunConfig:
    return _validated(lsw_classical.ClassicalRunConfig(
        tail=_get(cfg, "initial", dict, _EXPONENTIAL, check=_initial_tail),
        t_end=_get(cfg, "t_end", float, 1.0),
        dt=_get(cfg, "dt", float, 0.0125),
        panels=_get(cfg, "panels", int, 24),
        nodes_per_panel=_get(cfg, "nodes_per_panel", int, 8),
    ))


def _parse_classical(cfg: dict, seed: int, refine: bool):
    return functools.partial(_run_classical, _classical_config(cfg))


def _run_classical(run_cfg: lsw_classical.ClassicalRunConfig, out_dir: str) -> Outcome:
    series, history, solver = lsw_classical.run_classical(run_cfg)
    series.write_csv(os.path.join(out_dir, "series.csv"),
                     ["L", "Lambda", "N", "mass_residual"])
    probes = tail_quantile_probes(run_cfg.tail)
    for idx, t in enumerate((0.0, run_cfg.t_end)):
        w = np.atleast_1d(solver.tail_value(probes, t))
        _write_snapshot(out_dir, f"tail_{idx:04d}.csv", "t,x,w", t, probes, w)
    lam = series.column("Lambda")
    big_l = series.column("L")
    resid = float(np.max(np.abs(series.column("mass_residual"))))
    checks = [
        _check("Lambda_nondecreasing", bool(np.all(np.diff(lam) >= -1e-12))),
        _check("L_below_Lambda", bool(np.all(big_l <= lam * (1 + 1e-10)))),
        _check("mass_residual", resid <= 1e-6, max_residual=resid),
    ]
    return checks, {"L_end": float(big_l[-1]), "Lambda_end": float(lam[-1]),
                    "max_mass_residual": resid, "fp_iterations": sum(solver.fp_iterations),
                    "fp_iterations_max_step": max(solver.fp_iterations)}


# ---------------------------------------------------------------------------
# diffusive experiment


_STEP_BUDGET = 1e7  # diffusive steps a run may take at its initial CFL step


def _diffusive_config(cfg: dict) -> lsw_diffusive.DiffusiveRunConfig:
    # L always conserves mass; a config may still name that scheme
    _get(cfg, "l_mode", str, "conserve", check=_one_of("conserve"))
    run_cfg = _validated(lsw_diffusive.DiffusiveRunConfig(
        tail=_get(cfg, "initial", dict, _EXPONENTIAL, check=_initial_tail),
        eps=_get(cfg, "eps", float),
        t_end=_get(cfg, "t_end", float, 1.0),
        x_max=_get(cfg, "x_max", float, None),
        n_cells=_get(cfg, "n_cells", int, 512),
        limiter=_get(cfg, "limiter", bool, True),
        cfl=_get(cfg, "cfl", float, 0.5),
        output_stride=_get(cfg, "output_stride", float, 0.1),
        snapshot_times=tuple(_get(cfg, "snapshot_times", list, [], check=_items(float))),
    ))
    # the CFL step binds in the first cell, whose width scales with eps
    steps = run_cfg.t_end / lsw_diffusive.DiffusiveSolver(run_cfg)._dt()
    _require(steps <= _STEP_BUDGET,
             f"eps: {run_cfg.eps!r} needs about {steps:.2g} steps to reach t_end "
             f"{run_cfg.t_end!r}, over the budget of {_STEP_BUDGET:.0e}")
    return run_cfg


def _diffusive_checks(series: diagnostics.TrajectorySeries) -> list[dict]:
    lam = series.column("Lambda")
    big_l = series.column("L")
    resid = float(np.max(np.abs(series.column("mass_residual"))))
    checks = [
        _check("Lambda_nondecreasing", bool(np.all(np.diff(lam) >= -1e-10))),
        _check("L_below_Lambda", bool(np.all(big_l <= lam * (1 + 1e-8)))),
        _check("mass_conservation", resid <= 1e-8, max_residual=resid),
    ]
    e = series.column("E")
    checks.append(_check("E_nonincreasing",
                         bool(np.all(np.diff(e) <= 1e-12)),
                         E_first=float(e[0]), E_last=float(e[-1])))
    if len(series) >= 8:
        report = diagnostics.kohn_otto_report(series)
        checks.append(_check("EM_at_least_one", report["EM_at_least_one"],
                             EM_min=report["EM_min"]))
        checks.append(_check("rate_ratio_bounded", report["rate_ratio_bounded"],
                             rate_ratio_max=report["rate_ratio_max"]))
        checks.append(_check("R_ladder_bounded", report["R_bounded"],
                             ladder=report["R_ladder"]))
    return checks


def _parse_diffusive(cfg: dict, seed: int, refine: bool):
    return functools.partial(_run_diffusive, _diffusive_config(cfg))


def _run_diffusive(run_cfg: lsw_diffusive.DiffusiveRunConfig, out_dir: str) -> Outcome:
    series, history, snapshots, solver = lsw_diffusive.run_diffusive(run_cfg)
    series.write_csv(os.path.join(out_dir, "series.csv"),
                     ["L", "Lambda", "E", "M", "N", "mass_residual"])
    for idx, (t, cbar) in enumerate(snapshots):
        _write_snapshot(out_dir, f"density_{idx:04d}.csv", "t,x_center,c", t,
                        solver.grid.centers, cbar)
    checks = _diffusive_checks(series)
    return checks, {"eps": run_cfg.eps, "L_end": float(series.column("L")[-1]),
                    "Lambda_end": float(series.column("Lambda")[-1])}


# ---------------------------------------------------------------------------
# sweep experiment (diffusive -> classical limit)


def _eps_ladder(values: list) -> list[float]:
    ladder = _items(float)(values)
    _require(len(ladder) >= 2 and all(a > b for a, b in zip(ladder, ladder[1:]))
             and 0 < ladder[-1] and ladder[0] <= 1,
             "needs at least two strictly decreasing values in (0, 1]")
    return ladder


def _parse_sweep(cfg: dict, seed: int, refine: bool):
    ladder = _get(cfg, "eps_ladder", list, [0.2, 0.1, 0.05, 0.025], check=_eps_ladder)
    stride = _get(cfg, "output_stride", float, 0.05, check=_positive)

    def window(value) -> None:
        # the rate at T is a centered difference over two strides on each
        # side; the slack absorbs the rounding in the output times
        _require(value >= 2.0 * stride * (1.0 + 1e-9),
                 f"must exceed two output strides ({2.0 * stride!r}), got {value!r}")

    big_t = _get(cfg, "T", float, 1.0, check=window)
    t_end = big_t + _get(cfg, "t_margin", float, 0.25, check=window)
    _require(t_end > lsw_diffusive._T_SLACK, f"T + t_margin must exceed "
             f"{lsw_diffusive._T_SLACK:g}, or the diffusive runs take no step, got {t_end!r}")
    cls_cfg = _classical_config(
        {**cfg, "t_end": t_end, "dt": _get(cfg, "classical_dt", float, 0.0125, check=_positive)})
    diff_cfgs = [
        _diffusive_config({**cfg, "eps": eps, "t_end": t_end, "output_stride": stride,
                           "snapshot_times": [big_t]})
        for eps in ladder
    ]
    return functools.partial(_run_sweep, cls_cfg, diff_cfgs, big_t, stride)


def _run_sweep(cls_cfg: lsw_classical.ClassicalRunConfig,
               diff_cfgs: list[lsw_diffusive.DiffusiveRunConfig],
               big_t: float, stride: float, out_dir: str) -> Outcome:
    t_end = cls_cfg.t_end
    cls_series, _, cls_solver = lsw_classical.run_classical(cls_cfg)
    cls_series.write_csv(os.path.join(out_dir, "series.csv"),
                         ["L", "Lambda", "N", "mass_residual"])
    # resample the classical series onto the sweep stride for rate estimates
    cls_times = diagnostics.output_times(t_end, stride)
    cls_lambda = np.interp(cls_times, cls_series.times, cls_series.column("Lambda"))
    cls_for_rate = diagnostics.TrajectorySeries(
        times=cls_times, columns={"Lambda": cls_lambda}, provenance="sweep:classical"
    )
    rate_cls_fd, fd_smooth = diagnostics.coarsening_rate(cls_for_rate, big_t)
    rate_cls_sa = lsw_classical.rate_semi_analytic(cls_solver, big_t)
    rate_rel_err = abs(rate_cls_fd - rate_cls_sa) / abs(rate_cls_sa)

    probes = tail_quantile_probes(cls_cfg.tail)
    per_eps = []
    for run_cfg in diff_cfgs:
        series, _, snapshots, solver = lsw_diffusive.run_diffusive(run_cfg)
        t_snap, cbar = snapshots[0]
        dist, table = tail_distance(solver, cbar, cls_solver, big_t, probes)
        l_eps = np.interp(cls_series.times, series.times, series.column("L"))
        l_gap = float(np.max(np.abs(
            l_eps[cls_series.times <= big_t]
            - cls_series.column("L")[cls_series.times <= big_t]
        )))
        rate_eps, _ = diagnostics.coarsening_rate(series, big_t)
        per_eps.append({
            "eps": run_cfg.eps,
            "tail_distance": dist,
            "L_gap_max": l_gap,
            "rate_gap": abs(rate_eps - rate_cls_sa),
            "probe_table": table,
        })
        _write_snapshot(out_dir, f"density_eps{run_cfg.eps}.csv", "t,x_center,c", t_snap,
                        solver.grid.centers, cbar)

    dists = [row["tail_distance"] for row in per_eps]
    gaps = [row["L_gap_max"] for row in per_eps]
    rate_gaps = [row["rate_gap"] for row in per_eps]
    checks = [
        _check("tail_distance_decreasing",
               all(a > b for a, b in zip(dists, dists[1:])), values=dists),
        _check("L_gap_decreasing",
               all(a > b for a, b in zip(gaps, gaps[1:])), values=gaps),
        _check("rate_gap_decreasing",
               all(a > b for a, b in zip(rate_gaps, rate_gaps[1:])),
               values=rate_gaps),
        _check("classical_rate_consistency", rate_rel_err <= 0.01,
               fd=rate_cls_fd, semi_analytic=rate_cls_sa,
               rel_err=rate_rel_err, fd_window_smooth=fd_smooth),
    ]
    return checks, {"ladder": per_eps, "classical_rate_fd": rate_cls_fd,
                    "classical_rate_semi_analytic": rate_cls_sa}


# ---------------------------------------------------------------------------
# mc-check experiment


def _payoff(spec):
    """'one', 'cuberoot', or the JSON list ["indicator", x0] as a tuple."""
    if spec in ("one", "cuberoot"):
        return spec
    if isinstance(spec, list) and len(spec) == 2 and spec[0] == "indicator" \
            and _is(spec[1], float):
        return ("indicator", float(spec[1]))
    raise ConfigError(f'expected "one", "cuberoot" or ["indicator", x0], '
                      f"got {reprlib.repr(spec)}")


def _parse_mc(cfg: dict, seed: int, refine: bool):
    eps = _get(cfg, "eps", float, 0.25, check=_positive)
    big_t = _get(cfg, "T", float, 0.25, check=_positive)
    n_cells = _get(cfg, "n_cells", int, 1024, check=_at_least(2))
    mc_cfg = sde.McConfig(
        eps=eps,
        history=_get(cfg, "L", float, 1.0,
                     check=lambda v: diagnostics.LHistory.constant(v, big_t)),
        T=big_t,
        n_paths=_get(cfg, "n_paths", int, 200_000, check=_at_least(1)),
        dt=_get(cfg, "dt", float, 1e-3, check=_positive),
        seed=seed,
    )
    payoff = _get(cfg, "payoff", (str, list), "one", check=_payoff)
    x_max, grid = _get(cfg, "x_max", float, 30.0,
                       check=lambda v: (v, lsw_diffusive.Grid.log_graded(eps, v, n_cells)))

    def probes(values: list) -> list:
        # a path started at 0 is absorbed at once, and past x_max the adjoint
        # value is the last cell's: neither compares the two methods
        _require(len(values) > 0, "need at least one probe")
        return _items(float, check=lambda x0: _require(
            0.0 < x0 < x_max, f"must lie in (0, x_max = {x_max!r}), got {x0!r}"))(values)

    starts = _get(cfg, "probes", list, [0.25, 0.5, 1.0, 1.5, 2.5], check=probes)
    # probe i draws from the Philox key seed + i, which must stay below 2**128
    _require(seed + len(starts) <= 2**128,
             f"seed: the last probe's Philox key {seed + len(starts) - 1} reaches 2**128")
    return functools.partial(
        _run_mc, mc_cfg, payoff, starts, grid,
        _get(cfg, "grid_tol", float, 2e-3, check=_at_least(0.0)),
    )


def _run_mc(mc_cfg: sde.McConfig, payoff, probes: list[float],
            grid: lsw_diffusive.Grid, grid_tol: float,
            out_dir: str) -> Outcome:
    w_pde = lsw_diffusive.adjoint_solve(
        sde.payoff_function(payoff), mc_cfg.T, mc_cfg.history, mc_cfg.eps, grid)
    records = []
    agree = 0
    for i, x0 in enumerate(probes):
        est = sde.estimate_survival_payoff(
            dataclasses.replace(mc_cfg, seed=mc_cfg.seed + i), payoff, x0)
        pde_val = float(np.interp(x0, grid.centers, w_pde))
        gap = abs(est.mean - pde_val)
        band = 3.0 * (est.stderr + grid_tol)
        ok = gap <= band
        agree += ok
        records.append({
            "payoff": payoff, "x_start": x0, "T": mc_cfg.T, "eps": mc_cfg.eps,
            "n_paths": mc_cfg.n_paths, "mean": est.mean, "stderr": est.stderr,
            "seed": mc_cfg.seed + i, "pde": pde_val, "gap": gap, "band": band,
            "within_band": ok,
        })
    _write_json(os.path.join(out_dir, "mc_estimates.json"), records)
    checks = [
        _check("mc_vs_adjoint", agree >= max(1, len(probes) - 1),
               agree=agree, total=len(probes)),
    ]
    return checks, {"records": records}


# ---------------------------------------------------------------------------
# duality experiment


def _parse_duality(cfg: dict, seed: int, refine: bool):
    n_cells = _get(cfg, "n_cells", int, 2048)
    # T is the forward run's t_end; name T if it is too short for a step
    big_t = _get(cfg, "T", float, 0.5, check=lambda v: _require(
        v > lsw_diffusive._T_SLACK,
        f"must exceed {lsw_diffusive._T_SLACK:g}, or the run takes no step, got {v!r}"))
    base = {"eps": 0.25, "limiter": False, **cfg, "t_end": big_t,
            "output_stride": big_t, "snapshot_times": []}
    runs = [_diffusive_config({**base, "n_cells": n})
            for n in ((n_cells, 2 * n_cells) if refine else (n_cells,))]
    return functools.partial(
        _run_duality, runs,
        _get(cfg, "tolerance", float, 1e-4, check=_positive),
        _get(cfg, "indicator_x0", float, 1.0),
    )


def _duality_residuals(run_cfg: lsw_diffusive.DiffusiveRunConfig, x0_ind: float) -> dict:
    series, history, snapshots, solver = lsw_diffusive.run_diffusive(run_cfg)
    _, c_final = snapshots[-1]
    grid = solver.grid
    c0 = initial_data.cell_averages(run_cfg.tail, grid.edges)
    payoffs = {
        "one": np.ones(grid.n_cells),
        "cuberoot": np.cbrt(grid.centers),
        "indicator": lsw_diffusive.smoothed_indicator(grid, x0_ind),
    }
    w_t = np.column_stack(list(payoffs.values()))
    w_0 = lsw_diffusive.adjoint_solve(w_t, run_cfg.t_end, history, run_cfg.eps, grid)
    out = {}
    for j, name in enumerate(payoffs):
        lhs = float((w_t[:, j] * c_final) @ grid.widths)
        rhs = float((w_0[:, j] * c0) @ grid.widths)
        out[name] = {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}
    return out


def _run_duality(runs: list[lsw_diffusive.DiffusiveRunConfig], tol: float,
                 x0_ind: float, out_dir: str) -> Outcome:
    base = _duality_residuals(runs[0], x0_ind)
    checks = [
        _check(f"duality_residual_{name}", vals["residual"] <= tol,
               residual=vals["residual"], tolerance=tol)
        for name, vals in base.items()
    ]
    summary = {"n_cells": runs[0].n_cells, "residuals": base}
    if len(runs) > 1:
        fine = _duality_residuals(runs[1], x0_ind)
        ratios = {
            name: fine[name]["residual"] / max(base[name]["residual"], 1e-300)
            for name in base
        }
        checks.append(_check(
            "duality_residual_halving",
            0.35 <= ratios["one"] <= 0.65,
            ratios=ratios,
        ))
        summary["refined_residuals"] = fine
        summary["refinement_ratios"] = ratios
    return checks, summary


# ---------------------------------------------------------------------------
# entry point

# kind -> parser(config, seed, refine) returning the run, a callable of out_dir
KINDS = {
    "bd": _parse_bd,
    "classical": _parse_classical,
    "diffusive": _parse_diffusive,
    "sweep": _parse_sweep,
    "mc-check": _parse_mc,
    "duality": _parse_duality,
}


def run_experiment(config: dict, out_dir: str, seed: int | None = None,
                   refine: bool = False) -> int:
    """Parse, run and check one experiment; returns the process exit code."""
    try:
        _require(isinstance(config, dict), "config must be a JSON object")
        kind = _get(config, "kind", str, check=_one_of(*KINDS))
        seed_val = _get(config if seed is None else {"seed": seed}, "seed", int, 0,
                        check=_at_least(0))
        run = KINDS[kind](config, seed_val, refine)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2

    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), {**config, "seed": seed_val})
    try:
        checks, details = run(out_dir)
    except Exception as exc:
        traceback.print_exc()  # to stderr; stdout and summary.json get the short form
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(f"solver failure: {error['type']}: {error['message']}")
        _write_json(os.path.join(out_dir, "summary.json"),
                    {"kind": kind, "seed": seed_val, "error": error})
        return 3

    all_passed = all(c["passed"] for c in checks)
    summary = {
        "kind": kind,
        "seed": seed_val,
        "checks": checks,
        "all_passed": all_passed,
        "details": details,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}")
    return 0 if all_passed else 1

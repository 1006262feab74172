"""Experiment orchestration: configs, runs, checks, and artifact output.

``KINDS`` maps each experiment kind to its field table, key -> (JSON type,
default, check), and to its parser, which turns the values read by the table
into the run.  The tables take in the ``json`` fields of the run-config
dataclasses, whose ``validate()`` holds their checks.  A run writes
``config.json`` (the effective config: every field, defaults and derived
values filled in, and the seed), ``series.csv``, ``snapshots/*.csv``, and
``summary.json`` with a per-check pass/fail list.  ``run_experiment`` maps the
outcome to the exit code in one place: 0 all checks pass, 1 a check failed,
2 invalid config (a key outside the table, nested ones included, or a field
missing, of the wrong JSON type, or failing validation; nothing runs), 3 any
exception while running (``summary.json`` then records its type and message).
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
    "parse_config",
    "run_experiment",
    "tail_distance",
    "tail_quantile_probes",
]


class ConfigError(ValueError):
    pass


Outcome = tuple[list[dict], dict]  # (checks, details) of one run


# ---------------------------------------------------------------------------
# config access

_REQUIRED = dataclasses.MISSING  # the default of a field a config must set
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object",
               list[float]: "a list of finite numbers", list[list]: "a list of lists",
               (str, list): "a string or a list"}


def _is(value, kind) -> bool:
    """Whether a JSON value has type ``kind``; bools are not numbers."""
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _get(cfg: dict, name, kind, default=_REQUIRED, check=None):
    """Field ``name`` of ``cfg`` as JSON type ``kind``: the one config accessor.

    Raises ConfigError naming the field if it is missing and has no default,
    has another JSON type, or fails ``check``.  A ``list[item]`` is read item
    by item into a tuple.  ``check`` sees the value (or the default) and
    raises ValueError to reject it; a non-None return replaces the value.
    Reads nested inside a check are named by their path.
    """
    label = f"[{name}]" if isinstance(name, int) else name
    origin = getattr(kind, "__origin__", kind)
    if name in cfg:
        value = cfg[name]
        if not _is(value, origin):
            raise ConfigError(f"{label}: expected {_TYPE_NAMES[kind]}, "
                              f"got {reprlib.repr(value)}")
        if kind is float:
            value = float(value)
    elif default is _REQUIRED:
        raise ConfigError(f"{label}: required field is missing")
    else:
        value = default
    try:
        if origin is not kind:
            value = tuple(_get(dict(enumerate(value)), i, *kind.__args__)
                          for i in range(len(value)))
        checked = None if check is None else check(value)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None
    return value if checked is None else checked


def _read(cfg: dict, table: dict) -> dict:
    """Each field of ``table``, key -> ``_get``'s (kind, default, check), read
    from ``cfg`` with its default filled in; any other key of ``cfg`` is an error."""
    unknown = [repr(key) for key in cfg if key not in table]
    _require(not unknown, f"unknown key{'s' if len(unknown) > 1 else ''}: {', '.join(unknown)}")
    return {key: _get(cfg, key, *entry) for key, entry in table.items()}


def _table(cls, *drop: str) -> dict:
    """key -> (JSON type, default) of the fields of dataclass ``cls`` with ``json`` metadata."""
    return {f.name: (f.metadata["json"], f.default) for f in dataclasses.fields(cls)
            if "json" in f.metadata and f.name not in drop}


def _tagged(tag: str, tables: dict):
    """Check for an object whose string field ``tag`` picks its table in ``tables``."""
    def read(spec: dict) -> dict:
        return _read(spec, {tag: (str,), **tables[_get(spec, tag, str, check=_one_of(*tables))]})
    return read


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _positive(value) -> None:
    _require(value > 0, f"must be positive, got {value!r}")


def _at_least(lo):
    return lambda value: _require(value >= lo, f"must be >= {lo}, got {value!r}")


def _one_of(*options):
    return lambda value: _require(value in options, f"must be one of {options}, got {value!r}")


def _config(cls, values: dict, **fixed):
    """``cls`` of its fields in ``values`` and ``fixed``, once its ``validate()`` passes."""
    run_cfg = cls(**{**{key: values[key] for key in _table(cls) if key in values}, **fixed})
    try:
        run_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return run_cfg


# initial-data kind of the continuum experiments -> (its constructor, its fields)
_TAILS = {
    "exponential-moment": (initial_data.exponential_moment, {}),
    "compact-bump": (initial_data.compact_bump, {"a": (float,), "b": (float,)}),
    "table": (initial_data.tabulated, {"x": (list[float],), "c": (list[float],)}),
}
_INITIAL = (dict, {"kind": "exponential-moment"},
            _tagged("kind", {kind: fields for kind, (_, fields) in _TAILS.items()}))


def _tail(values: dict) -> initial_data.InitialTail:
    """The initial data of the read ``initial`` field of ``values``."""
    return _get(values, "initial", dict, check=lambda spec: _TAILS[spec["kind"]][0](
        **{key: value for key, value in spec.items() if key != "kind"}))


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
    return {"name": name, "passed": bool(passed), **extra}


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


def tail_distance(diffusive_solver: lsw_diffusive.DiffusiveSolver, cbar: np.ndarray,
                  classical_solver: lsw_classical.ClassicalSolver, t: float,
                  probes: np.ndarray) -> tuple[float, list[dict]]:
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


# bd initial kinds and closure types; a default of None is derived from the
# run: c1 is 0.9 z_s, rho the initial mass
_BD = {
    "model": (dict, {}, functools.partial(
        _read, table={name: (float, 1.0) for name in ("a1", "z_s", "q")})),
    "closure": (dict, {"type": "dirichlet"},
                _tagged("type", {"full": {"rho": (float, None)}, "dirichlet": {}})),
    "ell_max": (int, 400, _at_least(3)),
    "initial": (dict, _REQUIRED, _tagged("kind", {"equilibrium": {"c1": (float, None)},
                                                  "bins": {"entries": (list[list],)}})),
    **_table(bd_mod.BdRunConfig),
}


def _bd_initial(spec: dict, model: RateModel, ell_max: int) -> np.ndarray:
    """gamma_ell on ell = 1..ell_max from a read 'initial' spec; fills in its c1."""
    if spec["kind"] == "equilibrium":
        spec["c1"] = 0.9 * model.z_s if spec["c1"] is None else spec["c1"]
        _require(0 < spec["c1"] <= model.z_s, "c1: must lie in (0, z_s]")
        return equilibrium_table(model, ell_max).density(spec["c1"])
    gamma = np.zeros(ell_max)
    for i, pair in enumerate(spec["entries"]):
        _require(len(pair) == 2 and _is(pair[0], int) and _is(pair[1], float)
                 and 2 <= pair[0] <= ell_max and pair[1] >= 0,
                 f"entries: [{i}]: expected [ell, value] with 2 <= ell <= {ell_max}, value >= 0")
        gamma[pair[0] - 1] = pair[1]
    mass = float(np.arange(1, ell_max + 1) @ gamma)
    _require(mass > 0, "entries: carry no mass")
    return gamma / mass  # Dirichlet normalization: unit mass on ell >= 2


def _parse_bd(values: dict, refine: bool):
    model = _get(values, "model", dict, check=lambda spec: RateModel(**spec))
    ell_max = values["ell_max"]
    gamma = _get(values, "initial", dict, check=lambda spec: _bd_initial(spec, model, ell_max))
    closure = values["closure"]
    full = closure["type"] == "full"
    if full and closure["rho"] is None:
        closure["rho"] = float(np.arange(1, ell_max + 1) @ gamma)
    if not full:
        gamma[0] = 0.0
    bound = bd_mod.truncation_bound(closure["rho"] if full else 1.0, ell_max)
    _require(gamma[-1] <= bound,
             f"ell_max: the initial density there, {gamma[-1]:.3e}, already exceeds "
             f"the truncation bound {bound:.3e}; increase ell_max")
    return functools.partial(_run_bd, _config(
        bd_mod.BdRunConfig, values, model=model, initial=gamma,
        closure=bd_mod.FullClosure(closure["rho"]) if full else bd_mod.DirichletClosure()))


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


_CLASSICAL = {"initial": _INITIAL, **_table(lsw_classical.ClassicalRunConfig)}


def _parse_classical(values: dict, refine: bool):
    return functools.partial(_run_classical, _config(
        lsw_classical.ClassicalRunConfig, values, tail=_tail(values)))


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


_DIFFUSIVE = {
    "initial": _INITIAL,
    **_table(lsw_diffusive.DiffusiveRunConfig),
    # L always conserves mass; a config may still name that scheme
    "l_mode": (str, "conserve", _one_of("conserve")),
}


def _diffusive_config(values: dict, tail: initial_data.InitialTail,
                      **fixed) -> lsw_diffusive.DiffusiveRunConfig:
    run_cfg = _config(lsw_diffusive.DiffusiveRunConfig, values, tail=tail, **fixed)
    # the CFL step binds in the first cell, whose width scales with eps
    steps = run_cfg.t_end / lsw_diffusive.DiffusiveSolver(run_cfg)._dt()
    _require(steps <= _STEP_BUDGET,
             f"eps: {run_cfg.eps!r} needs about {steps:.2g} steps to reach t_end "
             f"{run_cfg.t_end!r}, over the budget of {_STEP_BUDGET:.0e}")
    values["x_max"] = run_cfg.grid_x_max  # recorded as the grid has it
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


def _parse_diffusive(values: dict, refine: bool):
    return functools.partial(_run_diffusive, _diffusive_config(values, _tail(values)))


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


# the classical and diffusive fields a sweep does not set itself
_SWEEP = {
    "initial": _INITIAL,
    **_table(lsw_classical.ClassicalRunConfig, "t_end", "dt"),
    **_table(lsw_diffusive.DiffusiveRunConfig, "eps", "t_end", "output_stride", "snapshot_times"),
    "eps_ladder": (list[float], (0.2, 0.1, 0.05, 0.025), lambda ladder: _require(
        len(ladder) >= 2 and all(a > b for a, b in zip(ladder, ladder[1:]))
        and 0 < ladder[-1] and ladder[0] <= 1,
        "needs at least two strictly decreasing values in (0, 1]")),
    "T": (float, 1.0),
    "t_margin": (float, 0.25),
    "output_stride": (float, 0.05),
    "classical_dt": (float, lsw_classical.ClassicalRunConfig.dt, _positive),
}


def _parse_sweep(values: dict, refine: bool):
    stride, big_t, tail = values["output_stride"], values["T"], _tail(values)
    for name in ("T", "t_margin"):
        # the rate at T is a centered difference over two strides on each
        # side; the slack absorbs the rounding in the output times
        _require(values[name] >= 2.0 * stride * (1.0 + 1e-9),
                 f"{name}: must exceed two output strides ({2.0 * stride!r}), "
                 f"got {values[name]!r}")
    t_end = big_t + values["t_margin"]
    _require(t_end > diagnostics.T_SLACK, f"T + t_margin must exceed "
             f"{diagnostics.T_SLACK:g}, or the diffusive runs take no step, got {t_end!r}")
    cls_cfg = _config(lsw_classical.ClassicalRunConfig, values, tail=tail, t_end=t_end,
                      dt=values["classical_dt"])
    diff_cfgs = [_diffusive_config(values, tail, eps=eps, t_end=t_end, output_stride=stride,
                                   snapshot_times=(big_t,))
                 for eps in values["eps_ladder"]]
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
        times=cls_times, columns={"Lambda": cls_lambda}, provenance="sweep:classical")
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
        before = cls_series.times <= big_t
        l_gap = float(np.max(np.abs(l_eps[before] - cls_series.column("L")[before])))
        rate_eps, _ = diagnostics.coarsening_rate(series, big_t)
        per_eps.append({"eps": run_cfg.eps, "tail_distance": dist, "L_gap_max": l_gap,
                        "rate_gap": abs(rate_eps - rate_cls_sa), "probe_table": table})
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


_MC = {
    "eps": (float, 0.25, _positive),
    "T": (float, 0.25, _positive),
    "n_cells": (int, 1024, _at_least(2)),
    "L": (float, 1.0),
    "n_paths": (int, 200_000, _at_least(1)),
    "dt": (float, 1e-3, _positive),
    "payoff": ((str, list), "one", _payoff),
    "x_max": (float, 30.0),
    "probes": (list[float], (0.25, 0.5, 1.0, 1.5, 2.5)),
    "grid_tol": (float, 2e-3, _at_least(0.0)),
}


def _parse_mc(values: dict, refine: bool):
    eps, big_t, x_max, seed = values["eps"], values["T"], values["x_max"], values["seed"]
    mc_cfg = sde.McConfig(eps=eps, T=big_t, n_paths=values["n_paths"], dt=values["dt"],
                          seed=seed, history=_get(values, "L", float, check=lambda v: (
                              diagnostics.LHistory.constant(v, big_t))))
    grid = _get(values, "x_max", float, check=lambda v: lsw_diffusive.Grid.log_graded(
        eps, v, values["n_cells"]))
    # a path started at 0 is absorbed at once, and past x_max the adjoint
    # value is the last cell's: neither compares the two methods
    starts = values["probes"]
    _require(len(starts) > 0 and all(0.0 < x0 < x_max for x0 in starts),
             f"probes: need at least one, each in (0, x_max = {x_max!r}), got {starts!r}")
    # probe i draws from the Philox key seed + i, which must stay below 2**128
    _require(seed + len(starts) <= 2**128,
             f"seed: the last probe's Philox key {seed + len(starts) - 1} reaches 2**128")
    return functools.partial(_run_mc, mc_cfg, values["payoff"], starts, grid,
                             values["grid_tol"])


def _run_mc(mc_cfg: sde.McConfig, payoff, probes: list[float], grid: lsw_diffusive.Grid,
            grid_tol: float, out_dir: str) -> Outcome:
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
    return [_check("mc_vs_adjoint", agree >= max(1, len(probes) - 1), agree=agree,
                   total=len(probes))], {"records": records}


# ---------------------------------------------------------------------------
# duality experiment


# the diffusive fields a duality run does not fix: the adjoint is the
# transpose of the unlimited operator, and the forward run ends at T
_DUALITY = {
    "initial": _INITIAL,
    **_table(lsw_diffusive.DiffusiveRunConfig, "t_end", "output_stride", "snapshot_times",
             "limiter"),
    "eps": (float, 0.25),
    "n_cells": (int, 2048),
    # T is the forward run's t_end; name T if it is too short for a step
    "T": (float, 0.5, lambda v: _require(
        v > diagnostics.T_SLACK,
        f"must exceed {diagnostics.T_SLACK:g}, or the run takes no step, got {v!r}")),
    "tolerance": (float, 1e-4, _positive),
    "indicator_x0": (float, 1.0),
}


def _parse_duality(values: dict, refine: bool):
    big_t, n_cells, tail = values["T"], values["n_cells"], _tail(values)
    runs = [_diffusive_config(values, tail, t_end=big_t, output_stride=big_t, limiter=False,
                              n_cells=n)
            for n in ((n_cells, 2 * n_cells) if refine else (n_cells,))]
    return functools.partial(_run_duality, runs, values["tolerance"], values["indicator_x0"])


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
        ratios = {name: fine[name]["residual"] / max(base[name]["residual"], 1e-300)
                  for name in base}
        checks.append(_check("duality_residual_halving", 0.35 <= ratios["one"] <= 0.65,
                             ratios=ratios))
        summary["refined_residuals"] = fine
        summary["refinement_ratios"] = ratios
    return checks, summary


# ---------------------------------------------------------------------------
# entry point

# kind -> (its field table, its parser(values, refine) returning the run, a
# callable of out_dir); the parser may fill in derived values
KINDS = {
    "bd": (_BD, _parse_bd),
    "classical": (_CLASSICAL, _parse_classical),
    "diffusive": (_DIFFUSIVE, _parse_diffusive),
    "sweep": (_SWEEP, _parse_sweep),
    "mc-check": (_MC, _parse_mc),
    "duality": (_DUALITY, _parse_duality),
}


def parse_config(config: dict, seed: int | None = None, refine: bool = False):
    """(effective config, run) of ``config``; the run is a callable of out_dir.

    ``seed``, if given, replaces the config's.  Raises ConfigError.
    """
    _require(isinstance(config, dict), "config must be a JSON object")
    table, parse = KINDS[_get(config, "kind", str, check=_one_of(*KINDS))]
    values = _read(config if seed is None else {**config, "seed": seed},
                   {"kind": (str,), "seed": (int, 0, _at_least(0)), **table})
    return values, parse(values, refine)


def run_experiment(config: dict, out_dir: str, seed: int | None = None,
                   refine: bool = False) -> int:
    """Parse, run and check one experiment; returns the process exit code."""
    try:
        values, run = parse_config(config, seed, refine)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2

    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"), values)
    summary = {"kind": values["kind"], "seed": values["seed"]}
    try:
        checks, details = run(out_dir)
    except Exception as exc:
        traceback.print_exc()  # to stderr; stdout and summary.json get the short form
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(f"solver failure: {error['type']}: {error['message']}")
        _write_json(os.path.join(out_dir, "summary.json"), {**summary, "error": error})
        return 3

    all_passed = all(c["passed"] for c in checks)
    summary.update(checks=checks, all_passed=all_passed, details=details)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}")
    return 0 if all_passed else 1

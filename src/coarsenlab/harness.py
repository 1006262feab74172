"""Experiment orchestration: configs, runs, checks, and artifact output.

``KINDS`` maps each experiment kind to its field table, key -> (JSON type,
default, check), and to its parser, which turns the values read by the table
into the run.  The tables take in the ``json`` fields of the run-config
dataclasses, whose ``validate()`` holds their checks.  A run writes
``config.json`` (the effective config: every field, defaults and derived
values filled in, and the seed), ``series.csv``, ``snapshots/*.csv``, and
``summary.json`` with a per-check pass/fail list; each check is a ``diagnostics``
invariant, and a kind that checks columns lists them as rows.  ``run_experiment`` maps the
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
from .diagnostics import (above, bounded, check, max_drift, nondecreasing, nonincreasing,
                          run_checks, strictly_decreasing, write_csv)
from .rates import RateModel, equilibrium_table

__all__ = [
    "KINDS",
    "ConfigError",
    "parse_config",
    "run_experiment",
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
    try:
        run_cfg = cls(**{**{key: values[key] for key in _table(cls) if key in values}, **fixed})
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


def _write_snapshots(out_dir: str, header: str, x: np.ndarray, snapshots) -> None:
    """``snapshots/<name>`` with the rows (t, x_i, values_i) for each (name, t, values).

    ``x`` is formatted once for every file, and ``t`` once per file.
    """
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    x_cells = [repr(v) + "," for v in np.asarray(x, dtype=float).tolist()]
    for name, t, values in snapshots:
        t_cell = repr(float(t)) + ","
        write_csv(os.path.join(snap_dir, name), header, np.asarray(values, dtype=float)[:, None],
                  [t_cell + x_cell for x_cell in x_cells])


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


# ---------------------------------------------------------------------------
# bd experiment


# bd closure types, which take no fields, and initial kinds; c1 defaults to 0.9 z_s
_CLOSURES = {cls.name: cls for cls in (bd_mod.FullClosure, bd_mod.DirichletClosure)}
_BD = {
    "model": (dict, {}, functools.partial(
        _read, table={name: (float, 1.0) for name in ("a1", "z_s", "q")})),
    "closure": (dict, {"type": "dirichlet"}, _tagged("type", dict.fromkeys(_CLOSURES, {}))),
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
    return gamma / mass  # unit mass, all on ell >= 2


def _parse_bd(values: dict, refine: bool):
    model = _get(values, "model", dict, check=lambda spec: RateModel(**spec))
    ell_max = values["ell_max"]
    gamma = _get(values, "initial", dict, check=lambda spec: _bd_initial(spec, model, ell_max))
    closure, gamma = _CLOSURES[values["closure"]["type"]].for_data(gamma)
    return functools.partial(_run_bd, _config(
        bd_mod.BdRunConfig, values, model=model, initial=gamma, closure=closure))


# the columns a bd run is checked on: its series, "c_min" the least density of
# each snapshot, "mass_ref" the closure's mass and "z_s"
_BD_CHECKS = [
    ("mass_conservation", max_drift, ("mass", "mass_ref"), {"tol": 1e-8}),
    ("nonnegativity", bounded, ("c_min",), {"lo": -1e-12}),
]
# under the full closure L is undefined while c1 <= z_s, and nucleation may
# lower Lambda, so these hold only for the Dirichlet closure
_DIRICHLET_CHECKS = _BD_CHECKS + [
    ("c1_above_saturation", above, ("c1", "z_s"), {"label": "c1"}),
    ("g_strictly_decreasing", strictly_decreasing, ("g",), {"label": "g"}),
    ("Lambda_nondecreasing", nondecreasing, ("Lambda",), {"rtol": 1e-10}),
    ("L_below_Lambda", bounded, ("L", "Lambda"), {"rtol": 1e-8}),
]


def _run_bd(run_cfg: bd_mod.BdRunConfig, out_dir: str) -> Outcome:
    series, snapshots, neg_log = bd_mod.run_bd(run_cfg)
    series.write_csv(os.path.join(out_dir, "series.csv"),
                     ["mass", "c1", "g", "Lambda"])
    _write_snapshots(out_dir, "t,ell,c", np.arange(1, len(run_cfg.initial) + 1),
                     ((f"bd_{idx:04d}.csv", t, c) for idx, (t, c) in enumerate(snapshots)))
    closure = run_cfg.closure
    checks = run_checks(_BD_CHECKS if closure.name == "full" else _DIRICHLET_CHECKS, {
        **series.columns, "c_min": np.array([c.min() for _, c in snapshots]),
        "mass_ref": closure.mass, "z_s": run_cfg.model.z_s})
    return checks, {"closure": closure.name, "ell_max": len(run_cfg.initial),
                    "mass_drift": checks[0]["max_drift"], "neg_clips": len(neg_log),
                    "neg_clip_min": min(neg_log, default=0.0)}


# ---------------------------------------------------------------------------
# classical experiment


_CLASSICAL = {"initial": _INITIAL, **_table(lsw_classical.ClassicalRunConfig)}
_CLASSICAL_CHECKS = [
    ("Lambda_nondecreasing", nondecreasing, ("Lambda",), {"atol": 1e-12}),
    ("L_below_Lambda", bounded, ("L", "Lambda"), {"rtol": 1e-10}),
    ("mass_residual", max_drift, ("mass_residual",), {"tol": 1e-6}),
]


def _parse_classical(values: dict, refine: bool):
    return functools.partial(_run_classical, _config(
        lsw_classical.ClassicalRunConfig, values, tail=_tail(values)))


def _run_classical(run_cfg: lsw_classical.ClassicalRunConfig, out_dir: str) -> Outcome:
    series, history, solver = lsw_classical.run_classical(run_cfg)
    series.write_csv(os.path.join(out_dir, "series.csv"),
                     ["L", "Lambda", "N", "mass_residual"])
    probes = tail_quantile_probes(run_cfg.tail)
    _write_snapshots(out_dir, "t,x,w", probes,
                     ((f"tail_{idx:04d}.csv", t, np.atleast_1d(solver.tail_value(probes, t)))
                      for idx, t in enumerate((0.0, run_cfg.t_end))))
    checks = run_checks(_CLASSICAL_CHECKS, series.columns)
    return checks, {"L_end": float(series.column("L")[-1]),
                    "Lambda_end": float(series.column("Lambda")[-1]),
                    "max_mass_residual": checks[-1]["max_residual"],
                    "fp_iterations": sum(solver.fp_iterations),
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


# then, on a series of at least 8 rows, three verdicts of diagnostics.kohn_otto_report
_DIFFUSIVE_CHECKS = [
    ("Lambda_nondecreasing", nondecreasing, ("Lambda",), {"atol": 1e-10}),
    ("L_below_Lambda", bounded, ("L", "Lambda"), {"rtol": 1e-8}),
    ("mass_conservation", max_drift, ("mass_residual",), {"tol": 1e-8}),
    ("E_nonincreasing", nonincreasing, ("E",), {"atol": 1e-12, "label": "E"}),
]


def _parse_diffusive(values: dict, refine: bool):
    return functools.partial(_run_diffusive, _diffusive_config(values, _tail(values)))


def _run_diffusive(run_cfg: lsw_diffusive.DiffusiveRunConfig, out_dir: str) -> Outcome:
    series, history, snapshots, solver = lsw_diffusive.run_diffusive(run_cfg)
    series.write_csv(os.path.join(out_dir, "series.csv"),
                     ["L", "Lambda", "E", "M", "N", "mass_residual"])
    _write_snapshots(out_dir, "t,x_center,c", solver.grid.centers,
                     ((f"density_{idx:04d}.csv", t, cbar)
                      for idx, (t, cbar) in enumerate(snapshots)))
    checks = run_checks(_DIFFUSIVE_CHECKS, series.columns)
    if len(series) >= 8:
        report = diagnostics.kohn_otto_report(series)
        checks += [check("EM_at_least_one", report["EM_at_least_one"], EM_min=report["EM_min"]),
                   check("rate_ratio_bounded", report["rate_ratio_bounded"],
                         rate_ratio_max=report["rate_ratio_max"]),
                   check("R_ladder_bounded", report["R_bounded"], ladder=report["R_ladder"])]
    return checks, {"eps": run_cfg.eps, "L_end": float(series.column("L")[-1]),
                    "Lambda_end": float(series.column("Lambda")[-1]),
                    "neg_clips": len(solver.neg_clips),
                    "neg_clip_min": min(solver.neg_clips, default=0.0)}


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


# columns over the eps ladder, one value per run; and then the finite-difference
# classical rate within 1% of the semi-analytic one
_SWEEP_CHECKS = [
    ("tail_distance_decreasing", strictly_decreasing, ("tail_distance",), {}),
    ("L_gap_decreasing", strictly_decreasing, ("L_gap_max",), {}),
    ("rate_gap_decreasing", strictly_decreasing, ("rate_gap",), {}),
]


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

    # the tail distance at T: sup over probes of |int_x^inf c_eps - w0(F(x, T))|
    probes = tail_quantile_probes(cls_cfg.tail)
    tail_cls = np.atleast_1d(cls_solver.tail_value(probes, big_t))
    per_eps = []
    for run_cfg in diff_cfgs:
        series, _, snapshots, solver = lsw_diffusive.run_diffusive(run_cfg)
        t_snap, cbar = snapshots[0]
        tail_eps = solver.tail_at(cbar, probes)
        table = [{"x": float(x), "tail_diffusive": float(a), "tail_classical": float(b),
                  "diff": float(a - b)} for x, a, b in zip(probes, tail_eps, tail_cls)]
        dist = float(np.max(np.abs(tail_eps - tail_cls)))
        l_eps = np.interp(cls_series.times, series.times, series.column("L"))
        before = cls_series.times <= big_t
        l_gap = float(np.max(np.abs(l_eps[before] - cls_series.column("L")[before])))
        rate_eps, _ = diagnostics.coarsening_rate(series, big_t)
        per_eps.append({"eps": run_cfg.eps, "tail_distance": dist, "L_gap_max": l_gap,
                        "rate": rate_eps, "rate_gap": abs(rate_eps - rate_cls_sa),
                        "probe_table": table})
        _write_snapshots(out_dir, "t,x_center,c", solver.grid.centers,
                         [(f"density_eps{run_cfg.eps}.csv", t_snap, cbar)])

    checks = run_checks(_SWEEP_CHECKS, {key: [row[key] for row in per_eps] for key in per_eps[0]})
    checks.append(bounded("classical_rate_consistency", rate_rel_err, hi=0.01,
                          fd=rate_cls_fd, semi_analytic=rate_cls_sa,
                          rel_err=rate_rel_err, fd_window_smooth=fd_smooth))
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


def _grid_payoff(spec, grid: lsw_diffusive.Grid) -> np.ndarray:
    """A read payoff on the cell centers; an indicator is smoothed over its cell."""
    if isinstance(spec, tuple):
        return lsw_diffusive.smoothed_indicator(grid, spec[1])
    return sde.payoff_function(spec)(grid.centers)


_MC = {
    "eps": (float, 0.25, _positive),
    **_table(sde.McConfig),
    "n_cells": (int, 1024, _at_least(2)),
    "L": (float, 1.0),
    "payoff": ((str, list), "one", _payoff),
    "x_max": (float, 30.0),
    "probes": (list[float], (0.25, 0.5, 1.0, 1.5, 2.5)),
    "grid_tol": (float, 2e-3, _at_least(0.0)),
}


def _parse_mc(values: dict, refine: bool):
    eps, x_max, seed = values["eps"], values["x_max"], values["seed"]
    # McConfig checks T before L's history on [0, T] is built
    checked = _config(sde.McConfig, values, eps=eps, seed=seed, history=None)
    mc_cfg = _get(values, "L", float, check=lambda v: dataclasses.replace(
        checked, history=diagnostics.LHistory.constant(v, checked.T)))
    grid = _get(values, "x_max", float, check=lambda v: lsw_diffusive.Grid.log_graded(
        eps, v, values["n_cells"]))
    # a path started at 0 is absorbed at once, and past x_max the adjoint
    # value is the last cell's: neither compares the two methods
    starts = values["probes"]
    _require(len(starts) > 0 and all(0.0 < x0 < x_max for x0 in starts),
             f"probes: need at least one, each in (0, x_max = {x_max!r}), got {starts!r}")
    return functools.partial(_run_mc, mc_cfg, values["payoff"], starts, grid,
                             values["grid_tol"])


def _run_mc(mc_cfg: sde.McConfig, payoff, probes: list[float], grid: lsw_diffusive.Grid,
            grid_tol: float, out_dir: str) -> Outcome:
    w_pde = lsw_diffusive.adjoint_solve(
        _grid_payoff(payoff, grid), mc_cfg.T, mc_cfg.history, mc_cfg.eps, grid)
    records = []
    for i, x0 in enumerate(probes):
        est = sde.estimate_survival_payoff(
            dataclasses.replace(mc_cfg, seed=mc_cfg.seed + i), payoff, x0)
        pde_val = float(np.interp(x0, grid.centers, w_pde))
        gap = abs(est.mean - pde_val)
        band = 3.0 * (est.stderr + grid_tol)
        records.append({
            "payoff": payoff, "x_start": x0, "T": mc_cfg.T, "eps": mc_cfg.eps,
            "n_paths": mc_cfg.n_paths, "mean": est.mean, "stderr": est.stderr,
            "seed": mc_cfg.seed + i, "pde": pde_val, "gap": gap, "band": band,
            "within_band": bounded("within_band", gap, hi=band)["passed"],
        })
    _write_json(os.path.join(out_dir, "mc_estimates.json"), records)
    agree = sum(record["within_band"] for record in records)
    # every probe but one, and at least one, within its band
    return [bounded("mc_vs_adjoint", agree, lo=max(1, len(probes) - 1), agree=agree,
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
    # T is the forward run's t_end and output stride; name T if it is too short for a step
    "T": (float, 0.5, lambda v: diagnostics.check_window(v, v)),
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
    payoffs = {"one": "one", "cuberoot": "cuberoot", "indicator": ("indicator", x0_ind)}
    w_t = np.column_stack([_grid_payoff(spec, grid) for spec in payoffs.values()])
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
    checks = [bounded(f"duality_residual_{name}", vals["residual"], hi=tol,
                      residual=vals["residual"], tolerance=tol)
              for name, vals in base.items()]
    summary = {"n_cells": runs[0].n_cells, "residuals": base}
    if len(runs) > 1:
        fine = _duality_residuals(runs[1], x0_ind)
        ratios = {name: fine[name]["residual"] / max(base[name]["residual"], 1e-300)
                  for name in base}
        checks.append(bounded("duality_residual_halving", ratios["one"], lo=0.35, hi=0.65,
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

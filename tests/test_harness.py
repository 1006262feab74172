import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coarsenlab import bd, cli, harness, initial_data, lsw_diffusive
from coarsenlab.harness import KINDS, parse_config, run_experiment, tail_quantile_probes

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _read_header(path):
    with open(path) as fh:
        return fh.readline().strip()


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestTailProbes:
    def test_probes_hit_levels(self):
        tail = initial_data.exponential_moment()
        probes = tail_quantile_probes(tail, n=8)
        assert np.all(np.diff(probes) > 0)
        levels = tail.n0 * np.arange(8, 0, -1) / 9.0
        assert np.allclose(tail.w0(probes), levels, atol=1e-8)


# Malformed configs with one fault each: every one must exit 2 and name the
# faulty field, or each of the faulty fields (seed is read for every kind).
CONFIG_FAULTS = [
    # keys outside the kind's table, nested objects included
    ("classical", {"t_end": 0.05, "t_ned": 9, "dtt": 0.5}, ("t_ned", "dtt")),
    ("classical", {"initial": {"kind": "compact-bump", "a": 0.5, "b": 1.5, "width": 1.0}},
     "width"),
    ("bd", {"model": {"a1": 1.0, "zs": 1.0}, "initial": {"kind": "equilibrium"}}, "zs"),
    # a sweep sets eps and dt of its runs itself; a duality run fixes t_end and
    # the limiter
    ("sweep", {"eps": 0.3, "dt": 0.5}, ("eps", "dt")),
    ("duality", {"limiter": True}, "limiter"),
    ("duality", {"t_end": 1}, "t_end"),
    ("classical", {"initial": {"kind": "nope"}}, "initial"),
    ("diffusive", {}, "eps"),
    ("diffusive", {"eps": 0.2, "n_cells": "abc"}, "n_cells"),
    ("diffusive", {"eps": 0.2, "x_max": 0.05}, "x_max"),
    ("diffusive", {"eps": 0.2, "l_mode": "moment"}, "l_mode"),
    # the first CFL step is 3.1e-12, so reaching t_end would take 3.2e10 steps
    ("diffusive", {"eps": 1e-12, "n_cells": 16, "t_end": 0.1}, "eps"),
    ("duality", {"eps": 1e-12, "n_cells": 16}, "eps"),
    # at or below the run loop's slack no step is taken, and every check would pass
    ("diffusive", {"eps": 0.2, "n_cells": 16, "t_end": 1e-13}, "t_end"),
    ("duality", {"n_cells": 16, "T": 1e-13}, "T:"),
    ("bd", {"ell_max": 20, "initial": {"kind": "bins", "entries": [[2, 1.0]]},
            "t_end": 1e-15}, "t_end"),
    ("bd", {"ell_max": 20, "initial": {"kind": "bins", "entries": [[2, 1.0]]},
            "t_end": 1e-13}, "t_end"),
    # output times within the slack of each other would be reached by one step
    ("diffusive", {"eps": 0.2, "n_cells": 16, "t_end": 0.1, "output_stride": 1e-13},
     "output_stride"),
    ("duality", {"n_cells": 8}, "n_cells"),
    ("bd", {"initial": {"kind": "bins", "entries": [[2, "x"]]}}, "entries"),
    ("bd", {"closure": "full"}, "closure"),
    # the full closure conserves the initial mass; it takes no fields
    ("bd", {"closure": {"type": "full", "rho": 1.0}}, "rho"),
    # BD has one scheme; the old knob is an unknown key
    ("bd", {"scheme": "explicit-adaptive"}, "scheme"),
    # the equilibrium density at ell_max 60 is past the truncation bound
    ("bd", {"closure": {"type": "full"}, "ell_max": 60, "initial": {"kind": "equilibrium"}},
     "ell_max"),
    ("mc-check", {"n_paths": "abc"}, "n_paths"),
    ("mc-check", {"payoff": "nope"}, "payoff"),
    # McConfig checks T, n_paths and dt; T before L's history on [0, T] is built
    ("mc-check", {"T": -1.0}, "T -1.0"),
    ("mc-check", {"dt": 0.0}, "dt 0.0,"),
    ("mc-check", {"n_paths": 0}, "n_paths 0,"),
    ("mc-check", {"L": 1e-9}, "L:"),
    # nothing to compare: a probe absorbed at once, or past the adjoint grid
    ("mc-check", {"probes": []}, "probes"),
    ("mc-check", {"probes": [-1.0, 0.5]}, "probes"),
    ("mc-check", {"probes": [0.5, 40.0]}, "probes"),
    ("sweep", {"eps_ladder": "abc"}, "eps_ladder"),
    ("sweep", {"eps_ladder": [0.5, 1e-12], "n_cells": 16}, "eps:"),
    # the rate at T needs two output strides (0.05) on each side
    ("sweep", {"eps_ladder": [0.5, 0.25], "T": 0.2, "t_margin": 0.01, "n_cells": 16,
               "classical_dt": 0.05, "panels": 2, "nodes_per_panel": 2}, "t_margin"),
    ("sweep", {"eps_ladder": [0.5, 0.25], "T": 0.05, "t_margin": 0.25, "n_cells": 16,
               "classical_dt": 0.05, "panels": 2, "nodes_per_panel": 2}, "T"),
    # T and t_margin pass the stride check, but their sum is too short for a step
    ("sweep", {"output_stride": 1e-14, "T": 3e-14, "t_margin": 3e-14, "n_cells": 16},
     "T + t_margin"),
    ("classical", {"panels": "x"}, "panels"),
    ("classical", {"initial": {"kind": "compact-bump"}}, "initial"),
] + [
    (kind, {"seed": seed}, "seed")
    for kind in KINDS for seed in ("abc", [1], -5)
]


class TestConfigErrors:
    def test_unknown_kind(self, tmp_path):
        assert run_experiment({"kind": "nope"}, str(tmp_path)) == 2

    def test_bad_eps(self, tmp_path):
        cfg = {"kind": "diffusive", "eps": -1.0, "t_end": 1.0}
        assert run_experiment(cfg, str(tmp_path)) == 2

    def test_bad_bd_initial(self, tmp_path):
        cfg = {
            "kind": "bd",
            "initial": {"kind": "bins", "entries": [[1, 1.0]]},
        }
        assert run_experiment(cfg, str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "kind, fields, field", CONFIG_FAULTS,
        ids=[f"{k}-{json.dumps(f)}" for k, f, _ in CONFIG_FAULTS],
    )
    def test_exits_2_naming_the_field(self, kind, fields, field, tmp_path, capsys):
        assert run_experiment({"kind": kind, **fields}, str(tmp_path)) == 2
        out = capsys.readouterr().out
        assert out.startswith("config error:")
        assert all(name in out for name in ((field,) if isinstance(field, str) else field))
        assert not os.listdir(tmp_path)  # nothing runs, nothing is written

    def test_negative_seed_argument_exits_2(self, tmp_path, capsys):
        cfg = {"kind": "mc-check", "n_paths": 10, "T": 0.01, "dt": 0.005, "n_cells": 64}
        assert run_experiment(cfg, str(tmp_path), seed=-1) == 2
        assert "seed" in capsys.readouterr().out
        assert not os.listdir(tmp_path)

    def test_largest_philox_key_is_accepted(self):
        # 2**128 - 1 was the cap while a Philox key carried the seed; it still parses
        valid = {"kind": "mc-check", **TINY["mc-check"][0]}  # one probe
        parse_config(valid, seed=2**128 - 1)

    def test_seed_past_2_to_128_runs(self, tmp_path):
        # SeedSequence takes any nonnegative int as the Monte Carlo entropy
        cfg = {"kind": "mc-check", **TINY["mc-check"][0]}
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_experiment(cfg, str(first), seed=2**128 + 5) == 0
        assert run_experiment(cfg, str(second), seed=2**128 + 5) == 0
        assert _tree_bytes(first) == _tree_bytes(second)

    def test_cli_negative_seed_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_paths": 10, "T": 0.01, "dt": 0.005}))
        out = tmp_path / "out"
        assert cli.main(["mc-check", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().out
        assert not out.exists()

    def test_cli_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eps": 0.2, "x_max": 0.05}))
        assert cli.main(["diffusive", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2


# A tiny valid config per kind, the fields a mutation may delete (required,
# no default) and the fields that must be positive.
TINY = {
    "bd": ({"ell_max": 20, "initial": {"kind": "bins", "entries": [[2, 1.0]]},
            "t_end": 0.1, "dt_init": 1e-3, "output_stride": 0.1},
           ["initial"], ["ell_max", "t_end", "dt_init", "output_stride"]),
    "classical": ({"t_end": 0.05, "dt": 0.025, "panels": 2, "nodes_per_panel": 2},
                  [], ["t_end", "dt", "panels", "nodes_per_panel"]),
    "diffusive": ({"eps": 0.5, "t_end": 0.05, "n_cells": 16, "cfl": 0.5,
                   "output_stride": 0.05, "x_max": 10.0},
                  ["eps"], ["eps", "t_end", "n_cells", "cfl", "output_stride", "x_max"]),
    "sweep": ({"eps_ladder": [0.5, 0.25], "T": 0.2, "t_margin": 0.15,
               "output_stride": 0.05, "n_cells": 16, "classical_dt": 0.05,
               "panels": 2, "nodes_per_panel": 2},
              [], ["T", "t_margin", "output_stride", "n_cells", "classical_dt",
                   "panels", "nodes_per_panel"]),
    "mc-check": ({"eps": 0.25, "T": 0.01, "L": 1.0, "n_paths": 10, "dt": 0.005,
                  "probes": [1.0], "n_cells": 16, "x_max": 5.0},
                 [], ["eps", "T", "L", "n_paths", "dt", "n_cells", "x_max"]),
    "duality": ({"eps": 0.5, "T": 0.01, "n_cells": 16, "tolerance": 1e-4,
                 "x_max": 5.0},
                [], ["eps", "T", "n_cells", "tolerance", "x_max"]),
}

_SMALL_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), _SMALL_NUMBERS, st.text(max_size=4),
    st.lists(_SMALL_NUMBERS, max_size=2),
    st.dictionaries(st.text(max_size=2), _SMALL_NUMBERS, max_size=1),
)


def _same_json_type(value, like) -> bool:
    if isinstance(like, float):  # a number field also takes integers
        return type(value) in (int, float)
    return type(value) is type(like)


@st.composite
def _broken_config(draw, kind):
    """The tiny config of ``kind`` with one field deleted or made invalid."""
    valid, required, positive = TINY[kind]
    mutations = ([("delete", f) for f in required]
                 + [("retype", f) for f in valid]
                 + [("nonpositive", f) for f in positive])
    how, field = draw(st.sampled_from(mutations))
    cfg = {"kind": kind, **valid}
    if how == "delete":
        del cfg[field]
    elif how == "retype":
        cfg[field] = draw(_JSON_VALUES.filter(
            lambda v: not _same_json_type(v, valid[field])))
    else:
        cfg[field] = draw(st.one_of(st.integers(-3, 0), st.floats(-3.0, 0.0)))
    return field, cfg


class TestConfigProperties:
    @pytest.mark.parametrize("kind", list(TINY))
    def test_tiny_configs_are_valid(self, kind):
        # the mutations below start from configs that pass parsing
        parse_config({"kind": kind, **TINY[kind][0]})

    @pytest.mark.parametrize("kind", list(TINY))
    @given(data=st.data())
    def test_one_bad_field_exits_2(self, kind, data):
        field, cfg = data.draw(_broken_config(kind))
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            code = run_experiment(cfg, tmp)
        assert code == 2, (cfg, out.getvalue())
        assert field in out.getvalue()


_UNKNOWN_KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)


class TestEffectiveConfig:
    @pytest.mark.parametrize("kind", list(TINY))
    def test_rerun_from_config_json(self, kind, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        code = run_experiment({"kind": kind, **TINY[kind][0]}, str(first))
        recorded = json.load(open(first / "config.json"))
        assert set(recorded) == {"kind", "seed", *KINDS[kind][0]}
        assert run_experiment(recorded, str(second)) == code
        assert _tree_bytes(first) == _tree_bytes(second)

    def test_records_defaults(self):
        values, _ = parse_config({"kind": "classical", "t_end": 0.1})
        assert values == {"kind": "classical", "seed": 0,
                          "initial": {"kind": "exponential-moment"},
                          "t_end": 0.1, "dt": 0.0125, "panels": 24, "nodes_per_panel": 8}

    def test_records_derived_values(self):
        values, _ = parse_config({"kind": "diffusive", "eps": 0.5, "n_cells": 16})
        assert values["x_max"] == 45.0 + 4.0 * (1.0 + 1.0)  # exponential data, t_end 1
        values, _ = parse_config({"kind": "bd", "closure": {"type": "full"}, "ell_max": 100,
                                  "initial": {"kind": "equilibrium"}})
        assert values["initial"]["c1"] == 0.9

    @pytest.mark.parametrize("initial, label", [
        ({"kind": "exponential-moment"}, "exponential-moment"),
        ({"kind": "compact-bump", "a": 1, "b": 2}, "compact-bump[1.0,2.0]"),
    ])
    def test_initial_data_kinds(self, initial, label):
        values, run = parse_config({"kind": "classical", "initial": initial})
        assert run.args[0].tail.label == label
        assert values["initial"] == {key: value if key == "kind" else float(value)
                                     for key, value in initial.items()}

    @pytest.mark.parametrize("kind", list(TINY))
    @given(key=_UNKNOWN_KEYS, value=_JSON_VALUES)
    def test_unknown_key_exits_2(self, kind, key, value):
        assume(key not in ("kind", "seed", *KINDS[kind][0]))
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            target = os.path.join(tmp, "out")
            code = run_experiment({"kind": kind, **TINY[kind][0], key: value}, target)
            written = os.path.exists(target)
        assert code == 2 and not written
        assert out.getvalue().startswith("config error: unknown key") and repr(key) in out.getvalue()

    def test_readme_field_tables(self):
        # README.md holds one table per kind, "| `field` | JSON type | default |"
        def default(entry):
            if len(entry) < 2 or entry[1] is harness._REQUIRED:
                return "required"
            return "derived" if entry[1] is None else f"`{json.dumps(entry[1])}`"

        text = open(README).read()
        documented = {
            kind: [tuple(cell.strip() for cell in row.split("|")[1:4])
                   for row in body.splitlines()[2:]]
            for kind, body in re.findall(r"^#### `([a-z-]+)` fields\n\n((?:\|.*\n)+)", text, re.M)
        }
        assert documented == {
            kind: [(f"`{key}`", harness._TYPE_NAMES[entry[0]], default(entry))
                   for key, entry in table.items()]
            for kind, (table, _) in KINDS.items()
        }

    def test_readme_check_tables(self):
        # README.md holds one table per row list,
        # "| `check` | `invariant` | columns | tolerance |"
        def tolerance(keywords):
            return " ".join(f"`{key}={value!r}`" for key, value in keywords.items()
                            if key != "label") or "none"

        text = open(README).read()
        documented = {
            (kind, suffix): [tuple(cell.strip() for cell in row.split("|")[1:5])
                             for row in body.splitlines()[2:]]
            for kind, suffix, body in re.findall(
                r"^#### `([a-z-]+)` checks(.*)\n\n((?:\|.*\n)+)", text, re.M)
        }
        rows = {("bd", ", full closure"): harness._BD_CHECKS,
                ("bd", ", Dirichlet closure"): harness._DIRICHLET_CHECKS,
                ("classical", ""): harness._CLASSICAL_CHECKS,
                ("diffusive", ""): harness._DIFFUSIVE_CHECKS,
                ("sweep", ""): harness._SWEEP_CHECKS}
        assert documented == {
            key: [(f"`{name}`", f"`{invariant.__name__}`",
                   ", ".join(f"`{col}`" for col in columns), tolerance(keywords))
                  for name, invariant, columns, keywords in table]
            for key, table in rows.items()
        }


class TestSolverFailure:
    def test_unexpected_exception_exits_3(self, tmp_path, monkeypatch):
        def fail(config):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(lsw_diffusive, "run_diffusive", fail)
        assert run_experiment({"kind": "diffusive", "eps": 0.25}, str(tmp_path)) == 3
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["error"] == {"type": "ZeroDivisionError", "message": "injected"}

    @pytest.mark.parametrize("closure, rows", [
        ({"type": "full"}, harness._BD_CHECKS),
        ({"type": "dirichlet"}, harness._DIRICHLET_CHECKS)])
    def test_bd_checks_follow_the_closure(self, closure, rows, tmp_path):
        cfg = {"kind": "bd", **TINY["bd"][0], "closure": closure}
        assert run_experiment(cfg, str(tmp_path)) == 0
        checks = json.load(open(tmp_path / "summary.json"))["checks"]
        assert [check["name"] for check in checks] == [row[0] for row in rows]

    def test_saturated_bd_run(self, tmp_path):
        # mass parked at the truncation cutoff trips the saturation monitor
        cfg = {
            "kind": "bd",
            "ell_max": 20,
            "closure": {"type": "dirichlet"},
            "initial": {"kind": "bins", "entries": [[15, 1.0]]},
            "t_end": 20.0,
        }
        assert run_experiment(cfg, str(tmp_path)) == 3
        summary = json.load(open(tmp_path / "summary.json"))
        assert "error" in summary

    def test_saturated_bd_run_aborts_alike_under_both_schemes(self, tmp_path):
        # BD has one scheme now, which tests the density at the cutoff after
        # every step; the explicit scheme's abort it once matched is gone
        cfg = {"kind": "bd", "ell_max": 20, "closure": {"type": "dirichlet"},
               "initial": {"kind": "bins", "entries": [[15, 1.0]]}, "t_end": 20.0}
        assert run_experiment(cfg, str(tmp_path)) == 3
        error = json.load(open(tmp_path / "summary.json"))["error"]
        assert error["type"] == "BdRunError"
        number = r"\d[-+.\de]*"
        assert re.sub(number, "#", error["message"]) == \
            "truncation saturation: c_ell_max = # at t = #; increase ell_max"

    def test_unbracketed_conservative_L(self):
        # the mass defect is about -7e-284 at both ends of the first bracket;
        # their product underflows to 0, which must not pass for a sign change.
        # The harness refuses this eps before running (2.8e280 steps), so the
        # first step is taken on the solver itself
        solver = lsw_diffusive.DiffusiveSolver(lsw_diffusive.DiffusiveRunConfig(
            tail=initial_data.exponential_moment(), eps=1e-300, t_end=0.1, n_cells=16))
        with pytest.raises(RuntimeError, match="^could not bracket a root in"):
            solver.step(solver._dt())


class TestBdExperiment:
    def test_artifacts_and_checks(self, tmp_path):
        cfg = {
            "kind": "bd",
            "ell_max": 300,
            "closure": {"type": "dirichlet"},
            "initial": {"kind": "bins",
                        "entries": [[ell, 1.0] for ell in range(2, 21)]},
            "t_end": 5.0,
            "output_stride": 0.5,
        }
        code = run_experiment(cfg, str(tmp_path))
        assert code == 0
        assert _read_header(tmp_path / "series.csv") == "t,mass,c1,g,Lambda"
        snaps = sorted(os.listdir(tmp_path / "snapshots"))
        assert snaps
        assert _read_header(tmp_path / "snapshots" / snaps[0]) == "t,ell,c"
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["all_passed"]
        names = {c["name"] for c in summary["checks"]}
        assert {"mass_conservation", "c1_above_saturation",
                "g_strictly_decreasing"} <= names

    def test_equilibrium_initial_dirichlet_closure(self, tmp_path):
        # the default closure drops the monomers and scales the rest to unit mass
        cfg = {"kind": "bd", "initial": {"kind": "equilibrium"}, "t_end": 1.0}
        assert run_experiment(cfg, str(tmp_path)) == 0
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["details"]["closure"] == "dirichlet"
        assert len(summary["checks"]) == 6

    def test_equilibrium_initial_full_closure(self, tmp_path):
        cfg = {
            "kind": "bd",
            "ell_max": 100,
            "closure": {"type": "full"},
            "initial": {"kind": "equilibrium", "c1": 0.9},
            "t_end": 2.0,
        }
        assert run_experiment(cfg, str(tmp_path)) == 0


class TestClassicalExperiment:
    def test_artifacts_and_checks(self, tmp_path):
        cfg = {"kind": "classical", "t_end": 0.25}
        assert run_experiment(cfg, str(tmp_path)) == 0
        assert _read_header(tmp_path / "series.csv") == "t,L,Lambda,N,mass_residual"
        snaps = sorted(os.listdir(tmp_path / "snapshots"))
        assert _read_header(tmp_path / "snapshots" / snaps[0]) == "t,x,w"
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["all_passed"]

    @pytest.mark.parametrize("dt", [0.05, 0.02])
    def test_run_shorter_than_half_a_step(self, tmp_path, dt):
        # round(t_end / dt) is 0 here; the run takes one step of length t_end
        cfg = {"kind": "classical", "t_end": 0.01, "dt": dt}
        assert run_experiment(cfg, str(tmp_path)) == 0
        times = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)[:, 0]
        assert times.tolist() == [0.0, 0.01]


# t_end under a quarter of output_stride: the series holds t = 0 and t_end
@pytest.mark.parametrize("cfg", [
    {"kind": "bd", "ell_max": 100, "t_end": 0.1,
     "initial": {"kind": "bins", "entries": [[ell, 1] for ell in range(2, 11)]}},
    {"kind": "diffusive", "eps": 0.2, "n_cells": 64, "t_end": 0.02, "output_stride": 0.1},
], ids=["bd", "diffusive"])
def test_run_shorter_than_a_quarter_stride(cfg, tmp_path):
    assert run_experiment(cfg, str(tmp_path)) == 0
    times = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(times) == 2 and times[0] == 0.0
    assert times[1] == pytest.approx(cfg["t_end"], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("kind, solver", [("bd", bd), ("diffusive", lsw_diffusive)])
def test_summary_reports_negativity_clips(kind, solver, tmp_path, monkeypatch):
    def details(out):
        run_experiment({"kind": kind, **TINY[kind][0]}, str(tmp_path / out))
        summary = json.load(open(tmp_path / out / "summary.json"))["details"]
        return summary["neg_clips"], summary["neg_clip_min"]

    assert details("plain") == (0, 0.0)
    clip, calls = solver.clip_negatives, []

    def clipping(c, log):  # every step logs a clip, deeper than the one before
        calls.append(-1e-13 * (len(calls) + 1))
        log.append(calls[-1])
        return clip(c, log)

    monkeypatch.setattr(solver, "clip_negatives", clipping)
    assert details("clipped") == (len(calls), calls[-1])


class TestDiffusiveExperiment:
    def test_artifacts_and_checks(self, tmp_path):
        cfg = {
            "kind": "diffusive", "eps": 0.25, "t_end": 1.0,
            "n_cells": 128, "snapshot_times": [0.5],
        }
        assert run_experiment(cfg, str(tmp_path)) == 0
        assert _read_header(tmp_path / "series.csv") == \
            "t,L,Lambda,E,M,N,mass_residual"
        snaps = sorted(os.listdir(tmp_path / "snapshots"))
        assert _read_header(tmp_path / "snapshots" / snaps[0]) == "t,x_center,c"
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["all_passed"]


class TestMcExperiment:
    def test_small_run(self, tmp_path):
        cfg = {
            "kind": "mc-check", "eps": 0.25, "T": 0.25, "n_paths": 20_000,
            "dt": 2e-3, "n_cells": 512, "probes": [0.5, 1.0, 2.0],
            "seed": 5,
        }
        assert run_experiment(cfg, str(tmp_path)) == 0
        records = json.load(open(tmp_path / "mc_estimates.json"))
        assert len(records) == 3
        assert all(0.0 <= r["mean"] <= 1.0 for r in records)

    def test_indicator_payoff(self, tmp_path):
        # JSON has no tuples: ["indicator", x0] is the payoff 1_{x > x0}
        cfg = {
            "kind": "mc-check", "eps": 0.25, "T": 0.1, "n_paths": 2_000,
            "dt": 1e-2, "n_cells": 256, "probes": [1.5],
            "payoff": ["indicator", 1.0], "seed": 3,
        }
        assert run_experiment(cfg, str(tmp_path)) == 0
        (record,) = json.load(open(tmp_path / "mc_estimates.json"))
        assert record["payoff"] == ["indicator", 1.0]
        assert 0.0 < record["pde"] < 1.0

    def test_indicator_adjoint_converges_in_the_grid(self, tmp_path):
        # the adjoint's indicator is smoothed over the cell holding x0, so its
        # value at the probe x0 barely moves from 1,024 to 4,096 cells; sampled
        # sharp at the cell centers it was 1.7e-3 off at 1,024 cells
        pde = []
        for n_cells in (1024, 4096):
            cfg = {"kind": "mc-check", "n_paths": 10, "dt": 0.05, "n_cells": n_cells,
                   "probes": [1.0], "payoff": ["indicator", 1.0]}
            out = tmp_path / str(n_cells)
            assert run_experiment(cfg, str(out)) in (0, 1)  # 10 paths may miss the band
            pde.append(json.load(open(out / "mc_estimates.json"))[0]["pde"])
        assert abs(pde[0] - pde[1]) < 1e-4


class TestDualityExperiment:
    def test_small_run(self, tmp_path):
        cfg = {
            "kind": "duality", "eps": 0.25, "T": 0.5, "n_cells": 256,
            "tolerance": 1e-4,
        }
        assert run_experiment(cfg, str(tmp_path)) == 0
        summary = json.load(open(tmp_path / "summary.json"))
        assert set(summary["details"]["residuals"]) == {
            "one", "cuberoot", "indicator"
        }


class TestDeterminism:
    def test_bit_identical_rerun(self, tmp_path):
        cfg = {
            "kind": "diffusive", "eps": 0.25, "t_end": 0.5,
            "n_cells": 128, "snapshot_times": [0.25],
        }
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_experiment(dict(cfg), str(a)) == 0
        assert run_experiment(dict(cfg), str(b)) == 0
        ta, tb = _tree_bytes(a), _tree_bytes(b)
        assert ta.keys() == tb.keys()
        assert all(ta[k] == tb[k] for k in ta)


class TestCli:
    def test_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_end": 0.2}))
        out = tmp_path / "out"
        code = cli.main(["classical", "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["classical", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["banana", "--config", "x", "--out", "y"])

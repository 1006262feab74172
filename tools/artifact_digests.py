"""Digests of the artifacts of reference configs, to show a change keeps them.

    python3 tools/artifact_digests.py [NAME ...]

With names, only those configs run (say ``"bd full"``).  Run from any
directory; it imports ``coarsenlab`` from this checkout's
``src/`` and the benchmark workloads from ``bench/workloads.py``.  Each
config runs through ``harness.run_experiment`` into a temporary directory,
and one line is printed per config: its name, the exit code, the number of
files written and two digests, each the first 16 hex digits of the sha256
over the lines ``<relative path> <file sha256>`` sorted by path, the first
over every file and the second over every file except ``config.json`` (so a
change that rewrites only the recorded config moves the first alone),
followed by the
``summary.json`` scalars the benchmark gates (``L_end``, ``Lambda_end``, the
duality residuals, the Monte Carlo check's adjoint values ``pde``) and the
sweep's two classical rates
(``classical_rate_semi_analytic``, ``classical_rate_fd``), printed in full
precision.  The Monte Carlo lines also print each probe's estimate ``mean``
and its ``stderr``, so a change of random stream shows how far the estimates
moved in standard errors, and the sweep line each rung's diffusive ``rate``
and ``rate_gap``, so a change to the diffusive step shows how far the whole
ladder moved.  Run it on two commits and compare the lines; equal
digests mean byte-identical artifacts, and where they differ the scalars show
how far the results moved.  The whole set takes a few minutes on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from coarsenlab.harness import run_experiment  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# (name, config, seed, refine); a seed of None leaves it to the config
CONFIGS = [
    *((f"bench {name}", config, DEFAULT_SEED, False) for name, config in WORKLOADS.items()),
    ("bench duality-adjoint --refine", WORKLOADS["duality-adjoint"], DEFAULT_SEED, True),
    ("default sweep", {"kind": "sweep"}, None, False),
    ("ACCEPTANCE 12 classical", {"kind": "classical", "t_end": 0.25}, None, False),
    # classical characteristics on data with a compact support; at this dt the
    # mass residual (6.2e-6, falling as dt^2) fails the 1e-6 check, so it exits 1
    ("classical bump", {"kind": "classical",
                        "initial": {"kind": "compact-bump", "a": 0.5, "b": 1.5},
                        "t_end": 2.0, "dt": 0.1}, None, False),
    # most paths are absorbed mid-run, so the Monte Carlo drops paths as it goes
    ("mc-check absorbing", {"kind": "mc-check", "T": 1.0, "probes": [0.1, 0.25],
                            "payoff": "cuberoot"}, None, False),
    # the mass-conserving closure, which no benchmark workload runs
    ("bd full", {"kind": "bd", "closure": {"type": "full"}, "ell_max": 200,
                 "initial": {"kind": "bins", "entries": [[ell, 1.0] for ell in range(2, 21)]},
                 "t_end": 5.0, "output_stride": 0.25}, None, False),
    # clusters reach the cutoff, so the run aborts with "truncation saturation" (exit 3)
    ("bd saturation", {"kind": "bd", "ell_max": 20, "closure": {"type": "dirichlet"},
                       "initial": {"kind": "bins", "entries": [[15, 1.0]]}, "t_end": 20.0},
     None, False),
    # equilibrium data under the Dirichlet closure, which drops its monomers and
    # scales the rest to unit mass
    ("bd equilibrium", {"kind": "bd", "ell_max": 400, "closure": {"type": "dirichlet"},
                        "initial": {"kind": "equilibrium"}, "t_end": 1.0}, None, False),
    # snapshot stops between and on the output times
    ("diffusive snapshots", {"kind": "diffusive", "eps": 0.2, "n_cells": 64, "t_end": 0.5,
                             "output_stride": 0.1, "snapshot_times": [0.15, 0.3]},
     None, False),
]


def _digest(lines: list[str]) -> str:
    text = "\n".join(sorted(lines)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tree_digest(root: str) -> tuple[int, str, str]:
    """(file count, digest, digest without ``config.json``) of the files under ``root``."""
    lines = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                lines.append(f"{os.path.relpath(path, root)} "
                             f"{hashlib.sha256(fh.read()).hexdigest()}")
    rest = [line for line in lines if not line.startswith("config.json ")]
    return len(lines), _digest(lines), _digest(rest)


def gated_scalars(out: str) -> str:
    """``key value`` pairs of the gated scalars, Monte Carlo estimates and sweep rates in
    ``out/summary.json``."""
    try:
        with open(os.path.join(out, "summary.json")) as fh:
            details = json.load(fh).get("details", {})
    except OSError:
        return ""
    pairs = [(key, details[key]) for key in ("L_end", "Lambda_end",
                                             "classical_rate_semi_analytic",
                                             "classical_rate_fd") if key in details]
    for group in ("residuals", "refined_residuals"):
        pairs += [(f"{group}.{name}", vals["residual"])
                  for name, vals in sorted(details.get(group, {}).items())]
    pairs += [(f"{key}[{i}]", record[key]) for i, record in enumerate(details.get("records", []))
              for key in ("pde", "mean", "stderr")]
    pairs += [(f"{key}[{i}]", rung[key]) for i, rung in enumerate(details.get("ladder", []))
              for key in ("rate", "rate_gap")]
    return "".join(f"  {key} {value!r}" for key, value in pairs)


def main(names: list[str]) -> int:
    unknown = set(names) - {name for name, *_ in CONFIGS}
    if unknown:
        print(f"unknown config names: {sorted(unknown)}", file=sys.stderr)
        return 2
    for name, config, seed, refine in CONFIGS:
        if names and name not in names:
            continue
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_experiment(dict(config), out, seed=seed, refine=refine)
            files, digest, digest_rest = tree_digest(out)
            scalars = gated_scalars(out)
        print(f"{name:<34} exit {code}  files {files:>4}  {digest} {digest_rest}{scalars}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

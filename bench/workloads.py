"""The benchmark's five workloads, their correctness gates and reference counts.

Each workload is one ``coarsenlab.harness.run_experiment`` call at a
reference configuration from the acceptance tests.  Only ``mc-check`` uses
the benchmark seed (as its Philox key base); the other four are
deterministic and ignore it.

The reference scalars and work counts were taken from ``summary.json`` and
from cProfile at the commit that introduced this benchmark.  The scalars
gate correctness (a run outside them counts as failed); the counts only
check that the trace hooks are wired to the code paths that do the work.
"""

from __future__ import annotations

DEFAULT_SEED = 20260823

WORKLOADS = {
    "bd-dirichlet": {
        "kind": "bd",
        "closure": {"type": "dirichlet"},
        "ell_max": 600,
        "initial": {"kind": "bins", "entries": [[ell, 1.0] for ell in range(2, 21)]},
        "t_end": 50.0,
        "output_stride": 0.5,
    },
    "classical-exp": {
        "kind": "classical",
        "initial": {"kind": "exponential-moment"},
        "t_end": 0.5,
        "dt": 0.0125,
    },
    "diffusive-coarsen": {
        "kind": "diffusive",
        "eps": 0.1,
        "n_cells": 512,
        "t_end": 5.0,
        "limiter": True,
        "l_mode": "conserve",
    },
    "duality-adjoint": {
        "kind": "duality",
        "eps": 0.25,
        "T": 0.5,
        "n_cells": 2048,
    },
    "mc-check": {
        "kind": "mc-check",
    },
}

# Layers each workload exercises.  A per-layer metric of a layer outside this
# set reads 0 (the workload does no such work); a metric of a layer inside it
# whose hook is missing or never fires is reported as unavailable.
LAYERS = {
    "bd-dirichlet": {"harness", "bd"},
    "classical-exp": {"harness", "lsw_classical"},
    "diffusive-coarsen": {"harness", "lsw_diffusive", "diagnostics"},
    "duality-adjoint": {"harness", "lsw_diffusive", "lsw_diffusive.adjoint"},
    "mc-check": {"harness", "lsw_diffusive.adjoint", "sde"},
}

_REL = 1e-8

REFERENCE = {
    "classical-exp": {"L_end": 1.7043185528804055, "Lambda_end": 2.069207751567882},
    "diffusive-coarsen": {"L_end": 3.306403922103299, "Lambda_end": 3.916399495094737},
    "mc-check": {"pde": [0.38437842302221215, 0.7204005682022138,
                         0.9745183418924419, 0.9991217663633427,
                         0.999999915971242]},
}

# Work counts at the defining commit (cProfile and the traced run agree).
REFERENCE_COUNTS = {
    "bd-dirichlet": {"bd.banded_solves": 55_961, "bd.rootfind_evals": 36_476},
    "classical-exp": {"lsw_classical.rhs_evals": 266_536},
    "diffusive-coarsen": {"lsw_diffusive.steps": 7_800,
                          "lsw_diffusive.banded_solves": 96_133},
    "duality-adjoint": {"lsw_diffusive.adjoint_steps": 24_576},
    "mc-check": {"sde.path_steps": 250_000_000},
}


def _close(value, ref) -> bool:
    return abs(value - ref) <= _REL * abs(ref)


def gate(name: str, summary: dict) -> list[str]:
    """Reasons the run's ``summary.json`` fails its gate; empty if it passes."""
    problems = [f"check {c['name']} failed"
                for c in summary.get("checks", []) if not c.get("passed")]
    if not summary.get("all_passed"):
        problems.append("summary.all_passed is false")
    details = summary.get("details", {})
    ref = REFERENCE.get(name, {})
    if name == "bd-dirichlet":
        drift = details.get("mass_drift", float("inf"))
        if not drift <= 1e-8:
            problems.append(f"mass_drift {drift!r} > 1e-8")
    elif name in ("classical-exp", "diffusive-coarsen"):
        for key in ("L_end", "Lambda_end"):
            if not _close(details.get(key, float("nan")), ref[key]):
                problems.append(f"{key} {details.get(key)!r} != {ref[key]!r}")
    elif name == "duality-adjoint":
        residuals = details.get("residuals", {})
        if len(residuals) != 3:
            problems.append("expected three duality residuals")
        for payoff, vals in residuals.items():
            if not vals["residual"] <= 1e-4:
                problems.append(f"duality residual {payoff} {vals['residual']!r} > 1e-4")
    elif name == "mc-check":
        pde = [r["pde"] for r in details.get("records", [])]
        if len(pde) != len(ref["pde"]) or not all(map(_close, pde, ref["pde"])):
            problems.append(f"adjoint pde values {pde!r} != {ref['pde']!r}")
    return problems

"""Spans and work counters around coarsenlab's layer entry points.

Only a traced run imports this module's ``install``.  It replaces each hooked
attribute (a layer's public entry point, or a scipy function a layer calls
through its own module globals) with a wrapper that records a span: name,
parent span, start, end.  Counters attach to the innermost open span.  Spans
stay in memory and are written out once, by ``Tracer.dump``.

``layer_metrics`` turns a dumped trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (span name, module, attribute path, counter)
HOOKS = (
    ("harness.run_experiment", "coarsenlab.harness", "run_experiment", None),
    ("bd.run_bd", "coarsenlab.bd", "run_bd", None),
    ("bd.brentq", "coarsenlab.bd", "brentq", "evals"),
    ("bd.solve_banded", "coarsenlab.bd", "solve_banded", None),
    ("lsw_classical.run_classical", "coarsenlab.lsw_classical", "run_classical", None),
    ("lsw_classical.advance", "coarsenlab.lsw_classical", "ClassicalSolver.advance", None),
    ("lsw_classical.solve_ivp", "coarsenlab.lsw_classical", "solve_ivp", "nfev"),
    ("lsw_diffusive.run_diffusive", "coarsenlab.lsw_diffusive", "run_diffusive", None),
    ("lsw_diffusive.step", "coarsenlab.lsw_diffusive", "DiffusiveSolver.step", None),
    ("lsw_diffusive.determine_L", "coarsenlab.lsw_diffusive", "determine_L", None),
    ("lsw_diffusive.brentq", "coarsenlab.lsw_diffusive", "brentq", "evals"),
    ("lsw_diffusive.solve_banded", "coarsenlab.lsw_diffusive", "solve_banded", None),
    ("lsw_diffusive.adjoint_solve", "coarsenlab.lsw_diffusive", "adjoint_solve", None),
    ("sde.estimate_survival_payoff", "coarsenlab.sde", "estimate_survival_payoff",
     "path_steps"),
    ("diagnostics.kohn_otto_report", "coarsenlab.diagnostics", "kohn_otto_report", None),
    ("diagnostics.coarsening_rate", "coarsenlab.diagnostics", "coarsening_rate", None),
)

_NAME, _PARENT, _START, _END, _COUNT = range(5)


class Tracer:
    """In-memory span recorder; a span is ``[name, parent, start, end, count]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []

    def add(self, n: int) -> None:
        """Add ``n`` to the counter of the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][_COUNT] += n

    def wrap(self, name: str, fn, counter: str | None):
        spans, stack, clock, add = self.spans, self._stack, time.perf_counter, self.add

        def call(args, kwargs):
            if counter == "evals":  # brentq(f, ...): count calls of f
                f = args[0]

                def counted(*a):
                    add(1)
                    return f(*a)

                return fn(counted, *args[1:], **kwargs)
            if counter == "path_steps":  # estimate_survival_payoff(config, ...)
                add(args[0].n_paths * args[0].n_steps)
            result = fn(*args, **kwargs)
            if counter == "nfev":  # solve_ivp returns an OdeResult
                add(result.nfev)
            return result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return call(args, kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        return wrapper

    def dump(self, path: str) -> None:
        names = sorted({s[_NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "parent", "start", "end", "count"],
            "names": names,
            "missing": self.missing,
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install() -> Tracer:
    """Wrap every hook that still exists; record the ones that do not."""
    tracer = Tracer()
    for name, module_name, path, counter in HOOKS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except AttributeError:
            tracer.missing[name] = f"{module_name} has no attribute {path}"
            continue
        setattr(owner, attr, tracer.wrap(name, fn, counter))
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace

# metric -> (unit, layer, hooks that must have fired)
METRICS = {
    "harness.self_s": ("s", "harness", ("harness.run_experiment",)),
    "harness.artifact_bytes": ("count", "harness", ()),
    "bd.run_s": ("s", "bd", ("bd.run_bd",)),
    "bd.rootfinds": ("count", "bd", ("bd.brentq",)),
    "bd.rootfind_evals": ("count", "bd", ("bd.brentq",)),
    "bd.banded_solves": ("count", "bd", ("bd.solve_banded",)),
    "bd.banded_solve_s": ("s", "bd", ("bd.solve_banded",)),
    "bd.solves_per_rootfind": ("ratio", "bd", ("bd.solve_banded", "bd.brentq")),
    "lsw_classical.run_s": ("s", "lsw_classical", ("lsw_classical.run_classical",)),
    "lsw_classical.steps": ("count", "lsw_classical", ("lsw_classical.advance",)),
    "lsw_classical.ode_solves": ("count", "lsw_classical", ("lsw_classical.solve_ivp",)),
    "lsw_classical.fp_iters_per_step": (
        "ratio", "lsw_classical", ("lsw_classical.advance", "lsw_classical.solve_ivp")),
    "lsw_classical.rhs_evals": ("count", "lsw_classical", ("lsw_classical.solve_ivp",)),
    "lsw_classical.ode_s": ("s", "lsw_classical", ("lsw_classical.solve_ivp",)),
    "lsw_diffusive.run_s": ("s", "lsw_diffusive", ("lsw_diffusive.run_diffusive",)),
    "lsw_diffusive.steps": ("count", "lsw_diffusive", ("lsw_diffusive.step",)),
    "lsw_diffusive.determine_L_s": ("s", "lsw_diffusive", ("lsw_diffusive.determine_L",)),
    "lsw_diffusive.rootfind_evals": ("count", "lsw_diffusive", ("lsw_diffusive.brentq",)),
    "lsw_diffusive.banded_solves": ("count", "lsw_diffusive", ("lsw_diffusive.solve_banded",)),
    "lsw_diffusive.solves_per_step": (
        "ratio", "lsw_diffusive", ("lsw_diffusive.solve_banded", "lsw_diffusive.step")),
    "lsw_diffusive.banded_solve_s": ("s", "lsw_diffusive", ("lsw_diffusive.solve_banded",)),
    "lsw_diffusive.adjoint_s": ("s", "lsw_diffusive.adjoint", ("lsw_diffusive.adjoint_solve",)),
    "lsw_diffusive.adjoint_calls": (
        "count", "lsw_diffusive.adjoint", ("lsw_diffusive.adjoint_solve",)),
    "lsw_diffusive.adjoint_steps": (
        "count", "lsw_diffusive.adjoint",
        ("lsw_diffusive.adjoint_solve", "lsw_diffusive.solve_banded")),
    "sde.estimate_s": ("s", "sde", ("sde.estimate_survival_payoff",)),
    "sde.path_steps": ("count", "sde", ("sde.estimate_survival_payoff",)),
    "sde.path_steps_per_s": ("1/s", "sde", ("sde.estimate_survival_payoff",)),
    "diagnostics.report_s": ("s", "diagnostics", ("diagnostics.kohn_otto_report",)),
    "trace.overhead_s": ("s", "harness", ()),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values from one dumped trace (all but the two the caller adds).

    Banded solves inside an ``adjoint_solve`` span are booked as
    ``lsw_diffusive.adjoint_solve_banded``; ODE solves whose parent is an
    ``advance`` span are also booked as ``lsw_classical.fp_iter``.
    """
    names = trace["names"]
    spans = trace["spans"]
    dur = [s[_END] - s[_START] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[_PARENT] >= 0:
            covered[s[_PARENT]] += d

    def ancestors(i: int):
        while (i := spans[i][_PARENT]) >= 0:
            yield names[spans[i][_NAME]]

    agg: dict[str, list] = {}  # name -> [calls, seconds, counter, self seconds]

    def book(key: str, i: int) -> None:
        a = agg.setdefault(key, [0, 0.0, 0, 0.0])
        a[0] += 1
        a[1] += dur[i]
        a[2] += spans[i][_COUNT]
        a[3] += dur[i] - covered[i]

    for i, s in enumerate(spans):
        name = names[s[_NAME]]
        if name == "lsw_diffusive.solve_banded" and (
                "lsw_diffusive.adjoint_solve" in ancestors(i)):
            name = "lsw_diffusive.adjoint_solve_banded"
        if name == "lsw_classical.solve_ivp" and (
                next(ancestors(i), None) == "lsw_classical.advance"):
            book("lsw_classical.fp_iter", i)
        book(name, i)

    def n(key):
        return agg.get(key, [0])[0]

    def t(key):
        return agg.get(key, [0, 0.0])[1]

    def c(key):
        return agg.get(key, [0, 0.0, 0])[2]

    return {
        "harness.self_s": agg.get("harness.run_experiment", [0, 0.0, 0, 0.0])[3],
        "bd.run_s": t("bd.run_bd"),
        "bd.rootfinds": n("bd.brentq"),
        "bd.rootfind_evals": c("bd.brentq"),
        "bd.banded_solves": n("bd.solve_banded"),
        "bd.banded_solve_s": t("bd.solve_banded"),
        "bd.solves_per_rootfind": _ratio(n("bd.solve_banded"), n("bd.brentq")),
        "lsw_classical.run_s": t("lsw_classical.run_classical"),
        "lsw_classical.steps": n("lsw_classical.advance"),
        "lsw_classical.ode_solves": n("lsw_classical.solve_ivp"),
        "lsw_classical.fp_iters_per_step": _ratio(
            n("lsw_classical.fp_iter"), n("lsw_classical.advance")),
        "lsw_classical.rhs_evals": c("lsw_classical.solve_ivp"),
        "lsw_classical.ode_s": t("lsw_classical.solve_ivp"),
        "lsw_diffusive.run_s": t("lsw_diffusive.run_diffusive"),
        "lsw_diffusive.steps": n("lsw_diffusive.step"),
        "lsw_diffusive.determine_L_s": t("lsw_diffusive.determine_L"),
        "lsw_diffusive.rootfind_evals": c("lsw_diffusive.brentq"),
        "lsw_diffusive.banded_solves": n("lsw_diffusive.solve_banded"),
        "lsw_diffusive.solves_per_step": _ratio(
            n("lsw_diffusive.solve_banded"), n("lsw_diffusive.step")),
        "lsw_diffusive.banded_solve_s": t("lsw_diffusive.solve_banded"),
        "lsw_diffusive.adjoint_s": t("lsw_diffusive.adjoint_solve"),
        "lsw_diffusive.adjoint_calls": n("lsw_diffusive.adjoint_solve"),
        "lsw_diffusive.adjoint_steps": n("lsw_diffusive.adjoint_solve_banded"),
        "sde.estimate_s": t("sde.estimate_survival_payoff"),
        "sde.path_steps": c("sde.estimate_survival_payoff"),
        "sde.path_steps_per_s": _ratio(c("sde.estimate_survival_payoff"),
                                       t("sde.estimate_survival_payoff")),
        "diagnostics.report_s": t("diagnostics.kohn_otto_report")
        + t("diagnostics.coarsening_rate"),
    }


def unavailable(trace: dict, layers: set[str]) -> dict[str, str]:
    """Metrics of an exercised layer whose hook is missing or never fired."""
    fired = {trace["names"][s[_NAME]] for s in trace["spans"]}
    out = {}
    for metric, (_, layer, hooks) in METRICS.items():
        if layer not in layers:
            continue
        for hook in hooks:
            if hook in trace["missing"]:
                out[metric] = f"hook {hook} is gone: {trace['missing'][hook]}"
                break
            if hook not in fired:
                out[metric] = f"hook {hook} was never called"
                break
    return out

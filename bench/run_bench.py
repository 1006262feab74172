"""coarsenlab benchmark: five ``run_experiment`` workloads, one at a time.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all      # every metric, every workload

Run from the repository root.  Every repetition is a fresh interpreter
(``bench/child.py``), started only after the previous one ended.

``--trace 0`` repeats the workload, untraced, while another repetition still
fits in ``--seconds`` (at least once), and reports the end-to-end metrics:
median ``wall_s`` of the ``run_experiment`` call, median ``setup_s`` from
interpreter start to ``coarsenlab.harness`` imported (over at least
``SETUP_SAMPLES`` interpreters), median ``peak_rss_mb`` of the run process,
and ``pass_share``, the share of repetitions whose outputs pass the gate in
``workloads.gate``.

``--trace 1`` runs the workload once untraced and twice traced and reports the
per-layer metrics of ``tracer.METRICS``.  The two traced runs must give the
same counts.  ``trace.overhead_s`` is the traced ``wall_s`` minus the
untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Artifacts, the span
file and a stamped result file go to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import METRICS, layer_metrics, unavailable
from workloads import DEFAULT_SEED, LAYERS, REFERENCE_COUNTS, WORKLOADS, gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "ratio"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# one repetition


def _spawn(args: list[str]) -> tuple[dict | None, float, str]:
    """Run child.py; returns (its last-line JSON or None, set-up time, error)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, 0.0, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, 0.0, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    report = json.loads(lines[-1])
    return report, report["ready"] - start, ""


def _rep(name: str, seed: int, spans: str | None = None) -> dict:
    """One run of a workload; ``problems`` lists why it failed, if it did."""
    out = os.path.join(OUT, name, "run")
    shutil.rmtree(out, ignore_errors=True)
    args = [name, "--seed", str(seed), "--out", out]
    if spans:
        args += ["--trace", spans]
    report, setup, error = _spawn(args)
    if report is None:
        return {"problems": [error]}
    rep = dict(report, setup_s=setup, problems=[])
    if report["exit_code"] != 0:
        rep["problems"].append(f"run_experiment returned {report['exit_code']}")
    try:
        with open(os.path.join(out, "summary.json")) as fh:
            rep["problems"] += gate(name, json.load(fh))
    except (OSError, ValueError) as exc:
        rep["problems"].append(f"summary.json unreadable: {exc}")
    rep["artifact_bytes"] = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(out, "**"), recursive=True)
        if os.path.isfile(p))
    return rep


def _setup_sample() -> float:
    report, setup, error = _spawn(["--setup-only"])
    if report is None:
        raise BenchError(f"set-up run failed: {error}")
    return setup


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tally(reps: list[dict], metrics: dict) -> dict:
    failed = [r for r in reps if r["problems"]]
    for r in failed:
        print("FAILED run: " + "; ".join(r["problems"]), file=sys.stderr)
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# the two kinds of benchmark run


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    reps, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(_rep(name, seed))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    done = [r for r in reps if "wall_s" in r]
    if not done:
        raise BenchError(f"{name}: no run finished: {reps[0]['problems']}")
    setups = [r["setup_s"] for r in done]
    setups += [_setup_sample() for _ in range(SETUP_SAMPLES - len(setups))]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "pass_share": (len(reps) - sum(bool(r["problems"]) for r in reps)) / len(reps),
    }
    result = _tally(reps, {k: _metric(v, END_TO_END[k]) for k, v in values.items()})
    return result, {"wall_s": [r["wall_s"] for r in done], "setup_s": setups}


def per_layer(name: str, seed: int) -> dict:
    spans = os.path.join(OUT, f"{name}.spans.json")
    base = _rep(name, seed)
    traced = [_rep(name, seed, spans), _rep(name, seed, spans + ".2")]
    reps = [base, *traced]
    if any("wall_s" not in r for r in reps):
        raise BenchError(f"{name}: a run did not finish: "
                         + "; ".join(p for r in reps for p in r["problems"]))
    traces = []
    for path in (spans, spans + ".2"):
        with open(path) as fh:
            traces.append(json.load(fh))
    os.remove(spans + ".2")
    runs = [dict(layer_metrics(tr), **{"harness.artifact_bytes": r["artifact_bytes"]})
            for tr, r in zip(traces, traced)]
    for key, (unit, _, _) in METRICS.items():
        if unit == "count" and key in runs[0] and runs[0][key] != runs[1][key]:
            traced[1]["problems"].append(
                f"count {key} differs between traced runs: {runs[0][key]} != {runs[1][key]}")

    layers = LAYERS[name]
    gone = unavailable(traces[0], layers)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {}
    for key, (unit, layer, _) in METRICS.items():
        if key in gone:
            metrics[key] = dict(_metric(None, unit), unavailable=gone[key])
        elif key == "trace.overhead_s":
            metrics[key] = _metric(traced_wall - base["wall_s"], unit)
        elif layer not in layers:
            metrics[key] = _metric(0, unit)
        elif unit == "count":
            metrics[key] = _metric(runs[0][key], unit)
        else:
            metrics[key] = _metric(statistics.median(r[key] for r in runs), unit)
    for key, ref in REFERENCE_COUNTS[name].items():  # informational only
        value = metrics[key]["value"]
        status = "matches" if value == ref else "differs from"
        print(f"count {key} = {value} {status} the reference {ref}")
    return _tally(reps, metrics), {"wall_s": [r["wall_s"] for r in reps]}


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable: not a git checkout"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unavailable: cannot resolve {ref}"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "coarsenlab", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(name: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# entry point


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(os.path.join(OUT, name), exist_ok=True)
    info = stamp(name, seed, seconds, trace)
    print("stamp " + json.dumps(info, sort_keys=True))
    result, samples = per_layer(name, seed) if trace else end_to_end(name, seed, seconds)
    with open(os.path.join(OUT, f"{name}.trace{trace}.json"), "w") as fh:
        json.dump({"stamp": info, "samples": samples, "result": result}, fh, indent=1)
    for key, m in result["metrics"].items():
        value = (f"{m['value']!r} {m['unit']}" if m["value"] is not None
                 else f"unavailable ({m['unavailable']})")
        print(f"{name:18s} {key:34s} {value}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coarsenlab", "harness.py")):
        print(f"no coarsenlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {name: {"end_to_end": run(name, args.seed, args.seconds, 0),
                             "per_layer": run(name, args.seed, args.seconds, 1)}
                      for name in WORKLOADS}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

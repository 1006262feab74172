"""One benchmark run of one workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD --seed N --out DIR [--trace SPANS.json]
    python3 bench/child.py --setup-only

Prints one JSON line last.  ``ready`` is the CLOCK_MONOTONIC reading once
``coarsenlab.harness`` is imported, so the parent, which noted the same clock
before starting this process, gets the set-up time.  ``--setup-only`` stops
there.  With ``--trace`` the layer hooks are installed before the run and
the spans are written to the given file after it; without it nothing of the
tracer is imported.
"""

import time  # first, so the set-up window covers every other import

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import coarsenlab.harness as harness  # noqa: E402

READY = time.monotonic()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        print(f"coarsenlab imported from {harness.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0

    from workloads import WORKLOADS

    config = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.install()
    t0 = time.perf_counter()
    code = harness.run_experiment(config, args.out, seed=args.seed)
    wall = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"ready": READY, "exit_code": code, "wall_s": wall,
                      "peak_rss_mb": peak_kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

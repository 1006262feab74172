"""Command-line entry point.

Usage::

    coarsenlab <bd|classical|diffusive|sweep|mc-check|duality>
               --config <path> --out <dir> [--seed N] [--refine]

Exit codes: 0 all checks passed, 1 check failure, 2 bad config,
3 solver failure (see :mod:`coarsenlab.harness`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import KINDS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsenlab",
        description="Cluster-coarsening experiments: kinetic, transport, "
                    "diffusive, and Monte Carlo solvers with built-in checks.",
    )
    parser.add_argument("kind", choices=list(KINDS), help="experiment to run")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--refine", action="store_true",
                        help="also run the built-in refined rerun (duality)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}")
        return 2
    if isinstance(config, dict):  # run_experiment rejects any other config
        config["kind"] = args.kind
    return run_experiment(config, args.out, seed=args.seed, refine=args.refine)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep the identity suites over a parameter grid and summarize per identity.

Prints one line per identity name with the worst error ratio seen across the
grid, then a pass/fail total. Nonzero exit on any failure, so this can gate
a CI job the same way `qnormal3d check all` does for a single point.

Usage:
    python scripts/run_identity_checks.py
    python scripts/run_identity_checks.py --suite conditionals --q 0.7
"""

import argparse
import sys
import time
from collections import defaultdict

from qnormal3d.checks import SUITES, SWEEP_Q, SWEEP_RHO, run_suite
from qnormal3d.densities import ModelParams


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    parser.add_argument(
        "--q", type=float, default=None, help="restrict to a single q (default: sweep)"
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def main():
    args = parse_args()
    qs = (args.q,) if args.q is not None else SWEEP_Q
    grid = [ModelParams(*rho, q) for rho in SWEEP_RHO for q in qs]

    worst = defaultdict(float)
    counts = defaultdict(int)
    failures = defaultdict(int)
    start = time.perf_counter()
    for p in grid:
        for rep in run_suite(args.suite, p, seed=args.seed):
            err = max(rep.abs_err, rep.rel_err)
            ratio = err / rep.tol if rep.tol < 1.0 else rep.lhs
            worst[rep.name] = max(worst[rep.name], ratio)
            counts[rep.name] += 1
            failures[rep.name] += 0 if rep.passed else 1
    elapsed = time.perf_counter() - start

    width = max(len(name) for name in worst)
    print(f"{'identity':<{width}}  instances  worst err/tol  failures")
    for name in sorted(worst):
        print(
            f"{name:<{width}}  {counts[name]:>9d}  {worst[name]:>13.3e}  "
            f"{failures[name]:>8d}"
        )
    total_fail = sum(failures.values())
    total = sum(counts.values())
    print(
        f"\n{len(grid)} grid points, {total} instances, "
        f"{total_fail} failures, {elapsed:.1f} s"
    )
    return 1 if total_fail else 0


if __name__ == "__main__":
    sys.exit(main())

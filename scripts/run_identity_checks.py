#!/usr/bin/env python3
"""Sweep the identity suites over a parameter grid and summarize per identity.

Prints one line per identity name with the worst err/tol seen across the
grid, where err is the error each row's verdict read (a NaN ranks worst),
then a pass/fail total. Nonzero exit on any failure, so this can gate
a CI job the same way `qnormal3d check all` does for a single point; an
invalid parameter or seed, or an error a check raises, prints one `error:`
line and exits with the CLI's code for it. The sweep's wall time goes to
stderr, so stdout is the same bytes on every run.

Usage:
    python scripts/run_identity_checks.py
    python scripts/run_identity_checks.py --suite conditionals --q 0.7
"""

import argparse
import sys
import time
from collections import defaultdict

from qnormal3d.checks import SUITES, SWEEP_Q, SWEEP_RHO, _rank, run_suite
from qnormal3d.cli import EXIT_CODES
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
    start = time.perf_counter()
    try:
        grid = [ModelParams(*rho, q) for rho in SWEEP_RHO for q in qs]
        reports = [rep for p in grid for rep in run_suite(args.suite, p, seed=args.seed)]
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    elapsed = time.perf_counter() - start

    worst = defaultdict(float)
    counts = defaultdict(int)
    failures = defaultdict(int)
    for rep in reports:
        worst[rep.name] = max(worst[rep.name], rep.err / rep.tol, key=_rank)
        counts[rep.name] += 1
        failures[rep.name] += 0 if rep.passed else 1

    width = max(len(name) for name in worst)
    print(f"{'identity':<{width}}  instances  worst err/tol  failures")
    for name in sorted(worst):
        print(
            f"{name:<{width}}  {counts[name]:>9d}  {worst[name]:>13.3e}  "
            f"{failures[name]:>8d}"
        )
    total_fail = sum(failures.values())
    total = sum(counts.values())
    print(f"\n{len(grid)} grid points, {total} instances, {total_fail} failures")
    print(f"{elapsed:.1f} s", file=sys.stderr)
    return 1 if total_fail else 0


if __name__ == "__main__":
    sys.exit(main())

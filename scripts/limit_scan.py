#!/usr/bin/env python3
"""Track convergence toward the Gaussian regime as q approaches 1.

For each target (base density sup-norm against N(0,1), the conditional
polynomial family against shifted Hermite polynomials, and the marginal
variance against its limit) print the error at each q and the consecutive
ratio. Ratios below 1 everywhere mean the limit checks will hold.

Usage:
    python scripts/limit_scan.py
    python scripts/limit_scan.py --steps 6 --r 0.2
"""

import argparse

from qnormal3d.checks import asc_limit_errors, fn_limit_errors
from qnormal3d.moments import var_z


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--steps", type=int, default=3, help="number of q values 1 - 10^-k, k = 1.."
    )
    parser.add_argument("--r", type=float, default=0.06)
    return parser.parse_args()


def main():
    args = parse_args()
    qs = tuple(1.0 - 10.0**-k for k in range(1, args.steps + 1))
    limit_var = (1.0 + args.r) / (1.0 - args.r)
    series = {
        "base density vs normal": fn_limit_errors(qs),
        "conditional family vs Hermite": asc_limit_errors(qs),
        "variance vs (1+r)/(1-r)": [abs(var_z(args.r, q) - limit_var) for q in qs],
    }
    for name, errors in series.items():
        print(f"\n{name}")
        print(f"  {'q':>10}  {'error':>12}  {'ratio':>9}")
        prev = None
        for q, err in zip(qs, errors):
            ratio = f"{err / prev:9.4f}" if prev else "        -"
            print(f"  {q:>10.6f}  {err:>12.4e}  {ratio}")
            prev = err
    print()


if __name__ == "__main__":
    main()

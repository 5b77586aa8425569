"""Command line front end: evaluate, verify, tabulate, and sample.

Subcommands
    eval     tabulate a density (or kernel) over a grid
    check    run identity suites, one report row per identity
    moments  closed-form moments next to their quadrature oracles
    gram     orthogonality Gram matrix of a polynomial family
    sample   random variates or a moment summary from the samplers
    limits   error-versus-q table for the Gaussian-limit targets

All data goes to stdout or the --output file as CSV (with a ``# key=value``
metadata block, then a header row, 17 significant digits) or as JSON with
the same metadata, columns, and rows.  Diagnostics go to stderr.  Output
carries no timestamps, so identical invocations produce identical bytes.

Validity rule: every parameter (q, each rho, r) has absolute value below 1
and every conditioning point lies in the support [-L, L], L = 2/sqrt(1-q);
NaN fails both.

Exit codes: 0 success, 1 failed identity check, 2 invalid parameters
(ValueError, DomainError, DegenerateConditioning, DegenerateRecurrence),
3 truncation or quadrature non-convergence (NonConvergence), 4 too few
samples (InsufficientSamples).  Each error prints one ``error:`` line on
stderr and no traceback.

The environment variable QNORMAL3D_THREADS, when set, seeds the usual
thread-count variables (OMP, OpenBLAS, MKL) before the numerical modules
load, so it controls the BLAS pool for every subcommand.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
from typing import Any, Dict, List, Sequence, Tuple

from .errors import (
    DegenerateConditioning,
    DegenerateRecurrence,
    DomainError,
    InsufficientSamples,
    NonConvergence,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NONCONVERGENCE = 3
EXIT_INSUFFICIENT = 4
# The exit code of every error a command may raise: each QNormalError
# subclass, and ValueError for malformed or out-of-range input.
EXIT_CODES = {
    ValueError: EXIT_INVALID,
    DomainError: EXIT_INVALID,
    DegenerateConditioning: EXIT_INVALID,
    DegenerateRecurrence: EXIT_INVALID,
    NonConvergence: EXIT_NONCONVERGENCE,
    InsufficientSamples: EXIT_INSUFFICIENT,
}

DENSITY_NAMES = ("fN", "fCN", "fR", "f3D", "fYZ", "fZ", "fXgYZ", "fYZgX", "pmKernel")
SUITE_NAMES = (
    "orthogonality",
    "marginals",
    "chapman-kolmogorov",
    "poisson-mehler",
    "moments",
    "conditionals",
    "limits",
    "all",
)
MOMENT_KINDS = ("var_z", "eh2n_z", "mixed", "cond_x", "cond_y", "cond_xy")
GRAM_FAMILIES = ("qhermite", "asc", "rogers")
# Literals, so that --help imports no numpy; tests pin SUITE_NAMES to
# checks.SUITES and GRAM_FAMILIES to polynomials.FAMILIES.

Row = Tuple[Any, ...]
Table = Tuple[Dict[str, Any], List[str], List[Row]]


def _configure_threads() -> None:
    count = os.environ.get("QNORMAL3D_THREADS")
    if not count:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, count)


def _parse_rho(text: str) -> Tuple[float, float, float]:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--rho needs three comma-separated values, got {text!r}")
    return parts[0], parts[1], parts[2]


def _parse_grid(text: str) -> List[Tuple[float, float, int]]:
    """Parse axis specs lo:hi:count, one per axis, separated by ';'."""
    axes = []
    for part in text.split(";"):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"grid spec must be lo:hi:count, got {part!r}")
        lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        if count < 1:
            raise ValueError(f"grid count must be positive, got {count}")
        axes.append((lo, hi, count))
    return axes


def _parse_q_seq(text: str) -> Tuple[float, ...]:
    vals = tuple(float(t) for t in text.split(","))
    if not vals:
        raise ValueError("empty q sequence")
    return vals


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(stream, table: Table) -> None:
    metadata, columns, rows = table
    for key, value in metadata.items():
        stream.write(f"# {key}={_fmt(value)}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write_json(stream, table: Table) -> None:
    metadata, columns, rows = table
    payload = {
        "metadata": metadata,
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit(args: argparse.Namespace, table: Table) -> None:
    writer = _write_json if args.format == "json" else _write_csv
    if args.output == "-":
        writer(sys.stdout, table)
        return
    with open(args.output, "w", newline="") as handle:
        writer(handle, table)


def _shared_metadata() -> Dict[str, Any]:
    from . import qcore, quadrature

    return {
        "trunc_max_terms": qcore.MAX_TERMS,
        "trunc_tail_tol": qcore.TAIL_TOL,
        "trunc_product_tol": qcore.PRODUCT_TOL,
        "quad_order": quadrature.QUAD_ORDER,
        "quad_tol_1d": quadrature.QUAD_TOL_1D,
        "quad_tol_2d": quadrature.QUAD_TOL_2D,
        "quad_tol_3d": quadrature.QUAD_TOL_3D,
    }


def _axis_values(spec: Tuple[float, float, int]):
    import numpy as np

    lo, hi, count = spec
    return np.linspace(lo, hi, count)


def cmd_eval(args: argparse.Namespace) -> Tuple[Table, int]:
    import numpy as np

    from . import densities as dn

    q = args.q
    axes = _parse_grid(args.grid)
    meta: Dict[str, Any] = {"command": "eval", "density": args.density, "q": q}
    meta["grid"] = args.grid
    meta.update(_shared_metadata())

    name = args.density
    dim = {"f3D": 3, "fYZ": 2, "fYZgX": 2}.get(name, 1)
    if len(axes) == 1 and dim > 1:
        axes = axes * dim
    if len(axes) != dim:
        raise ValueError(f"{name} needs {dim} grid axes, got {len(axes)}")
    grids = [_axis_values(a) for a in axes]
    mesh = np.meshgrid(*grids, indexing="ij") if dim > 1 else [grids[0]]
    flat = [m.ravel() for m in mesh]

    columns: List[str]
    value_cols: List[Tuple[str, np.ndarray]] = []
    if name == "fN":
        value_cols = [("value", dn.f_n(flat[0], q))]
        columns = ["x"]
    elif name == "fR":
        meta["r"] = args.r
        value_cols = [("value", dn.f_r(flat[0], args.r, q))]
        columns = ["x"]
    elif name == "fCN":
        meta["y"] = args.y
        meta["rho1"] = args.rho1
        value_cols = [("value", dn.f_cn(flat[0], args.y, args.rho1, q))]
        columns = ["x"]
    elif name == "pmKernel":
        meta["y"] = args.y
        meta["rho1"] = args.rho1
        form = dn.DensityForm(args.pm_form)
        meta["form"] = form.value
        value_cols = [("value", dn.pm_kernel(flat[0], args.y, args.rho1, q, form=form))]
        columns = ["x"]
    elif name == "fZ":
        meta["r"] = args.r
        if args.form == "all":
            meta["form"] = "all"
            value_cols = [
                (f"value_{f.value}", dn.f_z(flat[0], args.r, q, form=f))
                for f in dn.MarginalForm
            ]
        else:
            form = dn.MarginalForm(args.form)
            meta["form"] = form.value
            value_cols = [("value", dn.f_z(flat[0], args.r, q, form=form))]
        columns = ["z"]
    else:
        p = dn.ModelParams(*args.rho, q=q)
        meta["rho12"], meta["rho13"], meta["rho23"] = args.rho
        if name == "f3D":
            form = dn.DensityForm(args.f3d_form)
            meta["form"] = form.value
            value_cols = [("value", dn.f_3d(*flat, p, form=form))]
            columns = ["x", "y", "z"]
        elif name == "fYZ":
            value_cols = [("value", dn.f_yz(flat[0], flat[1], p))]
            columns = ["y", "z"]
        elif name == "fXgYZ":
            meta["y"], meta["z"] = args.y, args.z
            value_cols = [("value", dn.f_x_given_yz(flat[0], args.y, args.z, p))]
            columns = ["x"]
        elif name == "fYZgX":
            meta["x"] = args.x
            value_cols = [("value", dn.f_yz_given_x(flat[0], flat[1], args.x, p))]
            columns = ["y", "z"]
        else:
            raise ValueError(f"unknown density {name!r}")

    columns = columns + [label for label, _ in value_cols]
    rows = [
        tuple(float(f[i]) for f in flat)
        + tuple(float(np.asarray(vals).ravel()[i]) for _, vals in value_cols)
        for i in range(flat[0].size)
    ]
    return (meta, columns, rows), EXIT_OK


def _check_points(args: argparse.Namespace) -> List[Tuple[float, float, float, float]]:
    from .checks import SWEEP_Q, SWEEP_RHO

    if args.rho is not None and args.q is not None:
        return [(*args.rho, args.q)]
    if args.rho is not None or args.q is not None:
        raise ValueError("give both --rho and --q, or neither for the default grid")
    return [(*rho, q) for rho in SWEEP_RHO for q in SWEEP_Q]


def cmd_check(args: argparse.Namespace) -> Tuple[Table, int]:
    from .checks import run_suite
    from .densities import ModelParams

    meta: Dict[str, Any] = {"command": "check", "suite": args.suite}
    meta.update(_shared_metadata())
    columns = [
        "suite",
        "rho12",
        "rho13",
        "rho23",
        "q",
        "name",
        "lhs",
        "rhs",
        "abs_err",
        "rel_err",
        "tol",
        "passed",
    ]
    rows: List[Row] = []
    all_passed = True
    for r12, r13, r23, q in _check_points(args):
        p = ModelParams(r12, r13, r23, q)
        for rep in run_suite(args.suite, p, seed=args.seed):
            rows.append(
                (
                    args.suite,
                    r12,
                    r13,
                    r23,
                    q,
                    rep.name,
                    rep.lhs,
                    rep.rhs,
                    rep.abs_err,
                    rep.rel_err,
                    rep.tol,
                    rep.passed,
                )
            )
            all_passed = all_passed and rep.passed
    return (meta, columns, rows), EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_moments(args: argparse.Namespace) -> Tuple[Table, int]:
    from . import moments as mm
    from .densities import ModelParams
    from .polynomials import q_hermite

    meta: Dict[str, Any] = {"command": "moments", "kind": args.kind, "q": args.q}
    meta.update(_shared_metadata())
    columns = ["kind", "detail", "closed", "quadrature", "abs_err", "rel_err"]
    q = args.q
    kind = args.kind
    if kind == "var_z":
        meta["r"] = args.r
        closed = mm.var_z(args.r, q)
        oracle = mm._marginal_moment(lambda z: z * z, args.r, q)
        detail = f"r={_fmt(args.r)}"
    elif kind == "eh2n_z":
        meta["r"] = args.r
        meta["n"] = args.n
        closed = mm.e_h2n_z(args.n, args.r, q)
        deg = 2 * args.n
        oracle = mm._marginal_moment(lambda z: q_hermite(deg, z, q).values[deg], args.r, q)
        detail = f"n={args.n},r={_fmt(args.r)}"
    else:
        p = ModelParams(*args.rho, q=q)
        meta["rho12"], meta["rho13"], meta["rho23"] = args.rho
        if kind == "mixed":
            spec = mm.MomentSpec(mm.MomentKind.UNCONDITIONAL, (args.m, args.n), p)
            detail = f"m={args.m},n={args.n}"
        elif kind == "cond_x":
            spec = mm.MomentSpec(
                mm.MomentKind.COND_X_GIVEN_YZ, (args.n,), p, (args.y, args.z)
            )
            detail = f"n={args.n},y={_fmt(args.y)},z={_fmt(args.z)}"
        elif kind == "cond_y":
            spec = mm.MomentSpec(mm.MomentKind.COND_Y_GIVEN_Z, (args.n,), p, (args.z,))
            detail = f"n={args.n},z={_fmt(args.z)}"
        elif kind == "cond_xy":
            spec = mm.MomentSpec(mm.MomentKind.COND_XY_GIVEN_Z, (1, 1), p, (args.z,))
            detail = f"z={_fmt(args.z)}"
        else:
            raise ValueError(f"unknown moment kind {kind!r}")
        closed = mm.closed_form(spec)
        oracle = mm.quadrature_oracle(spec)
    abs_err = abs(closed - oracle)
    rel_err = abs_err / max(1.0, abs(oracle))
    rows = [(kind, detail, closed, oracle, abs_err, rel_err)]
    return (meta, columns, rows), EXIT_OK


def cmd_gram(args: argparse.Namespace) -> Tuple[Table, int]:
    from .polynomials import FAMILIES, default_y

    q = args.q
    n_max = args.nmax
    meta: Dict[str, Any] = {
        "command": "gram",
        "family": args.family,
        "nmax": n_max,
        "q": q,
    }
    meta.update(_shared_metadata())
    fam = FAMILIES[args.family]
    for key in fam.params:
        # --y is the one family parameter whose default depends on q.
        value = getattr(args, key)
        meta[key] = default_y(q) if value is None else value
    matrix = fam.gram(n_max, *(meta[key] for key in fam.params), q)
    columns = ["i", "j", "value"]
    rows = [
        (i, j, float(matrix[i, j]))
        for i in range(n_max + 1)
        for j in range(n_max + 1)
    ]
    return (meta, columns, rows), EXIT_OK


def cmd_sample(args: argparse.Namespace) -> Tuple[Table, int]:
    from .densities import ModelParams
    from .moments import _covariance
    from .sampler import SamplerConfig, mc_moment, sample_3d, sample_fn

    cfg = SamplerConfig(
        seed=args.seed,
        n_samples=args.n,
        grid_points=args.grid_points,
        burn_in=args.burn_in,
        thin=args.thin,
        n_chains=args.chains,
    )
    meta: Dict[str, Any] = {
        "command": "sample",
        "target": args.target,
        "q": args.q,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "grid_points": cfg.grid_points,
        "burn_in": cfg.burn_in,
        "thin": cfg.thin,
        "n_chains": cfg.n_chains,
        "rng": "philox-4x64",
    }
    meta.update(_shared_metadata())
    if args.target == "fn":
        draws = sample_fn(args.q, cfg)
        columns = ["x"]
        stats = [("mean_x", lambda x: x, 0.0), ("var_x", lambda x: x * x, 1.0)]
    else:
        p = ModelParams(*args.rho, q=args.q)
        meta["rho12"], meta["rho13"], meta["rho23"] = args.rho
        draws = sample_3d(p, cfg)
        columns = ["x", "y", "z"]
        # The means, then the covariance entries (i, j), i <= j: the
        # diagonal first, then the pairs in order.
        cov = _covariance(p, p.q).tolist()
        stats = [(f"mean_{columns[i]}", lambda *v, i=i: v[i], 0.0) for i in range(3)]
        for i, j in [(i, i) for i in range(3)] + list(itertools.combinations(range(3), 2)):
            label = f"var_{columns[i]}" if i == j else f"cov_{columns[i]}{columns[j]}"
            stats.append((label, lambda *v, i=i, j=j: v[i] * v[j], cov[i][j]))
    if not args.summary:
        rows = [tuple(float(v) for v in row) for row in draws.reshape(len(draws), -1)]
        return (meta, columns, rows), EXIT_OK
    rows = []
    for label, fn, target in stats:
        est = mc_moment(draws, fn)
        rows.append((label, est.value, est.std_error, target))
    return (meta, ["stat", "estimate", "std_error", "target"], rows), EXIT_OK


def cmd_limits(args: argparse.Namespace) -> Tuple[Table, int]:
    from .checks import limit_series

    qs = _parse_q_seq(args.q_seq)
    meta: Dict[str, Any] = {"command": "limits", "q_seq": args.q_seq, "r": args.r}
    meta.update(_shared_metadata())
    columns = ["check", "q", "error", "ratio"]
    rows: List[Row] = []
    for name, errs in limit_series(args.r, qs).items():
        prev = None
        for qq, err in zip(qs, errs):
            ratio = err / prev if prev else ""
            rows.append((name, qq, err, ratio))
            prev = err
    return (meta, columns, rows), EXIT_OK


def _allow_leading_dash(parser: argparse.ArgumentParser) -> None:
    # Accept option values like -2:2:101 and -0.5 that argparse would
    # otherwise classify as option strings.
    matcher = re.compile(r"^-\d|^-\.\d")
    parser._negative_number_matcher = matcher


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnormal3d",
        description="Densities, identities, moments, and samplers of the "
        "three-dimensional q-Normal family.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="tabulate a density over a grid")
    p_eval.add_argument("density", choices=DENSITY_NAMES)
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--grid", default="-1:1:21", help="lo:hi:count per axis, ';'-separated")
    p_eval.add_argument("--rho", type=_parse_rho, default=(0.3, 0.4, 0.5))
    p_eval.add_argument("--rho1", type=float, default=0.5, help="kernel correlation")
    p_eval.add_argument("--r", type=float, default=0.06, help="marginal parameter")
    p_eval.add_argument("--x", type=float, default=0.0)
    p_eval.add_argument("--y", type=float, default=0.0)
    p_eval.add_argument("--z", type=float, default=0.0)
    p_eval.add_argument(
        "--form",
        default="rogers",
        choices=("hermite-series", "rogers", "even-series", "edge-product", "all"),
        help="marginal evaluation route",
    )
    p_eval.add_argument(
        "--f3d-form", default="product", choices=("product", "series", "closed")
    )
    p_eval.add_argument("--pm-form", default="product", choices=("product", "series"))
    _add_output_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_check = subs.add_parser("check", help="run identity suites")
    p_check.add_argument("suite", choices=SUITE_NAMES)
    p_check.add_argument("--rho", type=_parse_rho, default=None)
    p_check.add_argument("--q", type=float, default=None)
    p_check.add_argument("--seed", type=int, default=7)
    _add_output_flags(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_mom = subs.add_parser("moments", help="closed forms vs quadrature")
    p_mom.add_argument("--kind", choices=MOMENT_KINDS, required=True)
    p_mom.add_argument("--q", type=float, required=True)
    p_mom.add_argument("--r", type=float, default=0.06)
    p_mom.add_argument("--rho", type=_parse_rho, default=(0.3, 0.4, 0.5))
    p_mom.add_argument("--m", type=int, default=1)
    p_mom.add_argument("--n", type=int, default=1)
    p_mom.add_argument("--y", type=float, default=0.0)
    p_mom.add_argument("--z", type=float, default=0.0)
    _add_output_flags(p_mom)
    p_mom.set_defaults(fn=cmd_moments)

    p_gram = subs.add_parser("gram", help="orthogonality Gram matrix")
    p_gram.add_argument("--family", choices=GRAM_FAMILIES, required=True)
    p_gram.add_argument("--nmax", type=int, default=8)
    p_gram.add_argument("--q", type=float, required=True)
    p_gram.add_argument("--rho1", type=float, default=0.5)
    p_gram.add_argument("--y", type=float, default=None)
    p_gram.add_argument("--r", type=float, default=0.06)
    _add_output_flags(p_gram)
    p_gram.set_defaults(fn=cmd_gram)

    p_sample = subs.add_parser("sample", help="draw random variates")
    p_sample.add_argument("--target", choices=("fn", "3d"), default="3d")
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=7)
    p_sample.add_argument("--q", type=float, default=0.5)
    p_sample.add_argument("--rho", type=_parse_rho, default=(0.3, 0.4, 0.5))
    p_sample.add_argument("--grid-points", type=int, default=256)
    p_sample.add_argument("--burn-in", type=int, default=1000)
    p_sample.add_argument("--thin", type=int, default=5)
    p_sample.add_argument("--chains", type=int, default=256)
    p_sample.add_argument("--summary", action="store_true", help="emit moment summary")
    _add_output_flags(p_sample)
    p_sample.set_defaults(fn=cmd_sample)

    p_lim = subs.add_parser("limits", help="Gaussian-limit error table")
    p_lim.add_argument("--q-seq", default="0.9,0.99,0.999")
    p_lim.add_argument("--r", type=float, default=0.06)
    _add_output_flags(p_lim)
    p_lim.set_defaults(fn=cmd_limits)

    _allow_leading_dash(parser)
    for sub in subs.choices.values():
        _allow_leading_dash(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_threads()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        table, code = args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    _emit(args, table)
    return code


if __name__ == "__main__":
    sys.exit(main())

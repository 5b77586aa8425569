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
samples (InsufficientSamples), 141 stdout closed by its reader (as after
SIGPIPE; nothing is printed).  Each error prints one ``error:`` line on
stderr and no traceback; under ``eval --form all`` a route that raises prints
``error: <route>: <message>`` and loses its column, the other routes' columns
are still written, and the exit code is the first failing route's.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
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
DENSITY_FORMS = ("product", "series")
MARGINAL_FORMS = ("hermite-series", "rogers", "even-series", "edge-product")
FORM_NAMES = (*DENSITY_FORMS, *MARGINAL_FORMS, "all")
# Literals, so that --help imports no numpy; tests pin SUITE_NAMES to
# checks.SUITES, GRAM_FAMILIES to polynomials.FAMILIES and FORM_NAMES to
# densities.DensityForm and MarginalForm.

Row = Tuple[Any, ...]
Table = Tuple[Dict[str, Any], List[str], List[Row]]

RHO_KEYS = ("rho12", "rho13", "rho23")


# The densities `eval` tabulates: name -> (coordinate columns, one grid axis
# each; the options written to the metadata, in order, "rho" as rho12, rho13,
# rho23; the call on the flattened grid) and, for a density with evaluation
# routes, the routes --form picks from, in the column order of --form all,
# and the route taken without it.  A call takes the densities module, so
# that --help imports no numpy, the arguments and one array per column, and
# the route as ``form`` where there are routes; it returns the value column.
EVAL_DENSITIES: Dict[str, Tuple[Any, ...]] = {
    "fN": (("x",), (), lambda dn, a, x: dn.f_n(x, a.q)),
    "fCN": (("x",), ("y", "rho1"), lambda dn, a, x: dn.f_cn(x, a.y, a.rho1, a.q)),
    "fR": (("x",), ("r",), lambda dn, a, x: dn.f_r(x, a.r, a.q)),
    "f3D": (
        ("x", "y", "z"),
        ("rho",),
        lambda dn, a, x, y, z, form: dn.f_3d(
            x, y, z, dn.ModelParams(*a.rho, q=a.q), form=dn.DensityForm(form)
        ),
        DENSITY_FORMS,
        "product",
    ),
    "fYZ": (
        ("y", "z"), ("rho",), lambda dn, a, y, z: dn.f_yz(y, z, dn.ModelParams(*a.rho, q=a.q))
    ),
    "fZ": (
        ("z",),
        ("r",),
        lambda dn, a, z, form: dn.f_z(z, a.r, a.q, form=dn.MarginalForm(form)),
        MARGINAL_FORMS,
        "rogers",
    ),
    "fXgYZ": (
        ("x",),
        ("rho", "y", "z"),
        lambda dn, a, x: dn.f_x_given_yz(x, a.y, a.z, dn.ModelParams(*a.rho, q=a.q)),
    ),
    "fYZgX": (
        ("y", "z"),
        ("rho", "x"),
        lambda dn, a, y, z: dn.f_yz_given_x(y, z, a.x, dn.ModelParams(*a.rho, q=a.q)),
    ),
    "pmKernel": (
        ("x",),
        ("y", "rho1"),
        lambda dn, a, x, form: dn.pm_kernel(x, a.y, a.rho1, a.q, form=dn.DensityForm(form)),
        DENSITY_FORMS,
        "product",
    ),
}
DENSITY_NAMES = tuple(EVAL_DENSITIES)


def _exit_code(exc: Exception) -> int:
    return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def _parse_rho(text: str) -> Tuple[float, float, float]:
    # argparse shows an ArgumentTypeError's message; a plain ValueError it
    # replaces with one naming this function.
    try:
        rho12, rho13, rho23 = (float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs three comma-separated numbers, got {text!r}") from None
    return rho12, rho13, rho23


def _parse_grid(text: str) -> List[Tuple[float, float, int]]:
    """Parse axis specs lo:hi:count, one per axis, separated by ';'."""
    axes = []
    for part in text.split(";"):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"grid spec must be lo:hi:count, got {part!r}")
        lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid endpoints must be finite, got {part!r}")
        if count < 1:
            raise ValueError(f"grid count must be positive, got {count}")
        axes.append((lo, hi, count))
    return axes


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


def cmd_eval(args: argparse.Namespace) -> Tuple[Table, int]:
    import numpy as np

    from . import densities as dn

    coords, options, call, *routing = EVAL_DENSITIES[args.density]
    routes, form = routing or ((), None)
    if args.form is not None:
        if not routes or args.form not in (*routes, "all"):
            raise ValueError(f"{args.density} has no --form {args.form}")
        form = args.form
    meta: Dict[str, Any] = {"command": "eval", "density": args.density, "q": args.q}
    meta["grid"] = args.grid
    meta.update(_shared_metadata())
    for key in options:
        if key == "rho":
            meta.update(zip(RHO_KEYS, args.rho))
        else:
            meta[key] = getattr(args, key)
    if routes:
        meta["form"] = form

    axes = _parse_grid(args.grid)
    dim = len(coords)
    if len(axes) == 1:
        axes = axes * dim
    if len(axes) != dim:
        raise ValueError(f"{args.density} needs {dim} grid axes, got {len(axes)}")
    mesh = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    flat = [m.ravel() for m in mesh]
    code = EXIT_OK
    if form is None:
        values = {"value": call(dn, args, *flat)}
    elif form == "all":
        values = {}
        for route in routes:
            try:
                values[f"value_{route}"] = call(dn, args, *flat, form=route)
            except tuple(EXIT_CODES) as exc:
                print(f"error: {route}: {exc}", file=sys.stderr)
                code = code or _exit_code(exc)
    else:
        values = {"value": call(dn, args, *flat, form=form)}
    columns = [*coords, *values]
    rows = list(zip(*(np.ravel(c).tolist() for c in [*flat, *values.values()])))
    return (meta, columns, rows), code


def _check_points(args: argparse.Namespace) -> List[Tuple[float, float, float, float]]:
    from .checks import SWEEP_Q, SWEEP_RHO

    if args.rho is not None and args.q is not None:
        return [(*args.rho, args.q)]
    if args.rho is not None or args.q is not None:
        raise ValueError("give both --rho and --q, or neither for the default grid")
    return [(*rho, q) for rho in SWEEP_RHO for q in SWEEP_Q]


def cmd_check(args: argparse.Namespace) -> Tuple[Table, int]:
    from dataclasses import fields

    from .checks import VerificationReport, run_suite
    from .densities import ModelParams

    meta: Dict[str, Any] = {"command": "check", "suite": args.suite}
    meta.update(_shared_metadata())
    report_fields = [f.name for f in fields(VerificationReport)]
    rows: List[Row] = []
    all_passed = True
    for point in _check_points(args):
        for rep in run_suite(args.suite, ModelParams(*point), seed=args.seed):
            rows.append((args.suite, *point, *(getattr(rep, name) for name in report_fields)))
            all_passed = all_passed and rep.passed
    columns = ["suite", *RHO_KEYS, "q", *report_fields]
    return (meta, columns, rows), EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_moments(args: argparse.Namespace) -> Tuple[Table, int]:
    from . import moments as mm
    from .densities import ModelParams
    from .polynomials import q_hermite

    q, kind = args.q, args.kind
    meta: Dict[str, Any] = {"command": "moments", "kind": kind, "q": q}
    meta.update(_shared_metadata())
    if kind == "var_z":
        meta["r"] = args.r
        closed = mm.var_z(args.r, q)
        oracle = mm._marginal_moment(lambda z: z * z, args.r, q)
        detail = f"r={_fmt(args.r)}"
    elif kind == "eh2n_z":
        meta["r"], meta["n"] = args.r, args.n
        closed = mm.e_h2n_z(args.n, args.r, q)
        deg = 2 * args.n
        oracle = mm._marginal_moment(lambda z: q_hermite(deg, z, q).values[deg], args.r, q)
        detail = f"n={args.n},r={_fmt(args.r)}"
    else:
        # The kinds read through a MomentSpec: its kind, degrees and points.
        name, degrees, points, detail = {
            "mixed": ("UNCONDITIONAL", (args.m, args.n), (), f"m={args.m},n={args.n}"),
            "cond_x": (
                "COND_X_GIVEN_YZ",
                (args.n,),
                (args.y, args.z),
                f"n={args.n},y={_fmt(args.y)},z={_fmt(args.z)}",
            ),
            "cond_y": ("COND_Y_GIVEN_Z", (args.n,), (args.z,), f"n={args.n},z={_fmt(args.z)}"),
            "cond_xy": ("COND_XY_GIVEN_Z", (args.m, args.n), (args.z,), f"z={_fmt(args.z)}"),
        }[kind]
        meta.update(zip(RHO_KEYS, args.rho))
        spec = mm.MomentSpec(mm.MomentKind[name], degrees, ModelParams(*args.rho, q=q), points)
        closed, oracle = mm.closed_form(spec), mm.quadrature_oracle(spec)
    abs_err = abs(closed - oracle)
    rel_err = abs_err / max(1.0, abs(oracle))
    columns = ["kind", "detail", "closed", "quadrature", "abs_err", "rel_err"]
    return (meta, columns, [(kind, detail, closed, oracle, abs_err, rel_err)]), EXIT_OK


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
    rows = [(i, j, v) for i, row in enumerate(matrix.tolist()) for j, v in enumerate(row)]
    return (meta, columns, rows), EXIT_OK


def cmd_sample(args: argparse.Namespace) -> Tuple[Table, int]:
    from .densities import ModelParams
    from .moments import _covariance
    from .sampler import SamplerConfig, mc_moment, sample_3d, sample_fn

    cfg = SamplerConfig(seed=args.seed, n_samples=args.n, grid_points=args.grid_points)
    meta: Dict[str, Any] = {
        "command": "sample",
        "target": args.target,
        "q": args.q,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "grid_points": cfg.grid_points,
    }
    meta["rng"] = "philox-4x64"
    meta.update(_shared_metadata())
    if args.target == "fn":
        draws = sample_fn(args.q, cfg)
        columns = ["x"]
        stats = [("mean_x", lambda x: x, 0.0), ("var_x", lambda x: x * x, 1.0)]
    else:
        p = ModelParams(*args.rho, q=args.q)
        meta.update(zip(RHO_KEYS, args.rho))
        draws = sample_3d(p, cfg)
        columns = ["x", "y", "z"]
        # The means, then the covariance entries (i, j), i <= j: the
        # diagonal first, then the pairs in order.
        cov = _covariance(p).tolist()
        stats = [(f"mean_{columns[i]}", lambda *v, i=i: v[i], 0.0) for i in range(3)]
        for i, j in [(i, i) for i in range(3)] + list(itertools.combinations(range(3), 2)):
            label = f"var_{columns[i]}" if i == j else f"cov_{columns[i]}{columns[j]}"
            stats.append((label, lambda *v, i=i, j=j: v[i] * v[j], cov[i][j]))
    if not args.summary:
        rows = [tuple(row) for row in draws.reshape(len(draws), -1).tolist()]
        return (meta, columns, rows), EXIT_OK
    rows = []
    for label, fn, target in stats:
        est = mc_moment(draws, fn)
        rows.append((label, est.value, est.std_error, target))
    return (meta, ["stat", "estimate", "std_error", "target"], rows), EXIT_OK


def cmd_limits(args: argparse.Namespace) -> Tuple[Table, int]:
    from .checks import _limit_ratios, limit_series

    qs = tuple(float(t) for t in args.q_seq.split(","))
    meta: Dict[str, Any] = {"command": "limits", "q_seq": args.q_seq, "r": args.r}
    meta.update(_shared_metadata())
    columns = ["check", "q", "error", "ratio"]
    rows: List[Row] = []
    for name, errs in limit_series(args.r, qs).items():
        ratios = ["", *_limit_ratios(errs)]
        rows.extend((name, qq, err, ratio) for qq, err, ratio in zip(qs, errs, ratios))
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
        choices=FORM_NAMES,
        help="evaluation route of fZ (default rogers), f3D or pmKernel (default "
        "product); 'all' tabulates every route side by side",
    )
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        table, code = args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    try:
        _emit(args, table)
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`).  Point its file at
        # os.devnull, so that the flush at exit drops the rest instead of
        # raising again (a stand-in stream has no file), and exit quietly
        # with 128 + SIGPIPE, what a shell reports for such a command.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())

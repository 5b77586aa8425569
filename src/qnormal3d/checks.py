"""Named identity checks over the model, grouped into runnable suites.

Each check compares two routes to the same quantity (closed form against
quadrature, two series against each other, a limit against its target) and
yields one :class:`VerificationReport` row.  Checks that sweep many random
instances report only their worst instance, so a suite stays one row per
named identity no matter how many points it probed.

Suites mirror the verification burden of the whole package: normalization
and marginal consistency, orthogonality, kernel identities, semigroup
composition, moment formulas, conditional moment formulas, and the q -> 0
and q -> 1 limits.  ``run_suite("all", ...)`` concatenates everything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .densities import (
    DensityForm,
    MarginalForm,
    ModelParams,
    _cycle,
    f_3d,
    f_cn,
    f_n,
    f_r,
    f_yz,
    f_z,
    omega,
    pm_kernel,
)
from .moments import (
    CondMomentForm,
    MomentKind,
    MomentSpec,
    _marginal_moment,
    _variance,
    closed_form,
    cond_exp_hn_x_given_yz,
    cond_exp_x_given_yz,
    cond_exp_y2_given_z,
    cond_exp_y_given_z,
    cov_yz,
    quadrature_oracle,
    var_z,
)
from .polynomials import (
    FAMILIES,
    asc_poly,
    default_y,
    hermite_prob,
    triple_product_integral,
)
from .qcore import _check_q, _check_seed, support_halfwidth
from .quadrature import _integrate_cycle, integrate1d, integrate2d

__all__ = [
    "VerificationReport",
    "run_suite",
    "SUITES",
]

TOL_NORM_1D = 1e-8
TOL_NORM_2D = 1e-7
TOL_NORM_3D = 1e-6
TOL_GRAM_DIAG = 1e-7
TOL_GRAM_OFFDIAG = 1e-8
TOL_PM = 1e-9
TOL_CK = 1e-7
TOL_MARGINAL_2D = 1e-7
TOL_MARGINAL_1D = 1e-6
TOL_R_ONLY = 1e-10
TOL_FORMS = 1e-8
TOL_MOMENT = 1e-6
TOL_ODD = 1e-8
TOL_COND_FORMS = 1e-9
TOL_COND_QUAD = 1e-7
TOL_PCM = 1e-9
TOL_KESTEN_MCKAY = 1e-10
TOL_EXACT_Q0 = 1e-10

# The acceptance sweep: eight correlation triples (rho12, rho13, rho23),
# each at five values of q.
SWEEP_RHO = tuple(itertools.product((0.3, -0.3), (0.6, -0.6), (0.3, -0.6)))
SWEEP_Q = (-0.5, 0.0, 0.3, 0.7, 0.9)


@dataclass(frozen=True)
class VerificationReport:
    """One named identity with both sides, both error measures, a verdict,
    and ``err``: the number the verdict compared with ``tol`` (``rel_err`` or
    ``abs_err``, or a limit row's worst ratio), which every ranking reads."""

    name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    err: float
    tol: float
    passed: bool


def _report(
    name: str, lhs: float, rhs: float, tol: float, relative: bool = False
) -> VerificationReport:
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(1.0, abs(rhs))
    err = float(rel_err if relative else abs_err)
    return VerificationReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        err=err,
        tol=tol,
        passed=err <= tol,
    )


def _rank(err: float) -> Tuple[bool, float]:
    """Sort key of an error: a NaN ranks above every number, inf included."""
    return (math.isnan(err), err)


def _worst(
    name: str,
    pairs: Iterable[Tuple[float, float]],
    tol: float,
    relative: bool = False,
) -> VerificationReport:
    """One report for many (lhs, rhs) instances of the same identity: the
    first of the worst.  A NaN error ranks worst, so a NaN probe fails the
    row wherever it falls."""
    reports = [_report(name, lhs, rhs, tol, relative) for lhs, rhs in pairs]
    if not reports:
        raise ValueError(f"check {name} produced no instances")
    return max(reports, key=lambda rep: _rank(rep.err))


def _forms_agree(name: str, route_values: Sequence, tol: float) -> VerificationReport:
    """Agreement of the evaluation routes of one quantity: route_values holds
    each route's values at the same probes, and each probe's instance is
    (largest, smallest) over the routes, compared relatively."""
    vals = np.array(route_values)
    pairs = zip(vals.max(axis=0).tolist(), vals.min(axis=0).tolist())
    return _worst(name, pairs, tol, relative=True)


def _rng(seed: int) -> np.random.Generator:
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed))


def _interior(gen: np.random.Generator, q: float, size: int) -> np.ndarray:
    half = support_halfwidth(q)
    return gen.uniform(-0.95 * half, 0.95 * half, size)


def check_marginals(p: ModelParams, seed: int = 7) -> List[VerificationReport]:
    """Normalization of every density, the marginalization chain, and the
    agreement of the f_3d and f_Z evaluation routes."""
    q = p.q
    y0 = default_y(q)
    norms = (
        ("fN-normalization", integrate1d(lambda x: f_n(x, q), q), TOL_NORM_1D),
        ("fR-normalization", integrate1d(lambda x: f_r(x, p.r, q), q), TOL_NORM_1D),
        ("fCN-normalization", integrate1d(lambda x: f_cn(x, y0, p.rho12, q), q), TOL_NORM_1D),
        ("fYZ-normalization", integrate2d(lambda y, z: f_yz(y, z, p), q), TOL_NORM_2D),
        # f_3d's cyclic factorization, integrated without an n^3 array.
        ("C3D-normalization", _integrate_cycle(*_cycle(p), q), TOL_NORM_3D),
    )
    gen = _rng(seed)
    yz = _interior(gen, q, 20).reshape(10, 2)
    zs = _interior(gen, q, 10)
    zs2 = _interior(gen, q, 10)
    xyz = _interior(gen, q, 15).reshape(5, 3).T
    zs3 = _interior(_rng(seed), q, 10)  # the f_Z routes draw from a fresh stream
    alt = _equal_r_variant(p)
    rows = (
        (
            # Each pair marginal as the (Y, Z) one of a relabelling, at the same probes.
            "f2D-from-f3D",
            (
                (integrate1d(lambda x: f_3d(x, yv, zv, pp), q).value, f_yz(yv, zv, pp))
                for pp in (p.permuted(perm) for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
                for yv, zv in yz
            ),
            TOL_MARGINAL_2D,
        ),
        (
            "fZ-from-f3D",
            (
                (integrate2d(lambda x, y: f_3d(x, y, zv, p), q).value, f_r(zv, p.r, q))
                for zv in zs
            ),
            TOL_MARGINAL_1D,
        ),
        (
            "fZ-r-only",
            ((integrate1d(lambda y: f_yz(y, zv, alt), q).value, f_r(zv, p.r, q)) for zv in zs2),
            TOL_R_ONLY,
        ),
    )
    f3d_routes = [f_3d(*xyz, p, form=f) for f in (DensityForm.PRODUCT, DensityForm.SERIES)]
    fz_routes = [f_z(zs3, p.r, q, form=f) for f in MarginalForm]
    return [
        *(_report(name, integral.value, 1.0, tol) for name, integral, tol in norms),
        *(_worst(*row) for row in rows),
        _forms_agree("f3D-form-agreement", f3d_routes, TOL_FORMS),
        _forms_agree("fZ-form-agreement", fz_routes, TOL_FORMS),
    ]


def _equal_r_variant(p: ModelParams) -> ModelParams:
    """A different correlation triple with the same product r, whose (Y, Z)
    law couples other correlations: fZ-r-only integrates it over y."""
    if not (p.rho12 == p.rho13 == p.rho23):
        return p.permuted((1, 2, 0))
    if p.rho12 == 0.0:
        return ModelParams(0.0, 0.5, 0.0, p.q)
    c = p.rho12
    a = c * (1.0 + abs(c)) / (2.0 * abs(c))
    return ModelParams(rho12=a, rho13=c, rho23=c * c / a, q=p.q)


def check_orthogonality(p: ModelParams) -> List[VerificationReport]:
    """Gram matrix of every family of ``FAMILIES`` against its density,
    to the family's degree; ASC is conditioned at y0 = default_y(q)."""
    q = p.q
    given = {"y": default_y(q), "rho1": p.rho12, "r": p.r}
    out = []
    for name, fam in FAMILIES.items():
        args = [given[key] for key in fam.params]
        gram = fam.gram(fam.degree, *args, q)
        norms = fam.norms(fam.degree, *args, q)
        diag = zip(np.diag(gram).tolist(), norms)
        off = gram[~np.eye(len(gram), dtype=bool)].tolist()
        out.append(_worst(f"gram-{name}-diagonal", diag, TOL_GRAM_DIAG, relative=True))
        out.append(_worst(f"gram-{name}-offdiagonal", ((g, 0.0) for g in off), TOL_GRAM_OFFDIAG))
    return out


def check_poisson_mehler(
    p: ModelParams, seed: int = 7
) -> List[VerificationReport]:
    """Series against product for the bilinear kernel, plus its q-shift."""
    q = p.q
    gen = _rng(seed)
    rho = p.rho13
    xv, yv = _interior(gen, q, 50).reshape(25, 2).T
    series = pm_kernel(xv, yv, rho, q, form=DensityForm.SERIES)
    product = pm_kernel(xv, yv, rho, q, form=DensityForm.PRODUCT)
    shifted = pm_kernel(xv, yv, rho * q, q)
    rhs = omega(xv, yv, rho, q) / ((1.0 - rho**2) * (1.0 - rho**2 * q)) * product
    return [
        _worst("pm-series-vs-product", zip(series.tolist(), product.tolist()), TOL_PM, relative=True),
        _worst("pm-shifted-parameter", zip(shifted.tolist(), rhs.tolist()), TOL_PM, relative=True),
    ]


def check_chapman_kolmogorov(p: ModelParams, seed: int = 7) -> List[VerificationReport]:
    """Composition of two conditional kernels against the product kernel."""
    q = p.q
    gen = _rng(seed)
    pairs = []
    for _ in range(10):
        xv, zv = _interior(gen, q, 2)
        r1 = gen.uniform(-0.8, 0.8)
        r2 = gen.uniform(-0.8, 0.8)
        lhs = integrate1d(
            lambda y: f_cn(xv, y, r1, q) * f_cn(y, zv, r2, q), q
        ).value
        pairs.append((lhs, float(f_cn(xv, zv, r1 * r2, q))))
    return [_worst("ck-semigroup", pairs, TOL_CK)]


def check_moments(p: ModelParams) -> List[VerificationReport]:
    """Closed-form moments against their quadrature oracles."""
    q = p.q
    r = p.r

    def vs_oracle(*degrees: Tuple[int, ...]) -> List[Tuple[float, float]]:
        specs = [MomentSpec(MomentKind.UNCONDITIONAL, d, p) for d in degrees]
        return [(closed_form(s), quadrature_oracle(s)) for s in specs]

    cov = MomentSpec(MomentKind.UNCONDITIONAL, (1, 1), p)
    odd = vs_oracle(*((d,) for d in range(1, 10, 2)))
    rows = (
        ("eh2n-vs-quadrature", vs_oracle((2,), (4,), (6,)), TOL_MOMENT),
        ("varz-vs-quadrature", [(var_z(r, q), _marginal_moment(np.square, r, q))], TOL_MOMENT),
        ("cov-vs-quadrature", [(cov_yz(p), quadrature_oracle(cov))], TOL_MOMENT),
        ("mixed-vs-quadrature", vs_oracle((2, 2), (1, 3), (2, 4)), TOL_MOMENT),
        # The quadrature value is the lhs of this row: odd moments vanish.
        ("odd-moments-vanish", [(oracle, closed) for closed, oracle in odd], TOL_ODD),
    )
    return [_worst(*row) for row in rows]


def check_conditionals(p: ModelParams, seed: int = 7) -> List[VerificationReport]:
    """Conditional moment formulas against each other and quadrature."""
    q = p.q
    gen = _rng(seed)
    x_on_yz, y_on_z = MomentKind.COND_X_GIVEN_YZ, MomentKind.COND_Y_GIVEN_Z
    condx = [MomentSpec(x_on_yz, (n,), p, tuple(_interior(gen, q, 2))) for n in range(6)]
    condy = [MomentSpec(y_on_z, (n,), p, (float(_interior(gen, q, 1)[0]),)) for n in range(1, 5)]
    ex = MomentSpec(x_on_yz, (1,), p, tuple(_interior(gen, q, 2)))
    z1 = (float(_interior(gen, q, 1)[0]),)
    cyz, cy2z = (MomentSpec(y_on_z, (n,), p, z1) for n in (1, 2))
    cconv = MomentSpec(MomentKind.COND_XY_GIVEN_Z, (1, 1), p, z1)
    # Each row pairs closed values with the moment requests whose quadrature
    # oracles they must match.
    rows = (
        ("condx-vs-quadrature", [(closed_form(s), s) for s in condx]),
        ("condy-vs-quadrature", [(closed_form(s), s) for s in condy]),
        ("ex-vs-quadrature", [(cond_exp_x_given_yz(*ex.points, p), ex)]),
        ("cyz-vs-quadrature", [(cond_exp_y_given_z(*z1, p), cyz)]),
        ("cy2z-vs-quadrature", [(cond_exp_y2_given_z(*z1, p) - 1.0, cy2z)]),
        ("cconv-vs-quadrature", [(closed_form(cconv), cconv)]),
    )
    routes = [
        [cond_exp_hn_x_given_yz(s.degrees[0], *s.points, p, form) for s in condx]
        for form in CondMomentForm
    ]
    return [
        _forms_agree("condx-forms-agree", routes, TOL_COND_FORMS),
        *(
            _worst(name, ((v, quadrature_oracle(s)) for v, s in pairs), TOL_COND_QUAD)
            for name, pairs in rows
        ),
        _worst("pcm-degree-fit", ((_pcm_residual(n, p), 0.0) for n in range(1, 5)), TOL_PCM),
    ]


def _pcm_residual(n: int, p: ModelParams) -> float:
    """Largest mixed difference of order n + 1 of E(H_n(X) | y, z).

    T is the (m, m) table of the moment on m = 2n + 5 equispaced points
    over +-0.85 L in each of z (rows) and y (columns).  A table is a
    polynomial of total degree <= n exactly when every difference
    D_y^a D_z^(n+1-a) T, a = 0..n+1, vanishes, so the residual is the
    largest |entry| among them.
    """
    m = 2 * n + 5
    half = support_halfwidth(p.q)
    grid = np.linspace(-0.85 * half, 0.85 * half, m)
    target = cond_exp_hn_x_given_yz(n, grid, grid[:, None], p)
    diffs = (np.diff(np.diff(target, a, axis=1), n + 1 - a, axis=0) for a in range(n + 2))
    return max(float(np.max(np.abs(d))) for d in diffs)


def kesten_mckay_density(x, r: float):
    """The q = 0 one-coordinate marginal in closed form."""
    xv = np.asarray(x, dtype=float)
    edge = np.clip(4.0 - xv * xv, 0.0, None)
    return (1.0 + r) * np.sqrt(edge) / (2.0 * math.pi * ((1.0 + r) ** 2 - r * xv * xv))


def check_limits(
    p: ModelParams, seed: int = 7
) -> List[VerificationReport]:
    """Behaviour at q = 0 (exact forms) and q -> 1 (Gaussian targets)."""
    r = p.r
    xs = _rng(seed).uniform(-1.9, 1.9, 10)
    # At q = 0 a triple product is 1 when (k, m, n) is a triangle of even
    # perimeter and 0 otherwise.
    triangle = []
    for kmn in itertools.product(range(4), repeat=3):
        exact = sum(kmn) % 2 == 0 and 2 * max(kmn) <= sum(kmn)
        triangle.append((triple_product_integral(*kmn, 0.0), float(exact)))
    # At q = 0 every q-Hermite norm [n]_0! is 1: the Gram matrix is exactly I.
    hermite, n_h = FAMILIES["qhermite"], 6
    miss = hermite.gram(n_h, 0.0) - np.diag(hermite.norms(n_h, 0.0))
    return [
        _worst(
            "kesten-mckay-closed-form",
            zip(f_z(xs, r, 0.0).tolist(), kesten_mckay_density(xs, r).tolist()),
            TOL_KESTEN_MCKAY,
        ),
        _worst("q0-triple-product-exact", triangle, TOL_EXACT_Q0),
        _report("q0-gram-exact", float(np.max(np.abs(miss))), 0.0, TOL_EXACT_Q0),
        *(_limit_row(name, errs) for name, errs in limit_series(r, LIMIT_Q_SEQUENCE).items()),
    ]


LIMIT_Q_SEQUENCE = (0.9, 0.99, 0.999)


def limit_series(r: float, qs: Tuple[float, ...]) -> Dict[str, Tuple[float, ...]]:
    """The three Gaussian-limit error series along qs, by report name."""
    for qq in qs:
        _check_q(qq)
    return {
        "fn-gaussian-limit": fn_limit_errors(qs),
        "asc-hermite-limit": asc_limit_errors(qs),
        "var-limit": var_limit_errors(r, qs),
    }


def fn_limit_errors(qs: Tuple[float, ...]) -> Tuple[float, ...]:
    """Sup-norm distance of f_N(.|q) from the standard normal density on
    |x| < 5, for each q of the sequence."""
    errs = []
    for qq in qs:
        half = support_halfwidth(qq)
        xs = np.linspace(-0.999 * half, 0.999 * half, 801)
        xs = xs[np.abs(xs) < 5.0]
        gauss = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        errs.append(float(np.max(np.abs(f_n(xs, qq) - gauss))))
    return tuple(errs)


def asc_limit_errors(qs: Tuple[float, ...]) -> Tuple[float, ...]:
    """Distance of the Al-Salam-Chihara polynomial P_3(0.5 | -0.3, 0.6, q)
    from its scaled-Hermite limit, for each q of the sequence."""
    errs = []
    xv, yv, rho, n = 0.5, -0.3, 0.6, 3
    sd = math.sqrt(1.0 - rho * rho)
    target = sd**n * hermite_prob(n, (xv - rho * yv) / sd).values[n]
    for qq in qs:
        val = asc_poly(n, xv, yv, rho, qq).values[n]
        errs.append(abs(float(val) - float(target)))
    return tuple(errs)


def var_limit_errors(r: float, qs: Tuple[float, ...]) -> Tuple[float, ...]:
    """Distance of the marginal variance from its Gaussian limit
    (1 + r) / (1 - r), for each q of the sequence."""
    return tuple(abs(var_z(r, qq) - _variance(r, 1.0)) for qq in qs)


def _limit_ratios(errs: Sequence[float]) -> List[float]:
    """Ratio of each error of a q -> 1 series to the one before it.

    A step from an error of exactly 0 has ratio 0 when the next error is 0
    too, since the series already sits at its limit, and inf otherwise.
    """
    return [
        b / a if a else (0.0 if b == 0.0 else math.inf) for a, b in zip(errs, errs[1:])
    ]


def _limit_row(name: str, errs: Sequence[float]) -> VerificationReport:
    """Strict error decrease along the q -> 1 sequence, as one report row.

    lhs and err are the worst consecutive error ratio, by :func:`_limit_ratios`;
    the row passes when every step shrinks, i.e. the worst ratio stays below one.
    """
    worst = float(max(_limit_ratios(errs), key=_rank))
    return VerificationReport(
        name=name,
        lhs=worst,
        rhs=1.0,
        abs_err=worst,
        rel_err=worst,
        err=worst,
        tol=1.0,
        passed=worst < 1.0,
    )


# Every suite takes (p, seed); the two checks without random probes drop it.
SUITES: Dict[str, Callable[[ModelParams, int], List[VerificationReport]]] = {
    "orthogonality": lambda p, seed: check_orthogonality(p),
    "marginals": check_marginals,
    "chapman-kolmogorov": check_chapman_kolmogorov,
    "poisson-mehler": check_poisson_mehler,
    "moments": lambda p, seed: check_moments(p),
    "conditionals": check_conditionals,
    "limits": check_limits,
}


def run_suite(name: str, p: ModelParams, seed: int = 7) -> List[VerificationReport]:
    """Run one named suite (or ``all``) at a single parameter point."""
    _check_seed(seed)  # in every suite, those that draw no random probe included
    if name == "all":
        out: List[VerificationReport] = []
        for suite in SUITES.values():
            out.extend(suite(p, seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](p, seed)

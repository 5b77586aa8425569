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
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .densities import (
    DensityForm,
    MarginalForm,
    ModelParams,
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
    cond_exp_hn_y_given_z,
    cond_exp_x_given_yz,
    cond_exp_xy_given_z,
    cond_exp_y2_given_z,
    cond_exp_y_given_z,
    cov_yz,
    e_h2n_z,
    quadrature_oracle,
    var_z,
)
from .polynomials import (
    asc_poly,
    hermite_prob,
    q_hermite,
    rogers_monic,
    triple_product_integral,
)
from .qcore import q_factorial, q_pochhammer, support_halfwidth
from .quadrature import gram_matrix, integrate1d, integrate2d, integrate3d

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
    """One named identity with both sides, both error measures, a verdict."""

    name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool


def _report(
    name: str, lhs: float, rhs: float, tol: float, relative: bool = False
) -> VerificationReport:
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(1.0, abs(rhs))
    err = rel_err if relative else abs_err
    return VerificationReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        tol=tol,
        passed=bool(err <= tol),
    )


def _worst(
    name: str,
    pairs: Iterable[Tuple[float, float]],
    tol: float,
    relative: bool = False,
) -> VerificationReport:
    """One report for many instances of the same identity: the worst one."""
    best: VerificationReport | None = None
    for lhs, rhs in pairs:
        rep = _report(name, lhs, rhs, tol, relative)
        key = rep.rel_err if relative else rep.abs_err
        if best is None or key > (best.rel_err if relative else best.abs_err):
            best = rep
    if best is None:
        raise ValueError(f"check {name} produced no instances")
    return best


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _interior(gen: np.random.Generator, q: float, size: int) -> np.ndarray:
    half = support_halfwidth(q)
    return gen.uniform(-0.95 * half, 0.95 * half, size)


def check_marginals(p: ModelParams, seed: int = 7) -> List[VerificationReport]:
    """Normalization of every density, the marginalization chain, and the
    agreement of the f_3d and f_Z evaluation routes."""
    q = p.q
    gen = _rng(seed)
    out = [
        _report("fN-normalization", integrate1d(lambda x: f_n(x, q), q).value, 1.0, TOL_NORM_1D),
        _report("fR-normalization", integrate1d(lambda x: f_r(x, p.r, q), q).value, 1.0, TOL_NORM_1D),
    ]
    y0 = 0.37 * support_halfwidth(q)
    out.append(
        _report(
            "fCN-normalization",
            integrate1d(lambda x: f_cn(x, y0, p.rho12, q), q).value,
            1.0,
            TOL_NORM_1D,
        )
    )
    out.append(
        _report(
            "fYZ-normalization",
            integrate2d(lambda y, z: f_yz(y, z, p), q).value,
            1.0,
            TOL_NORM_2D,
        )
    )
    out.append(
        _report(
            "C3D-normalization",
            integrate3d(lambda x, y, z: f_3d(x, y, z, p), q).value,
            1.0,
            TOL_NORM_3D,
        )
    )
    pts = _interior(gen, q, 20).reshape(10, 2)
    out.append(
        _worst(
            "fYZ-from-f3D",
            (
                (integrate1d(lambda x: f_3d(x, yv, zv, p), q).value, f_yz(yv, zv, p))
                for yv, zv in pts
            ),
            TOL_MARGINAL_2D,
        )
    )
    zs = _interior(gen, q, 10)
    out.append(
        _worst(
            "fZ-from-f3D",
            (
                (integrate2d(lambda x, y: f_3d(x, y, zv, p), q).value, f_r(zv, p.r, q))
                for zv in zs
            ),
            TOL_MARGINAL_1D,
        )
    )
    zs2 = _interior(gen, q, 10)
    alt = _equal_r_variant(p)
    out.append(
        _worst(
            "fZ-r-only",
            zip(f_z(zs2, alt.r, q).tolist(), f_z(zs2, p.r, q).tolist()),
            TOL_R_ONLY,
        )
    )
    out.append(_form_agreement(p, gen))
    return out + check_fz_forms(p, seed)


def _equal_r_variant(p: ModelParams) -> ModelParams:
    """A different correlation triple with the same product."""
    if not (p.rho12 == p.rho13 == p.rho23):
        return ModelParams(rho12=p.rho23, rho13=p.rho12, rho23=p.rho13, q=p.q)
    if p.rho12 == 0.0:
        return ModelParams(0.0, 0.5, 0.0, p.q)
    c = p.rho12
    a = c * (1.0 + abs(c)) / (2.0 * abs(c))
    return ModelParams(rho12=a, rho13=c, rho23=c * c / a, q=p.q)


def _spread(forms: Sequence[np.ndarray]) -> Iterable[Tuple[float, float]]:
    """(largest, smallest) over the evaluation routes at each probe point."""
    vals = np.array(forms)
    return zip(vals.max(axis=0).tolist(), vals.min(axis=0).tolist())


def _form_agreement(p: ModelParams, gen: np.random.Generator) -> VerificationReport:
    xv, yv, zv = _interior(gen, p.q, 15).reshape(5, 3).T
    pairs = _spread([f_3d(xv, yv, zv, p, form=f) for f in DensityForm])
    return _worst("f3D-form-agreement", pairs, TOL_FORMS, relative=True)


def check_fz_forms(
    p: ModelParams, seed: int = 7
) -> List[VerificationReport]:
    """Pairwise agreement of the four marginal evaluation routes."""
    zs = _interior(_rng(seed), p.q, 10)
    pairs = _spread([f_z(zs, p.r, p.q, form=f) for f in MarginalForm])
    return [_worst("fZ-form-agreement", pairs, TOL_FORMS, relative=True)]


def check_orthogonality(p: ModelParams) -> List[VerificationReport]:
    """Gram matrices of the three families against their densities."""
    q = p.q
    out = []
    n_h = 10
    gram = gram_matrix(
        lambda xs: q_hermite(n_h, xs, q).values, lambda xs: f_n(xs, q), n_h, q
    )
    diag = np.array([q_factorial(n, q) for n in range(n_h + 1)])
    out.append(_diag_report("gram-qhermite-diagonal", gram, diag))
    out.append(_offdiag_report("gram-qhermite-offdiagonal", gram))

    n_a = 8
    y0 = 0.37 * support_halfwidth(q)
    rho = p.rho12
    gram = gram_matrix(
        lambda xs: asc_poly(n_a, xs, y0, rho, q).values,
        lambda xs: f_cn(xs, y0, rho, q),
        n_a,
        q,
    )
    diag = np.array(
        [q_pochhammer(rho * rho, q, n) * q_factorial(n, q) for n in range(n_a + 1)]
    )
    out.append(_diag_report("gram-asc-diagonal", gram, diag))
    out.append(_offdiag_report("gram-asc-offdiagonal", gram))

    r = p.r
    gram = gram_matrix(
        lambda xs: rogers_monic(n_a, xs, r, q).values,
        lambda xs: f_r(xs, r, q),
        n_a,
        q,
    )
    diag = np.array(
        [
            q_factorial(n, q)
            * (1.0 - r)
            * q_pochhammer(r * r, q, n)
            / (q_pochhammer(r, q, n) * q_pochhammer(r, q, n + 1))
            for n in range(n_a + 1)
        ]
    )
    out.append(_diag_report("gram-rogers-diagonal", gram, diag))
    out.append(_offdiag_report("gram-rogers-offdiagonal", gram))
    return out


def _diag_report(name: str, gram: np.ndarray, expected: np.ndarray) -> VerificationReport:
    idx = int(np.argmax(np.abs(np.diag(gram) - expected) / np.abs(expected)))
    return _report(name, float(gram[idx, idx]), float(expected[idx]), TOL_GRAM_DIAG, relative=True)


def _offdiag_report(name: str, gram: np.ndarray) -> VerificationReport:
    off = gram - np.diag(np.diag(gram))
    flat = int(np.argmax(np.abs(off)))
    return _report(name, float(off.flat[flat]), 0.0, TOL_GRAM_OFFDIAG)


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

    def h(deg: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda z: q_hermite(deg, z, q).values[deg]

    mixed = [MomentSpec(MomentKind.UNCONDITIONAL, d, p) for d in ((2, 2), (1, 3), (2, 4))]
    return [
        _worst(
            "eh2n-vs-quadrature",
            ((e_h2n_z(n, r, q), _marginal_moment(h(2 * n), r, q)) for n in (1, 2, 3)),
            TOL_MOMENT,
        ),
        _report(
            "varz-vs-quadrature", var_z(r, q), _marginal_moment(lambda z: z * z, r, q), TOL_MOMENT
        ),
        _report(
            "cov-vs-quadrature",
            cov_yz(p),
            quadrature_oracle(MomentSpec(MomentKind.UNCONDITIONAL, (1, 1), p)),
            TOL_MOMENT,
        ),
        _worst(
            "mixed-vs-quadrature",
            ((closed_form(s), quadrature_oracle(s)) for s in mixed),
            TOL_MOMENT,
        ),
        _worst(
            "odd-moments-vanish",
            ((_marginal_moment(h(2 * n + 1), r, q), 0.0) for n in range(5)),
            TOL_ODD,
        ),
    ]


def check_conditionals(p: ModelParams, seed: int = 7) -> List[VerificationReport]:
    """Conditional moment formulas against each other and quadrature."""
    q = p.q
    gen = _rng(seed)
    out = []
    form_pairs = []
    quad_pairs = []
    for n in range(6):
        yv, zv = _interior(gen, q, 2)
        v1 = cond_exp_hn_x_given_yz(n, yv, zv, p.rho12, p.rho13, q, CondMomentForm.ASC_EXPANSION)
        v2 = cond_exp_hn_x_given_yz(n, yv, zv, p.rho12, p.rho13, q, CondMomentForm.DOUBLE_SUM)
        v3 = cond_exp_hn_x_given_yz(n, yv, zv, p.rho12, p.rho13, q, CondMomentForm.ASC_IMAGE)
        form_pairs.append((max(v1, v2, v3), min(v1, v2, v3)))
        oracle = quadrature_oracle(
            MomentSpec(MomentKind.COND_X_GIVEN_YZ, (n,), p, (yv, zv))
        )
        quad_pairs.append((v1, oracle))
    out.append(_worst("condx-forms-agree", form_pairs, TOL_COND_FORMS, relative=True))
    out.append(_worst("condx-vs-quadrature", quad_pairs, TOL_COND_QUAD))

    pairs = []
    for n in range(1, 5):
        zv = float(_interior(gen, q, 1)[0])
        oracle = quadrature_oracle(
            MomentSpec(MomentKind.COND_Y_GIVEN_Z, (n,), p, (zv,))
        )
        pairs.append((cond_exp_hn_y_given_z(n, zv, p), oracle))
    out.append(_worst("condy-vs-quadrature", pairs, TOL_COND_QUAD))

    yv, zv = _interior(gen, q, 2)
    oracle = quadrature_oracle(MomentSpec(MomentKind.COND_X_GIVEN_YZ, (1,), p, (yv, zv)))
    out.append(
        _report(
            "ex-vs-quadrature",
            cond_exp_x_given_yz(yv, zv, p.rho12, p.rho13, q),
            oracle,
            TOL_COND_QUAD,
        )
    )
    zv = float(_interior(gen, q, 1)[0])
    oracle = quadrature_oracle(MomentSpec(MomentKind.COND_Y_GIVEN_Z, (1,), p, (zv,)))
    out.append(_report("cyz-vs-quadrature", cond_exp_y_given_z(zv, p), oracle, TOL_COND_QUAD))
    oracle = quadrature_oracle(MomentSpec(MomentKind.COND_Y_GIVEN_Z, (2,), p, (zv,)))
    out.append(
        _report(
            "cy2z-vs-quadrature",
            cond_exp_y2_given_z(zv, p) - 1.0,
            oracle,
            TOL_COND_QUAD,
        )
    )
    oracle = quadrature_oracle(MomentSpec(MomentKind.COND_XY_GIVEN_Z, (1, 1), p, (zv,)))
    out.append(_report("cconv-vs-quadrature", cond_exp_xy_given_z(zv, p), oracle, TOL_COND_QUAD))

    pairs = []
    for n in range(1, 5):
        pairs.append((_pcm_residual(n, p), 0.0))
    out.append(_worst("pcm-degree-fit", pairs, TOL_PCM))
    return out


def _pcm_residual(n: int, p: ModelParams) -> float:
    """Least-squares residual of a total-degree-n fit to E(H_n(X) | y, z)."""
    half = support_halfwidth(p.q)
    grid = np.linspace(-0.85 * half, 0.85 * half, 2 * n + 5)
    yg, zg = np.meshgrid(grid, grid)
    cols = [
        (yg**i * zg**j).ravel()
        for i in range(n + 1)
        for j in range(n + 1 - i)
    ]
    design = np.array(cols).T
    target = cond_exp_hn_x_given_yz(n, yg.ravel(), zg.ravel(), p.rho12, p.rho13, p.q)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(np.linalg.norm(design @ coef - target))


def kesten_mckay_density(x, r: float):
    """The q = 0 one-coordinate marginal in closed form."""
    xv = np.asarray(x, dtype=float)
    edge = np.clip(4.0 - xv * xv, 0.0, None)
    return (1.0 + r) * np.sqrt(edge) / (2.0 * math.pi * ((1.0 + r) ** 2 - r * xv * xv))


def _triple_product_exact_q0(k: int, m: int, n: int) -> float:
    if (k + m + n) % 2 or k + m < n or m + n < k or n + k < m:
        return 0.0
    return 1.0


def check_limits(
    p: ModelParams, seed: int = 7
) -> List[VerificationReport]:
    """Behaviour at q = 0 (exact forms) and q -> 1 (Gaussian targets)."""
    gen = _rng(seed)
    out = []
    r = p.r
    xs = gen.uniform(-1.9, 1.9, 10)
    out.append(
        _worst(
            "kesten-mckay-closed-form",
            zip(f_z(xs, r, 0.0).tolist(), kesten_mckay_density(xs, r).tolist()),
            TOL_KESTEN_MCKAY,
        )
    )
    pairs = []
    for k in range(4):
        for m in range(4):
            for n in range(4):
                exact = _triple_product_exact_q0(k, m, n)
                pairs.append((triple_product_integral(k, m, n, 0.0), exact))
    out.append(_worst("q0-triple-product-exact", pairs, TOL_EXACT_Q0))
    n_h = 6
    gram = gram_matrix(
        lambda vs: q_hermite(n_h, vs, 0.0).values, lambda vs: f_n(vs, 0.0), n_h, 0.0
    )
    exact_gram = np.eye(n_h + 1)
    out.append(
        _report(
            "q0-gram-exact",
            float(np.max(np.abs(gram - exact_gram))),
            0.0,
            TOL_EXACT_Q0,
        )
    )

    out.append(_limit_row("fn-gaussian-limit", fn_limit_errors(LIMIT_Q_SEQUENCE)))
    out.append(_limit_row("asc-hermite-limit", asc_limit_errors(LIMIT_Q_SEQUENCE)))
    out.append(_limit_row("var-limit", var_limit_errors(r, LIMIT_Q_SEQUENCE)))
    return out


LIMIT_Q_SEQUENCE = (0.9, 0.99, 0.999)


@lru_cache
def fn_limit_errors(qs: Tuple[float, ...]) -> Tuple[float, ...]:
    """Sup-norm distance of f_N(.|q) from the standard normal density on
    |x| < 5, for each q of the sequence.  Cached: it does not depend on the
    correlations, and f_N near q = 1 multiplies tens of thousands of factors.
    """
    errs = []
    for qq in qs:
        half = support_halfwidth(qq)
        xs = np.linspace(-0.999 * half, 0.999 * half, 801)
        xs = xs[np.abs(xs) < 5.0]
        gauss = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        errs.append(float(np.max(np.abs(f_n(xs, qq) - gauss))))
    return tuple(errs)


@lru_cache
def asc_limit_errors(qs: Tuple[float, ...]) -> Tuple[float, ...]:
    """Distance of the Al-Salam-Chihara polynomial P_3(0.5 | -0.3, 0.6, q)
    from its scaled-Hermite limit, for each q of the sequence.  Cached like
    fn_limit_errors."""
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


def _limit_row(name: str, errs: Sequence[float]) -> VerificationReport:
    """Strict error decrease along the q -> 1 sequence, as one report row.

    lhs is the worst consecutive error ratio; the row passes when every
    step shrinks, i.e. the worst ratio stays below one.
    """
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    worst = max(ratios)
    return VerificationReport(
        name=name,
        lhs=float(worst),
        rhs=1.0,
        abs_err=float(worst),
        rel_err=float(worst),
        tol=1.0,
        passed=bool(worst < 1.0),
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
    if name == "all":
        out: List[VerificationReport] = []
        for suite in SUITES.values():
            out.extend(suite(p, seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](p, seed)

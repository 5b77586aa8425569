"""Densities of the three-dimensional q-Normal family.

The univariate q-Normal density on S(q) = [-2/sqrt(1-q), 2/sqrt(1-q)]:

    f_N(x|q) = (q;q)_inf sqrt(1-q) sqrt(4 - (1-q) x^2) / (2 pi)
               * prod_{i>=1} l(x | q^i)

with the quadratic kernel l(x|a) = (1+a)^2 - (1-q) a x^2.  Conditioning one
q-Normal coordinate on another with correlation rho multiplies f_N by

    (rho^2; q)_inf / prod_{i>=0} w(x, y | rho q^i),

    w(x, y|r) = (1-r^2)^2 - (1-q) x y r (1+r^2) + (1-q) r^2 (x^2 + y^2),

and the trivariate density with correlations (rho12, rho13, rho23) is the
cyclic product of three such conditionals times the normalizing constant
1 - rho12 rho13 rho23.

All infinite products and the constants in front of them are accumulated in
log space: near q = 1 the products grow past the double range while the
densities themselves stay perfectly representable.

With x = L cos(t) (L the support half-width), f_N is a Jacobi theta
function, f_N = sqrt(1-q) theta_1(t, sqrt(q)) / (2 pi q^(1/8)).  For
q > 0.2 it is evaluated by Jacobi's imaginary transformation, which needs
no product while the product above needs ~1/(1-q) factors; at and below
0.2 the product is kept.  Both write the edge factor as log sin(t), so f_N
is exactly 0 at the edge.

Both kernels are |1 - a e^{i theta}|^2 forms, at theta = 2t for l(x|a) and
at theta = t +- s for w(x, y|a) with y = L cos(s), so both products,
sum_i log l(x | a q^i) and sum_i log w(x, y | a q^i), have the same
Chebyshev coefficients c_n = 4 a^n / (n (1-q^n)).  Each is evaluated by one
factor loop in the angles (F factors, F growing like 1/(1-q), multiplied
in blocks with one log per block) or by one Chebyshev series (N terms,
N depending on |a| alone), under one rule: the series when N <= F, the
factors otherwise (|a| -> 1 at moderate q).  pm_kernel's product form and
f_Z's edge-product form always take the factors, as the references the
other forms are checked against.

Point arguments accept scalars or broadcastable numpy arrays, except the
scalar y and z of aw_parameters.  Unconditional densities, and f_cn in x,
extend by zero outside the support; f_x_given_yz, f_yz_given_x, pm_kernel
and the complex parameter map raise DomainError instead.  A NaN evaluation
point gives NaN in every form, while the other points of the same array
still evaluate.  A NaN conditioning point (y of f_cn, y and z of
f_x_given_yz and of aw_parameters, x of f_yz_given_x) or kernel argument
raises DomainError with a message that names NaN.  These tests, and those
of q and the correlations, are qcore's validity rule.
Whatever reads the law of X given (Y, Z) = (y, z), here or in moments, takes
ModelParams, reads rho12, rho13 and q from it and checks (y, z) by _require_yz.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditioning, NonConvergence
from .qcore import (
    MAX_TERMS,
    PRODUCT_TOL,
    TAIL_TOL,
    _check_q,
    _check_rho,
    _factors_needed,
    _require_support,
    log_q_pochhammer_inf,
    support_halfwidth,
)

__all__ = [
    "ModelParams",
    "DensityForm",
    "MarginalForm",
    "omega",
    "f_n",
    "f_cn",
    "f_r",
    "f_3d",
    "f_yz",
    "f_z",
    "f_x_given_yz",
    "f_yz_given_x",
    "pm_kernel",
    "aw_parameters",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_HALF_EPS = 0.5 * np.finfo(float).eps
_BLOCK = 32
# f_N takes Jacobi's imaginary transformation above this q, the product
# formula at and below it.
_THETA_MIN_Q = 0.2

# Agreement tolerances for alternative evaluation routes of one density.
FORM_RTOL = 1e-8
FORM_ATOL = 1e-12
# Stop of the bilinear kernel series, which its forms test at 1e-12 absolute.
_PM_TAIL_TOL = 1e-14


class DensityForm(enum.Enum):
    PRODUCT = "product"
    SERIES = "series"
    # The product route under a second name, which callers still pass.
    CLOSED = "closed"


class MarginalForm(enum.Enum):
    """Evaluation routes for the one-dimensional marginal f_Z."""

    HERMITE_SERIES = "hermite-series"
    ROGERS = "rogers"
    EVEN_SERIES = "even-series"
    EDGE_PRODUCT = "edge-product"


@dataclass(frozen=True)
class ModelParams:
    """Correlations and deformation parameter of the trivariate model."""

    rho12: float
    rho13: float
    rho23: float
    q: float

    def __post_init__(self) -> None:
        for name in ("rho12", "rho13", "rho23"):
            _check_rho(getattr(self, name), name)
        _check_q(self.q)

    @property
    def r(self) -> float:
        """Product of the three correlations; normalizer is 1 - r."""
        return self.rho12 * self.rho13 * self.rho23

    def permuted(self, perm: tuple[int, int, int]) -> ModelParams:
        """The parameters of the coordinates (c_perm[0], c_perm[1], c_perm[2]):
        rho'_ij = rho_{perm[i] perm[j]}.  Under one of these, each pair marginal
        is f_yz, and each coordinate given the other two is f_x_given_yz."""
        if tuple(perm) not in itertools.permutations(range(3)):
            raise ValueError(f"perm must be a permutation of (0, 1, 2), got {perm!r}")
        # Each correlation indexed by the coordinate its pair leaves out.
        left_out = (self.rho23, self.rho13, self.rho12)
        i, j, k = perm
        return ModelParams(left_out[k], left_out[j], left_out[i], self.q)


def _given_z(p: ModelParams) -> ModelParams:
    """The parameters under which Y given Z = z is X given (Y, Z) = (z, z):
    f_yz(y, z) / f_z(z) = f_cn(y|z; rho23) f_cn(z|y; rho12 rho13) / f_cn(z|z; r)."""
    return ModelParams(p.rho23, p.rho12 * p.rho13, 0.0, p.q)


def _require_yz(y, z, q: float) -> float:
    """The support check of the conditioning points of X given (Y, Z) =
    (y, z), y first; returns the support half-width."""
    half = support_halfwidth(q)
    _require_support(y, half, "conditioning point y")
    _require_support(z, half, "conditioning point z")
    return half


def _points(*xs) -> tuple[list[np.ndarray], bool]:
    arrs = [np.asarray(x, dtype=float) for x in xs]
    scalar = all(a.ndim == 0 for a in arrs)
    return arrs, scalar


def _ret(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def omega(x, y, rho: float, q: float):
    """Coupling kernel w(x,y|rho) of the conditional density products."""
    _check_q(q)
    _check_rho(rho)  # a polynomial in (x, y): no support check
    (xb, yb), scalar = _points(x, y)
    val = (
        (1.0 - rho**2) ** 2
        - (1.0 - q) * xb * yb * rho * (1.0 + rho**2)
        + (1.0 - q) * rho**2 * (xb**2 + yb**2)
    )
    return _ret(val, scalar)


def _kernel_terms(rho: float, q: float, cap: int) -> int | None:
    """Smallest N <= cap at which the tail bound of the Chebyshev kernel
    series, 4|rho|^(N+1) / ((N+1)(1-|q|^(N+1))(1-|rho|)), is below
    PRODUCT_TOL; None when the bound at N = cap is not below it yet."""
    a, b = abs(rho), abs(q)

    def spent(n: int) -> bool:
        return 4.0 * a ** (n + 1) < PRODUCT_TOL * (n + 1) * (1.0 - b ** (n + 1)) * (1.0 - a)

    if not spent(cap):
        return None
    lo, hi = 0, cap  # the bound decreases in n, so bisect for the first spent n
    while lo < hi:
        mid = (lo + hi) // 2
        if spent(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _kernel_coefficients(rho: float, q: float, terms: int) -> np.ndarray:
    """c_n = 4 rho^n / (n (1-q^n)) for n = 1..terms, the Chebyshev
    coefficients of the log Poisson-Mehler kernel, -sum_i log w(x, y | rho q^i)
    = sum_n c_n T_n(x/L) T_n(y/L); rho^n and q^n are running products."""
    n = np.arange(1, terms + 1)
    rho_n = np.cumprod(np.full(terms, rho))
    q_n = np.cumprod(np.full(terms, q))
    return 4.0 * rho_n / (n * (1.0 - q_n))


def _cosine(x: np.ndarray, q: float) -> np.ndarray:
    """u = x / L = cos(t), clipped to [-1, 1]."""
    return np.clip(x / support_halfwidth(q), -1.0, 1.0)


def _log_factors(a0: float, q: float, t: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """sum_{i>=0} log of the kernel factors at a = a0 q^i, one at a time:
    l(x | a) for x = L cos(t), or w(x, y | a) with y = L cos(s) as well.

    Each kernel is a product of forms |1 - a e^{2ih}|^2 = (1-a)^2 +
    4a sin^2(h) for a >= 0, with half-angle h = t for l and h = (t+s)/2,
    (t-s)/2 for w; for a < 0 they are (1-|a|)^2 + 4|a| cos^2(h), the
    half-angles in reverse order (x -> -x).  Both are sums of non-negative
    terms: the quadratic forms in x and y cancel as |a| -> 1 at the edges of
    the support, these do not.  The forms are multiplied in blocks of
    _BLOCK and the log is taken once per block, which keeps the log
    overhead negligible.
    """
    n = _factors_needed(16.0 * a0, q)
    halves = (t,) if s is None else (0.5 * (t + s), 0.5 * (t - s))
    shape = np.broadcast_shapes(*(h.shape for h in halves))
    # The signs of a0 q^i repeat with period two, so the first two factors
    # tell which of the two form sets the loop reads; build only those.
    first = (a0, a0 * q)[:n]
    same = flipped = None
    if any(a >= 0.0 for a in first):
        same = [np.sin(h) ** 2 for h in halves]
    if any(a < 0.0 for a in first):
        flipped = [np.cos(h) ** 2 for h in halves[::-1]]
    del halves
    total = np.zeros(shape)
    block = np.ones(shape)
    scaled = np.empty(shape)
    count = 0
    a = a0
    for _ in range(n):
        b = abs(a)
        c, d = (1.0 - b) ** 2, 4.0 * b
        for form in same if a >= 0.0 else flipped:
            np.multiply(form, d, out=scaled)
            scaled += c
            block *= scaled
            count += 1
            if count == _BLOCK:
                total += np.log(block, out=block)
                block.fill(1.0)
                count = 0
        a *= q
    if count:
        total += np.log(block, out=block)
    return total


def _log_series(u: np.ndarray, v: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """-sum_n coef[n-1] T_n(u) T_n(v).

    With u = cos(t), v = cos(s) and coef = _kernel_coefficients(a, q, N),
    this is the log kernel product: w(x, y|r) = |1 - r e^{i(t+s)}|^2
    |1 - r e^{i(t-s)}|^2, whose log is -4 sum_n r^n cos(nt) cos(ns) / n;
    summing over r = a q^i gives the series.  For l, half of it at u = 1
    (T_n(1) = 1 exactly) and v = cos(2t) = 2 cos(t)^2 - 1.  The recurrences
    run on u and v in their own shapes and only the running sum is
    broadcast: a matrix product would round differently on an open grid
    than on the same points given flat.
    """
    total = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    tu_prev, tu = np.ones(u.shape), u
    tv_prev, tv = np.ones(v.shape), v
    for c in coef:
        total -= (c * tu) * tv
        tu, tu_prev = 2.0 * u * tu - tu_prev, tu
        tv, tv_prev = 2.0 * v * tv - tv_prev, tv
    return total


def _series_terms(a: float, q: float) -> int | None:
    """The route rule for both kernels: the N terms of the Chebyshev series,
    or None where it needs more terms than the factor loop has factors."""
    return _kernel_terms(a, q, _factors_needed(16.0 * a, q))


def _log_w(x: np.ndarray, y: np.ndarray, rho: float, q: float) -> np.ndarray:
    """sum_{i>=0} log w(x, y | rho q^i) for x, y inside the support."""
    u, v = _cosine(x, q), _cosine(y, q)
    terms = _series_terms(rho, q)
    if terms is None:
        return _log_factors(rho, q, np.arccos(u), np.arccos(v))
    return _log_series(u, v, _kernel_coefficients(rho, q, terms))


def _log_l(x: np.ndarray, a: float, q: float) -> np.ndarray:
    """sum_{i>=0} log l(x | a q^i) for x inside the support."""
    u = _cosine(x, q)
    terms = _series_terms(a, q)
    if terms is None:
        return _log_factors(a, q, np.arccos(u))
    return 0.5 * _log_series(np.ones(()), 2.0 * u * u - 1.0, _kernel_coefficients(a, q, terms))


def _log_sin(u: np.ndarray) -> np.ndarray:
    """log sin(t) for u = cos(t) in [-1, 1]; -inf at u = +-1."""
    with np.errstate(divide="ignore"):
        return 0.5 * np.log((1.0 - u) * (1.0 + u))


def _log_theta_imaginary(u: np.ndarray, q: float) -> np.ndarray:
    """log f_N by Jacobi's imaginary transformation, for 0 < q < 1.

    With a = arcsin(u), s = -log(q) / (2 pi) and z = pi/2 - |a| = arccos|u|:
    log f_N = log(1-q)/2 - log(2 pi) - log(q)/8 - log(s)/2 - a^2/(pi s)
              + log1p(-e^(-2z/s)) + log(1 + sum_n (-1)^n e^(-pi n(n+1)/s)
                                         sinh((2n+1)z/s) / sinh(z/s)).
    The -a^2/(pi s) term is the Gaussian limit.  Each correction term is
    below its bound (2n+1) e^(-pi n^2/s), and the sum stops once that bound
    is below half an ulp: it keeps one term at q = 0.3 and none from 0.7 on.
    """
    s = -math.log(q) / (2.0 * math.pi)
    a = np.arcsin(u)
    zs = np.arccos(np.abs(u)) / s
    with np.errstate(divide="ignore"):
        edge = np.log1p(-np.exp(-2.0 * zs))  # -inf at the edge, z = 0
    den = np.expm1(-2.0 * zs)
    corr = np.zeros(u.shape)
    n = 1
    while (2 * n + 1) * math.exp(-math.pi * n * n / s) > _HALF_EPS:
        # sinh((2n+1)w) / sinh(w) = e^(2nw) expm1(-2(2n+1)w) / expm1(-2w),
        # whose limit at w = 0 is 2n + 1.
        ratio = np.divide(
            np.expm1(-2.0 * (2 * n + 1) * zs),
            den,
            out=np.full(u.shape, 2.0 * n + 1.0),
            where=den != 0.0,
        )
        corr += (-1) ** n * np.exp(-math.pi * n * (n + 1) / s + 2.0 * n * zs) * ratio
        n += 1
    const = (
        0.5 * math.log(1.0 - q) - _LOG_2PI - 0.125 * math.log(q) - 0.5 * math.log(s)
    )
    return const - a * a / (math.pi * s) + edge + np.log1p(corr)


def _log_f_n(x: np.ndarray, q: float) -> np.ndarray:
    """log f_N on points already inside the support (-inf at the edge).

    By the Jacobi triple product f_N = sqrt(1-q) theta_1(t, sqrt(q)) /
    (2 pi q^(1/8)) with x = L cos(t), so for q > 0.2 the imaginary
    transformation needs no infinite product.  At and below 0.2 the product
    formula of the module docstring needs few terms (287 series terms at
    q = -0.9) and is kept.
    """
    u = _cosine(x, q)
    if q > _THETA_MIN_Q:
        return _log_theta_imaginary(u, q)
    # sqrt(4 - (1-q) x^2) / (2 pi) = sin(t) / pi
    return (
        log_q_pochhammer_inf(q, q)
        + 0.5 * math.log(1.0 - q)
        + _log_sin(u)
        - _LOG_PI
        + _log_l(x, q, q)
    )


def _log_f_cn(x: np.ndarray, y: np.ndarray, rho: float, q: float) -> np.ndarray:
    """log f_CN(x|y) on in-support points."""
    return (
        _log_f_n(x, q)
        + log_q_pochhammer_inf(rho**2, q)
        - _log_w(x, y, rho, q)
    )


def _inside(arr: np.ndarray, half: float) -> np.ndarray:
    return np.abs(arr) <= half


def _clip(arr: np.ndarray, half: float) -> np.ndarray:
    """Clamp into the support.  NaN becomes 0, so that a series still
    converges on the other points; _extend puts the NaN back."""
    return np.clip(np.nan_to_num(arr), -half, half)


def _extend(val: np.ndarray, half: float, *coords: np.ndarray) -> np.ndarray:
    """Extend a density by zero outside the support, with NaN wherever a
    coordinate is NaN.

    Each coordinate is tested on its own (open-axis) shape, and val itself
    is returned when every point is inside, so quadrature nodes never pay
    for a masked copy of a tensor-grid result.
    """
    masks = [_inside(c, half) for c in coords]
    if all(m.all() for m in masks):
        return val
    inside = masks[0]
    for m in masks[1:]:
        inside = inside & m
    out = np.where(inside, val, 0.0)
    for c in coords:
        nan = np.isnan(c)
        if nan.any():
            out = np.where(nan, np.nan, out)
    return out


def f_n(x, q: float):
    """Univariate q-Normal density; zero outside the support interval."""
    _check_q(q)
    (xb,), scalar = _points(x)
    half = support_halfwidth(q)
    val = np.exp(_log_f_n(_clip(xb, half), q))
    return _ret(_extend(val, half, xb), scalar)


def f_cn(x, y, rho: float, q: float):
    """Conditional q-Normal density in x given a coordinate at y with
    correlation rho.  The conditioning point must lie in the support."""
    _check_q(q)
    _check_rho(rho)
    (xb, yb), scalar = _points(x, y)
    half = support_halfwidth(q)
    _require_support(yb, half, "conditioning point y")
    val = np.asarray(_log_f_cn(_clip(xb, half), yb, rho, q))
    np.exp(val, out=val)
    return _ret(_extend(val, half, xb), scalar)


def f_r(x, beta: float, q: float):
    """Rogers-orthogonality density; zero outside the support."""
    _check_q(q)
    _check_rho(beta, "beta")
    (xb,), scalar = _points(x)
    half = support_halfwidth(q)
    xc = _clip(xb, half)
    log_val = (
        _log_f_n(xc, q)
        + log_q_pochhammer_inf(beta**2, q)
        - log_q_pochhammer_inf(beta, q)
        - log_q_pochhammer_inf(beta * q, q)
        - _log_l(xc, beta, q)
    )
    return _ret(_extend(np.exp(log_val), half, xb), scalar)


_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    t = _SPLIT * b
    b_hi = t - (t - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_add(a, b):
    """a + b in double-double: a, b and the result are (hi, lo) pairs with
    |lo| <= ulp(hi) / 2, worth about 32 significant digits."""
    s, e = _two_sum(a[0], b[0])
    e = e + (a[1] + b[1])
    hi = s + e
    return hi, e - (hi - s)


def _dd_mul(a, b):
    """a * b in double-double."""
    p, e = _two_prod(a[0], b[0])
    e = e + (a[0] * b[1] + a[1] * b[0])
    hi = p + e
    return hi, e - (hi - p)


def _dd_div(a, b):
    """a / b in double-double, by one correction of the double quotient."""
    q1 = a[0] / b[0]
    r = _dd_add(a, _dd_mul((-q1, 0.0), b))
    return _two_sum(q1, r[0] / b[0])


def _sum_to_tail(total, terms, what: str, tol: float = TAIL_TOL):
    """Add a series' (term, envelope) pairs into total, point by point.

    total and the terms are arrays, or all (hi, lo) double-double pairs of
    arrays, which _dd_add sums.  Each point adds terms up to its second
    successive envelope below tol and none after, so an array result equals
    its points evaluated one at a time, bit for bit.  A non-finite envelope
    at a point still summing, or MAX_TERMS terms, raises NonConvergence;
    numpy's own overflow warnings are silenced, since that raise reports it.
    """
    double = isinstance(total, tuple)
    shape = total[0].shape if double else total.shape
    live = np.ones(shape, dtype=bool)
    was_below = np.zeros(shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (term, envelope) in enumerate(terms, start=1):
            if double:
                for part, summed in zip(total, _dd_add(total, term)):
                    np.copyto(part, summed, where=live)
            else:
                np.add(total, term, out=total, where=live)
            # The unmasked max is cheaper; mask only once some point overflowed.
            if not np.max(envelope) < np.inf and not np.all(np.isfinite(envelope), where=live):
                raise NonConvergence(f"{what} overflowed at term {j}")
            below = envelope < tol
            live &= ~(was_below & below)
            if not live.any():
                return total
            was_below = below
    raise NonConvergence(f"{what} not below {tol:.0e} within {MAX_TERMS} terms")


def _pm_series(x: np.ndarray, y: np.ndarray, rho: float, q: float) -> np.ndarray:
    """Bilinear q-Hermite kernel sum_j rho^j H_j(x) H_j(y) / [j]_q!.

    Where rho x y < 0 the terms cancel: at q = 0.9, rho = 0.65 and
    x = -y = 0.9 L they reach 1.2e7 around a kernel of 3e-11, so double
    rounding alone would cost 1e-9.  The scalars, both recurrences and the
    sum therefore run in double-double (_dd_add, _dd_mul), and each point
    stops on _PM_TAIL_TOL: the tail past the stop is a few envelopes.

    The recurrences run on x and y in their own shapes; only the running
    sum is broadcast.  A term vanishes at a root of H_j(x) or H_j(y), so
    each point's stop (_sum_to_tail) tests the envelope
    |coef| max(|H_j(x)|, |H_{j-1}(x)|) max(|H_j(y)|, |H_{j-1}(y)|) instead:
    consecutive orthogonal polynomials share no root.
    """
    shape = np.broadcast_shapes(x.shape, y.shape)
    total = (np.ones(shape), np.zeros(shape))
    if rho == 0.0:
        return total[0]

    def terms():
        zero_x, zero_y = np.zeros(x.shape), np.zeros(y.shape)
        hx_prev, hx = (np.ones(x.shape), zero_x), (x, zero_x)
        hy_prev, hy = (np.ones(y.shape), zero_y), (y, zero_y)
        coef = (1.0, 0.0)
        qnum = (0.0, 0.0)
        qpow = (1.0, 0.0)
        for _ in range(MAX_TERMS):
            qnum = _dd_add(qnum, qpow)  # [j]_q
            qpow = _dd_mul(qpow, (q, 0.0))
            coef = _dd_div(_dd_mul(coef, (rho, 0.0)), qnum)
            env_x = np.maximum(np.abs(hx[0]), np.abs(hx_prev[0]))
            env_y = np.maximum(np.abs(hy[0]), np.abs(hy_prev[0]))
            yield _dd_mul(_dd_mul(coef, hx), hy), abs(coef[0]) * env_x * env_y
            minus_qnum = (-qnum[0], -qnum[1])
            hx, hx_prev = _dd_add(_dd_mul((x, 0.0), hx), _dd_mul(minus_qnum, hx_prev)), hx
            hy, hy_prev = _dd_add(_dd_mul((y, 0.0), hy), _dd_mul(minus_qnum, hy_prev)), hy

    return _sum_to_tail(total, terms(), "bilinear kernel series", _PM_TAIL_TOL)[0]


def pm_kernel(
    x,
    y,
    rho: float,
    q: float,
    form: DensityForm = DensityForm.PRODUCT,
):
    """Bilinear kernel f_CN(x|y) / f_N(x), by its SERIES or PRODUCT form;
    any other form raises ValueError.  The PRODUCT form raises
    NonConvergence where a value overflows the double range, as the series
    does where a term does."""
    _check_q(q)
    _check_rho(rho)
    (xb, yb), scalar = _points(x, y)
    half = support_halfwidth(q)
    _require_support(xb, half, "kernel argument x")
    _require_support(yb, half, "kernel argument y")
    if form == DensityForm.SERIES:
        val = _pm_series(xb, yb, rho, q)
    elif form == DensityForm.PRODUCT:
        # Always the factor loop: the reference the series form is checked against.
        t, s = np.arccos(_cosine(xb, q)), np.arccos(_cosine(yb, q))
        with np.errstate(over="ignore"):
            val = np.exp(log_q_pochhammer_inf(rho**2, q) - _log_factors(rho, q, t, s))
        if np.any(np.isinf(val)):
            raise NonConvergence(f"kernel product overflows the double range at rho={rho}, q={q}")
    else:
        raise ValueError(f"unknown form {form}")
    return _ret(val, scalar)


def _cycle(p: ModelParams):
    """The PRODUCT form of f_3d as a cycle of three pairwise log factors,
    log f_3d(x, y, z) = a(x, y) + b(y, z) + c(z, x) on the support cube,
    with log(1 - r) carried in a: f_3d sums them on its grid, and
    quadrature._integrate_cycle integrates them on n x n tables."""
    log_c = math.log1p(-p.r)
    return (
        lambda x, y: log_c + _log_f_cn(x, y, p.rho12, p.q),
        lambda y, z: _log_f_cn(y, z, p.rho23, p.q),
        lambda z, x: _log_f_cn(z, x, p.rho13, p.q),
    )


def f_3d(
    x,
    y,
    z,
    params: ModelParams,
    form: DensityForm = DensityForm.PRODUCT,
):
    """Trivariate density; zero outside the support cube.

    Product form chains the three pairwise conditionals, and series form
    replaces each coupling by its bilinear q-Hermite series; the two are
    independent routes that agree pointwise to FORM_RTOL.  Closed form, the
    same ten log terms in another order, is the product route.
    """
    p = params
    _check_q(p.q)
    (xb, yb, zb), scalar = _points(x, y, z)
    half = support_halfwidth(p.q)
    xc, yc, zc = (_clip(a, half) for a in (xb, yb, zb))
    # Each term depends on at most two coordinates, so only the first sum
    # that involves all three is result-sized.  The other terms go into it
    # in place, in the formula's order, which keeps every rounding the same.
    if form in (DensityForm.PRODUCT, DensityForm.CLOSED):
        a, b, c = _cycle(p)
        val = np.asarray(a(xc, yc) + b(yc, zc))
        val += c(zc, xc)
        np.exp(val, out=val)
    elif form == DensityForm.SERIES:
        # The kernels are summed before the result is allocated, so their
        # double-double work arrays never coexist with it.
        kernels = (
            _pm_series(xc, yc, p.rho12, p.q),
            _pm_series(yc, zc, p.rho23, p.q),
            _pm_series(xc, zc, p.rho13, p.q),
        )
        val = np.asarray(
            math.log1p(-p.r) + _log_f_n(xc, p.q) + _log_f_n(yc, p.q) + _log_f_n(zc, p.q)
        )
        np.exp(val, out=val)
        for kernel in kernels:
            val *= kernel
    else:
        raise ValueError(f"unknown form {form}")
    return _ret(_extend(val, half, xb, yb, zb), scalar)


def f_yz(y, z, params: ModelParams):
    """Bivariate (Y, Z) marginal: couples rho23 directly and the product
    rho12 rho13 through the integrated-out coordinate."""
    p = params
    _check_q(p.q)
    (yb, zb), scalar = _points(y, z)
    half = support_halfwidth(p.q)
    yc, zc = _clip(yb, half), _clip(zb, half)
    val = np.asarray(math.log1p(-p.r) + _log_f_cn(yc, zc, p.rho23, p.q))
    val += _log_f_cn(zc, yc, p.rho12 * p.rho13, p.q)
    np.exp(val, out=val)
    return _ret(_extend(val, half, yb, zb), scalar)


def f_z(
    z,
    r: float,
    q: float,
    form: MarginalForm = MarginalForm.ROGERS,
):
    """Univariate marginal of the trivariate model; depends on the three
    correlations only through their product r.

    Four evaluation routes are kept: a bilinear q-Hermite series on the
    diagonal, the Rogers density f_r(z, r, q) itself, an even-degree
    q-Hermite series, and a fully factored edge product.
    """
    _check_q(q)
    _check_rho(r, "r")
    if form == MarginalForm.ROGERS:
        return f_r(z, r, q)
    (zb,), scalar = _points(z)
    half = support_halfwidth(q)
    zc = _clip(zb, half)
    if form == MarginalForm.HERMITE_SERIES:
        val = (1.0 - r) * np.exp(_log_f_n(zc, q)) * _pm_series(zc, zc, r, q)
    elif form == MarginalForm.EVEN_SERIES:
        val = (1.0 - r) * np.exp(_log_f_n(zc, q)) * _even_series(zc, r, q)
    elif form == MarginalForm.EDGE_PRODUCT:
        t = np.arccos(_cosine(zc, q))  # the factor loop, as the other forms' reference
        log_val = (
            math.log1p(r)
            + 0.5 * math.log(1.0 - q)
            + _log_sin(zc / half)  # sqrt(4 - (1-q) z^2) / 2
            + log_q_pochhammer_inf(q, q)
            + log_q_pochhammer_inf(r**2 * q, q)
            - _LOG_PI
            - np.log((1.0 + r) ** 2 - (1.0 - q) * r * zc**2)
            - 2.0 * log_q_pochhammer_inf(r * q, q)
            + _log_factors(q, q, t)
            - _log_factors(r * q, q, t)
        )
        val = np.exp(log_val)
    else:
        raise ValueError(f"unknown form {form}")
    return _ret(_extend(val, half, zb), scalar)


def _even_series(z: np.ndarray, r: float, q: float) -> np.ndarray:
    """sum_k r^k H_{2k}(z|q) / ([k]_q! (r;q)_{k+1}) via an incrementally
    extended q-Hermite recurrence.  Each point stops (_sum_to_tail) on the
    envelope |coef| max(|H_{2k}|, |H_{2k-1}|), which cannot vanish before
    the tail does: H_{2k} and H_{2k-1} share no root."""
    total = np.full(z.shape, 1.0 / (1.0 - r))  # k = 0 term is H_0 / (r;q)_1
    if r == 0.0:
        return total

    def terms():
        coef = 1.0 / (1.0 - r)
        h_prev = np.zeros(z.shape)  # H_{deg-1} seeded at degree -1
        h_cur = np.ones(z.shape)  # H_deg with deg = 0
        deg_qnum = 0.0  # [deg]_q
        deg_qpow = 1.0  # q^deg
        k_qnum = 0.0  # [k]_q
        k_qpow = 1.0  # q^(k-1) ahead of the update
        rq = r * q  # r q^k inside (r;q)_{k+1} / (r;q)_k
        for _ in range(MAX_TERMS):
            for _ in range(2):
                h_cur, h_prev = z * h_cur - deg_qnum * h_prev, h_cur
                deg_qnum += deg_qpow
                deg_qpow *= q
            k_qnum += k_qpow
            k_qpow *= q
            coef *= r / (k_qnum * (1.0 - rq))
            rq *= q
            yield coef * h_cur, abs(coef) * np.maximum(np.abs(h_cur), np.abs(h_prev))

    return _sum_to_tail(total, terms(), "even-degree series")


def f_x_given_yz(x, y, z, params: ModelParams):
    """Conditional density of the first coordinate given the other two,
    as a ratio of pairwise conditionals."""
    p = params
    _check_q(p.q)
    (xb, yb, zb), scalar = _points(x, y, z)
    half = _require_yz(yb, zb, p.q)
    _require_support(xb[~np.isnan(xb)], half, "point x")
    log_den = _log_f_cn(zb, yb, p.rho12 * p.rho13, p.q)
    if np.any(np.isneginf(log_den)):
        raise DegenerateConditioning("conditioning point has zero density")
    val = np.asarray(
        _log_f_cn(xb, yb, p.rho12, p.q) + _log_f_cn(zb, xb, p.rho13, p.q)
    )
    val -= log_den
    np.exp(val, out=val)
    return _ret(val, scalar)


def f_yz_given_x(y, z, x, params: ModelParams):
    """Conditional density of the last two coordinates given the first."""
    p = params
    _check_q(p.q)
    (yb, zb, xb), scalar = _points(y, z, x)
    half = support_halfwidth(p.q)
    _require_support(xb, half, "conditioning point x")
    _require_support(yb[~np.isnan(yb)], half, "point y")
    _require_support(zb[~np.isnan(zb)], half, "point z")
    log_den = _log_f_cn(xb, xb, p.r, p.q)
    if np.any(np.isneginf(log_den)):
        raise DegenerateConditioning("conditioning point has zero density")
    val = np.asarray(
        _log_f_cn(xb, yb, p.rho12, p.q) + _log_f_cn(yb, zb, p.rho23, p.q)
    )
    val += _log_f_cn(zb, xb, p.rho13, p.q)
    val -= log_den
    np.exp(val, out=val)
    return _ret(val, scalar)


def aw_parameters(
    y: float, z: float, params: ModelParams
) -> tuple[complex, complex, complex, complex]:
    """Complex conjugate parameter quadruple (a, b, c, d) encoding the two
    scalar conditioning points: a = sqrt(1-q)/2 rho12 (y - i sqrt(4/(1-q) - y^2)),
    b its conjugate, and (c, d) likewise from (rho13, z).

    |a| = |rho12| and |c| = |rho13| for in-support points.
    """
    p = params
    if np.ndim(y) or np.ndim(z):
        raise ValueError(f"y and z must be scalars, got shapes {np.shape(y)}, {np.shape(z)}")
    _require_yz(y, z, p.q)
    s = math.sqrt(1.0 - p.q) / 2.0
    ty = math.sqrt(max(4.0 / (1.0 - p.q) - y * y, 0.0))
    tz = math.sqrt(max(4.0 / (1.0 - p.q) - z * z, 0.0))
    a = s * p.rho12 * complex(y, -ty)
    c = s * p.rho13 * complex(z, -tz)
    return (a, a.conjugate(), c, c.conjugate())

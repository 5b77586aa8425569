"""Closed-form moments of the three-dimensional q-Normal law.

Every moment request (:class:`MomentSpec`) can be evaluated two ways:
:func:`closed_form` by its formula and :func:`quadrature_oracle` by direct
numerical integration of the densities it summarizes, so each formula can
be checked against the other route.

Unconditional moments cover the single-coordinate q-Hermite expectations
and the mixed two-coordinate expectation (a truncated double series).
Conditional moments cover E(H_n(X) | Y, Z) in two equivalent forms,
E(H_n(Y) | Z) and the product moment E(XY | Z).  The law of Y given Z = z
is the law of X given (Y, Z) = (z, z) with correlations (rho23, rho12 rho13),
so E(H_n(Y) | Z = z) is E(H_n(X) | Y = Z = z) there, by either route.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .densities import ModelParams, f_r, f_x_given_yz, f_yz, f_yz_given_x
from .errors import NonConvergence
from .polynomials import asc_poly, q_hermite
from .qcore import (
    TAIL_TOL,
    _check_q,
    _check_rho,
    _q_binomial_row,
    _q_numbers,
    _q_pochhammer_row,
    _require_support,
    q_binomial,
    q_factorial,
    support_halfwidth,
)
from .quadrature import integrate1d, integrate2d


class MomentKind(enum.Enum):
    """Which conditioning structure a moment request refers to."""

    UNCONDITIONAL = "unconditional"
    COND_X_GIVEN_YZ = "cond-x-given-yz"
    COND_Y_GIVEN_Z = "cond-y-given-z"
    COND_XY_GIVEN_Z = "cond-xy-given-z"


class CondMomentForm(enum.Enum):
    """Evaluation routes for E(H_n(X) | Y, Z): ASC_EXPANSION sums
    Al-Salam-Chihara values in z, DOUBLE_SUM q-Hermite values of y and z."""

    ASC_EXPANSION = "asc-expansion"
    DOUBLE_SUM = "double-sum"


@dataclass(frozen=True)
class MomentSpec:
    """A single moment request: what to average, under which law, where.

    ``degrees`` holds the q-Hermite degrees involved: one entry for a
    single-coordinate moment, two for a mixed or product moment.  ``points``
    holds the conditioning values (empty for unconditional moments, (y, z)
    for conditioning on both coordinates, (z,) for conditioning on one).
    """

    kind: MomentKind
    degrees: Tuple[int, ...]
    params: ModelParams
    points: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.degrees:
            raise ValueError("degrees must be a nonempty tuple")
        if any((not isinstance(d, int)) or d < 0 for d in self.degrees):
            raise ValueError(f"degrees must be nonnegative integers, got {self.degrees}")
        _require_support(self.points, support_halfwidth(self.params.q), "conditioning point")


def e_h2n_z(n: int, r: float, q: float) -> float:
    """E H_{2n}(Z) for Z following the one-coordinate marginal with ratio r.

    Closed form r^n [2n]_q! / ([n]_q! (rq; q)_n).  The degree argument is n,
    half the q-Hermite degree; odd-degree expectations vanish by symmetry
    and are handled by :func:`closed_form` rather than here.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _check_rho(r, "r")
    _check_q(q)
    # The running product of r [n+j]_q / (1 - r q^j), j = 1..n, stays finite
    # where [2n]_q! overflows.
    qn = _q_numbers(2 * n, q)
    return math.prod((r * qn[n + j] / (1.0 - r * q**j) for j in range(1, n + 1)), start=1.0)


def _variance(r: float, q: float) -> float:
    """(1 + r) / (1 - rq), the variance of every coordinate; q = 1 gives
    its Gaussian limit (1 + r) / (1 - r)."""
    return (1.0 + r) / (1.0 - r * q)


def _covariance(p: ModelParams) -> np.ndarray:
    """The covariance matrix of (X, Y, Z): _variance on the diagonal and
    (rho_ij + rho_ik rho_jk) / (1 - rq) off it."""
    d = 1.0 - p.r * p.q
    v = _variance(p.r, p.q)
    c01 = (p.rho12 + p.rho13 * p.rho23) / d
    c02 = (p.rho13 + p.rho12 * p.rho23) / d
    c12 = (p.rho23 + p.rho12 * p.rho13) / d
    return np.array([[v, c01, c02], [c01, v, c12], [c02, c12, v]])


def _marginal_moment(g, r: float, q: float) -> float:
    """E g(Z) under the one-coordinate marginal f_r(., r, q), by quadrature."""
    return integrate1d(lambda z: g(z) * f_r(z, r, q), q).value


def var_z(r: float, q: float) -> float:
    """Variance (1 + r) / (1 - rq) of the one-coordinate marginal."""
    _check_rho(r, "r")
    _check_q(q)
    return _variance(r, q)


def cov_yz(p: ModelParams) -> float:
    """Covariance (rho23 + rho12 rho13) / (1 - rq) of two coordinates."""
    return float(_covariance(p)[1, 2])


def mixed_moment_h(m: int, n: int, p: ModelParams) -> float:
    """E H_m(Y) H_n(Z) as a truncated double series.

    The series runs over bands s >= max(m, n) of total linearization degree,
    each band a short sum over k with q-binomial weights; band size decays
    geometrically in max(|rho23|, |rho12 rho13|).  The prefactor (1 - r)
    multiplies the whole series.  The last band is where that decay reaches
    TAIL_TOL, plus m + n + 60 degrees for the polynomial growth of the
    bands.  Raises NonConvergence when the final band still contributes
    more than TAIL_TOL relative to the total.
    """
    if m < 0 or n < 0:
        raise ValueError(f"degrees must be nonnegative, got ({m}, {n})")
    if (m - n) % 2:
        return 0.0
    q = p.q
    a = p.rho23
    b = p.rho12 * p.rho13
    decay = max(abs(a), abs(b))
    tail = math.ceil(math.log(TAIL_TOL) / math.log(decay)) if decay > 0.0 else 0
    s_max = m + n + tail + 60
    # log [i]_q! for i <= s_max + 1: the factorials themselves overflow
    # past i ~ 300 at q = 0.9, while the ratios a band needs stay moderate.
    log_fact = [0.0, *itertools.accumulate(map(math.log, _q_numbers(s_max + 1, q)[1:]))]
    total = 0.0
    last_band = 0.0
    mu = min(m, n)
    for s in range(max(m, n), s_max + 1, 2):
        log_den = log_fact[(s - m) // 2] + log_fact[(s - n) // 2]
        band = 0.0
        for k in range((s - mu) // 2, (s + mu) // 2 + 1):
            cm = q_binomial(m, k - (s - m) // 2, q)
            cn = q_binomial(n, k - (s - n) // 2, q)
            if cm == 0.0 or cn == 0.0:
                continue
            ratio = math.exp(log_fact[k] + log_fact[s - k] - log_den)
            band += a**k * b ** (s - k) * cm * cn * ratio
        total += band
        last_band = abs(band)
    scale = max(1.0, abs(total))
    if last_band > TAIL_TOL * scale:
        raise NonConvergence(
            f"mixed moment series tail {last_band:.3e} above tolerance "
            f"{TAIL_TOL:.1e} at band {s_max}"
        )
    return (1.0 - p.r) * total


def _check_conditional(y, z, rho12: float, rho13: float, q: float) -> None:
    """qcore's validity rule for the moments of X given (Y, Z) = (y, z),
    which take their parameters one by one rather than as ModelParams."""
    _check_q(q)
    _check_rho(rho12, "rho12")
    _check_rho(rho13, "rho13")
    half = support_halfwidth(q)
    _require_support(y, half, "conditioning point y")
    _require_support(z, half, "conditioning point z")


def cond_exp_hn_x_given_yz(
    n: int,
    y,
    z,
    rho12: float,
    rho13: float,
    q: float,
    form: CondMomentForm = CondMomentForm.ASC_EXPANSION,
):
    """E(H_n(X) | Y=y, Z=z), a polynomial of total degree n in (y, z).

    The conditional law of X given both other coordinates depends only on
    rho12 and rho13, so rho23 does not appear.  The two forms agree to
    near machine precision; they differ in how the answer is organized.

    Both take y and z as scalars or broadcastable arrays and return a float
    or an array; each point of an array result equals that point evaluated
    alone, bit for bit.  DomainError is raised if any point lies outside
    the support.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _check_conditional(y, z, rho12, rho13, q)
    scalar = np.ndim(y) == 0 and np.ndim(z) == 0
    # The q-numbers, q-binomials and q-Pochhammer symbols of both series,
    # read from rows built once; each entry equals its qcore scalar bit for bit.
    qn = _q_numbers(n, q)
    binom_n = _q_binomial_row(n, qn)
    poch12 = _q_pochhammer_row(rho12**2, q, n)
    poch_both = _q_pochhammer_row(rho12**2 * rho13**2, q, n)
    if form is CondMomentForm.ASC_EXPANSION:
        # H_n(x) = sum_s [n s]_q rho12^(n-s) H_{n-s}(y) P_s(x | y, rho12), and
        # E(P_s(X) | y, z) = rho13^s (rho12^2)_s / (rho12^2 rho13^2)_s
        # P_s(z | y, rho12 rho13).
        hy = q_hermite(n, y, q).values
        pz = asc_poly(n, z, y, rho12 * rho13, q).values
        total = 0.0
        for s in range(n + 1):
            total += (
                binom_n[s]
                * rho12 ** (n - s)
                * rho13**s
                * poch12[s]
                / poch_both[s]
                * hy[n - s]
                * pz[s]
            )
        return float(total) if scalar else total
    if form is CondMomentForm.DOUBLE_SUM:
        hz = q_hermite(n, z, q).values
        hy = q_hermite(n, y, q).values
        poch13 = _q_pochhammer_row(rho13**2, q, n)
        total = 0.0
        for k in range(n // 2 + 1):
            m = n - 2 * k
            outer = (
                (-1) ** k
                * q ** (k * (k - 1) // 2)
                * binom_n[2 * k]
                * q_binomial(2 * k, k, q)
                * q_factorial(k, q)
                * (rho12 * rho13) ** (2 * k)
                * poch12[k]
                * poch13[k]
            )
            binom_m = _q_binomial_row(m, qn)
            shifted12 = _q_pochhammer_row(rho12**2 * q**k, q, m)
            shifted13 = _q_pochhammer_row(rho13**2 * q**k, q, m)
            inner = 0.0
            for j in range(m + 1):
                inner += (
                    binom_m[j]
                    * shifted12[j]
                    * shifted13[m - j]
                    * rho12 ** (m - j)
                    * rho13**j
                    * hz[j]
                    * hy[m - j]
                )
            total += outer * inner
        total = total / poch_both[n]
        return float(total) if scalar else total
    raise ValueError(f"unknown form {form!r}")


def cond_exp_x_given_yz(y: float, z: float, rho12: float, rho13: float, q: float) -> float:
    """E(X | Y=y, Z=z): linear in (y, z) with an explicit closed form."""
    _check_conditional(y, z, rho12, rho13, q)
    r1sq = rho12 * rho12
    r2sq = rho13 * rho13
    return (y * rho12 * (1.0 - r2sq) + z * rho13 * (1.0 - r1sq)) / (1.0 - r1sq * r2sq)


def _given_z(p: ModelParams) -> ModelParams:
    """The parameters under which Y given Z = z is X given (Y, Z) = (z, z):
    f_yz(y, z) / f_z(z) = f_cn(y|z; rho23) f_cn(z|y; rho12 rho13) / f_cn(z|z; r)."""
    return ModelParams(p.rho23, p.rho12 * p.rho13, 0.0, p.q)


def cond_exp_hn_y_given_z(n: int, z: float, p: ModelParams) -> float:
    """E(H_n(Y) | Z=z), a polynomial of degree at most n in z.

    The law of Y given Z = z is the law of X given (Y, Z) = (z, z) with
    correlations (rho23, rho12 rho13), so this is E(H_n(X) | Y=z, Z=z)
    under those correlations, by the default route of
    :func:`cond_exp_hn_x_given_yz`.
    """
    _require_support(z, support_halfwidth(p.q), "conditioning point z")
    g = _given_z(p)
    return cond_exp_hn_x_given_yz(n, z, z, g.rho12, g.rho13, g.q)


def cond_exp_y_given_z(z: float, p: ModelParams) -> float:
    """E(Y | Z=z) = (rho23 + rho12 rho13) z / (1 + r)."""
    _require_support(z, support_halfwidth(p.q), "conditioning point z")
    return (p.rho23 + p.rho12 * p.rho13) * z / (1.0 + p.r)


def cond_exp_y2_given_z(z: float, p: ModelParams) -> float:
    """E(Y^2 | Z=z): explicit quadratic in z.

    Kept separate from the degree-2 q-Hermite route so the two can be
    cross-checked; E(H_2(Y) | Z=z) = E(Y^2 | Z=z) - 1.
    """
    _require_support(z, support_halfwidth(p.q), "conditioning point z")
    q = p.q
    r = p.r
    ssum = p.rho23**2 + (p.rho12 * p.rho13) ** 2
    lead = (ssum * (1.0 - q * r) + r * (1.0 - r) * (1.0 + q)) / (
        (1.0 + r) * (1.0 - q * r**2)
    )
    const = (1.0 + r**2 - ssum) / (1.0 - q * r**2)
    return lead * z**2 + const


def cond_exp_xy_given_z(z: float, p: ModelParams) -> float:
    """E(XY | Z=z): explicit quadratic in z."""
    _require_support(z, support_halfwidth(p.q), "conditioning point z")
    q = p.q
    r = p.r
    lead = (
        p.rho12 * (p.rho13**2 + p.rho23**2) * (1.0 - q * r)
        + (1.0 - r) * (p.rho13 * p.rho23 + q * r * p.rho12)
    ) / ((1.0 + r) * (1.0 - q * r**2))
    const = p.rho12 * (1.0 - p.rho13**2) * (1.0 - p.rho23**2) / (1.0 - q * r**2)
    return lead * z**2 + const


def closed_form(spec: MomentSpec) -> float:
    """Evaluate a moment request by its closed form."""
    p = spec.params
    if spec.kind is MomentKind.UNCONDITIONAL:
        if len(spec.degrees) == 1:
            n = spec.degrees[0]
            if n % 2:
                return 0.0
            return e_h2n_z(n // 2, p.r, p.q)
        if len(spec.degrees) == 2:
            return mixed_moment_h(spec.degrees[0], spec.degrees[1], p)
        raise ValueError("unconditional moments take one or two degrees")
    if spec.kind is MomentKind.COND_X_GIVEN_YZ:
        (n,) = spec.degrees
        y, z = spec.points
        return cond_exp_hn_x_given_yz(n, y, z, p.rho12, p.rho13, p.q)
    if spec.kind is MomentKind.COND_Y_GIVEN_Z:
        (n,) = spec.degrees
        (z,) = spec.points
        return cond_exp_hn_y_given_z(n, z, p)
    if spec.kind is MomentKind.COND_XY_GIVEN_Z:
        (z,) = spec.points
        return cond_exp_xy_given_z(z, p)
    raise ValueError(f"unknown moment kind {spec.kind!r}")


def quadrature_oracle(spec: MomentSpec) -> float:
    """Evaluate the same moment request by direct numerical integration."""
    p = spec.params
    q = p.q
    if spec.kind is MomentKind.UNCONDITIONAL:
        if len(spec.degrees) == 1:
            n = spec.degrees[0]
            return _marginal_moment(lambda zz: q_hermite(n, zz, q).values[n], p.r, q)
        if len(spec.degrees) == 2:
            m, n = spec.degrees

            def g_yz(yy: np.ndarray, zz: np.ndarray) -> np.ndarray:
                return (
                    q_hermite(m, yy, q).values[m]
                    * q_hermite(n, zz, q).values[n]
                    * f_yz(yy, zz, p)
                )

            return integrate2d(g_yz, q).value
        raise ValueError("unconditional moments take one or two degrees")
    if spec.kind is MomentKind.COND_X_GIVEN_YZ:
        (n,) = spec.degrees
        y, z = spec.points

        def g_x(xx: np.ndarray) -> np.ndarray:
            return q_hermite(n, xx, q).values[n] * f_x_given_yz(xx, y, z, p)

        return integrate1d(g_x, q).value
    # The conditional densities below are ratios formed in logs before they
    # are integrated, so each integrates to 1 however small f_z(z) is.
    if spec.kind is MomentKind.COND_Y_GIVEN_Z:
        (z,) = spec.points
        return quadrature_oracle(
            MomentSpec(MomentKind.COND_X_GIVEN_YZ, spec.degrees, _given_z(p), (z, z))
        )
    if spec.kind is MomentKind.COND_XY_GIVEN_Z:
        (z,) = spec.points
        # f_3d(x, y, z) / f_z(z): the law of (Y, Z) given X, relabelled.
        relabelled = ModelParams(p.rho13, p.rho23, p.rho12, q)

        def g_xy(xx: np.ndarray, yy: np.ndarray) -> np.ndarray:
            return xx * yy * f_yz_given_x(xx, yy, z, relabelled)

        return integrate2d(g_xy, q).value
    raise ValueError(f"unknown moment kind {spec.kind!r}")


"""Closed-form moments of the three-dimensional q-Normal law.

Every moment request (:class:`MomentSpec`) can be evaluated two ways:
:func:`closed_form` by its formula and :func:`quadrature_oracle` by direct
numerical integration of the densities it summarizes, so each formula can
be checked against the other route.

Unconditional moments cover the single-coordinate q-Hermite expectations
and the mixed two-coordinate expectation, an exact finite sum over the
Rogers Gauss rule of E(H_m(Y) | Z).
Conditional moments cover E(H_n(X) | Y, Z) in two equivalent forms,
E(H_n(Y) | Z) and the product moment E(XY | Z).  The law of Y given Z = z
is the law of X given (Y, Z) = (z, z) with correlations (rho23, rho12 rho13),
so E(H_n(Y) | Z = z) is E(H_n(X) | Y = Z = z) there, by either route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .densities import ModelParams, _given_z, _require_yz, f_r, f_x_given_yz, f_yz, f_yz_given_x
from .errors import NonConvergence
from .polynomials import _gauss, _rogers_rows, asc_poly, q_hermite
from .qcore import (
    TAIL_TOL,
    _check_count,
    _check_q,
    _check_rho,
    _finite,
    _q_binomial_row,
    _q_numbers,
    _q_pochhammer_row,
    _require_support,
    support_halfwidth,
)
from .quadrature import integrate1d, integrate2d

__all__ = [
    "MomentKind",
    "CondMomentForm",
    "MomentSpec",
    "closed_form",
    "quadrature_oracle",
    "e_h2n_z",
    "var_z",
    "cov_yz",
    "mixed_moment_h",
    "cond_exp_hn_x_given_yz",
    "cond_exp_x_given_yz",
    "cond_exp_hn_y_given_z",
    "cond_exp_xy_given_z",
]

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


# Each kind's allowed degree counts and number of conditioning points.
_SHAPES = {
    MomentKind.UNCONDITIONAL: ((1, 2), 0),
    MomentKind.COND_X_GIVEN_YZ: ((1,), 2),
    MomentKind.COND_Y_GIVEN_Z: ((1,), 1),
    MomentKind.COND_XY_GIVEN_Z: ((2,), 1),
}


@dataclass(frozen=True)
class MomentSpec:
    """A single moment request: what to average, under which law, where.

    ``degrees`` holds the q-Hermite degrees involved and ``points`` the
    conditioning values; ``_SHAPES`` gives how many of each a kind takes.
    """

    kind: MomentKind
    degrees: Tuple[int, ...]
    params: ModelParams
    points: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MomentKind):
            raise ValueError(f"kind must be a MomentKind, got {self.kind!r}")
        for d in self.degrees:
            _check_count(d, "degree")
        if self.kind is MomentKind.COND_XY_GIVEN_Z and tuple(self.degrees) != (1, 1):
            raise ValueError(f"E(XY | Z) takes degrees (1, 1), got {self.degrees}")
        counts, n_points = _SHAPES[self.kind]
        if len(self.degrees) not in counts or len(self.points) != n_points:
            takes = f"{' or '.join(map(str, counts))} degrees and {n_points} points"
            raise ValueError(f"{self.kind.value} takes {takes}, got {self.degrees}, {self.points}")
        _require_support(self.points, support_halfwidth(self.params.q), "conditioning point")


def e_h2n_z(n: int, r: float, q: float) -> float:
    """E H_{2n}(Z) for Z following the one-coordinate marginal with ratio r.

    Closed form r^n [2n]_q! / ([n]_q! (rq; q)_n).  The degree argument is n,
    half the q-Hermite degree; odd-degree expectations vanish by symmetry
    and are handled by :func:`closed_form` rather than here.
    """
    _check_count(n, "n")
    _check_rho(r, "r")
    _check_q(q)
    # The running product of r [n+j]_q / (1 - r q^j), j = 1..n, stays finite
    # where [2n]_q! overflows.
    qn = _q_numbers(2 * n, q)
    value = math.prod((r * qn[n + j] / (1.0 - r * q**j) for j in range(1, n + 1)), start=1.0)
    return _finite(value, f"E H_{2 * n}(Z)")


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
    """E H_m(Y) H_n(Z) = E[H_n(Z) E(H_m(Y) | Z)], an exact finite sum.

    Z has the law f_R(., r, q), under which the monic Rogers rows are
    orthogonal, and E(H_m(Y) | Z = z) is a polynomial of degree m in z, so
    the Rogers Gauss rule of k = (m + n)/2 + 1 nodes integrates the product
    exactly: the moment is sum_i w_i H_n(z_i) E(H_m(Y) | z_i).  The rules of
    k and k + 1 nodes differ only by rounding; NonConvergence is raised
    where they differ by more than TAIL_TOL relative, as where the inner
    sums cancel, or where the moment overflows.
    """
    _check_count(m, "m")
    _check_count(n, "n")
    if (m - n) % 2:
        return 0.0
    k = (m + n) // 2 + 1
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in (k, k + 1):
            nodes, weights = _gauss(j, *_rogers_rows(j, p.r, p.q))
            z = np.array(nodes)
            terms = np.array(weights) * q_hermite(n, z, p.q).values[n]
            values.append(float(np.sum(terms * cond_exp_hn_y_given_z(m, z, p))))
    coarse, fine = values
    _finite(fine, "mixed moment")
    if not abs(fine - coarse) <= TAIL_TOL * max(1.0, abs(fine)):
        raise NonConvergence(
            f"mixed moment cancels: the rules of {k} and {k + 1} nodes give "
            f"{coarse:.6e} and {fine:.6e}"
        )
    return fine


def cond_exp_hn_x_given_yz(
    n: int,
    y,
    z,
    params: ModelParams,
    form: CondMomentForm = CondMomentForm.ASC_EXPANSION,
):
    """E(H_n(X) | Y=y, Z=z), a polynomial of total degree n in (y, z).

    The conditional law of X given both other coordinates depends only on
    rho12 and rho13, so rho23 does not appear.  The forms agree to rounding
    at q = 0.9 but part, without raising, as q -> 1: at (rho12, rho13) =
    (0.3, 0.6), (y, z) = (0.37, -0.21) L with L the support half-width and
    n = 15 they differ by 2.0e-8 at q = 0.99 and 3.0e-3 at q = 0.999, nearly
    all of it ASC_EXPANSION's error against quadrature (ROADMAP item 8).

    Both take y and z as scalars or broadcastable arrays and return a float
    or an array; each point of an array result equals that point evaluated
    alone, bit for bit.  DomainError is raised if any point lies outside
    the support.
    """
    _check_count(n, "n")
    rho12, rho13, q = params.rho12, params.rho13, params.q
    _require_yz(y, z, q)
    scalar = np.ndim(y) == 0 and np.ndim(z) == 0
    # The q-numbers, q-binomials and q-Pochhammer symbols of both series,
    # read from rows built once; each entry equals its qcore scalar bit for bit.
    qn = _q_numbers(n, q)
    binom_n = _q_binomial_row(n, qn)
    poch12 = _q_pochhammer_row(rho12**2, q, n)
    poch_both = _q_pochhammer_row(rho12**2 * rho13**2, q, n)
    hy = q_hermite(n, y, q).values
    if form is CondMomentForm.ASC_EXPANSION:
        # H_n(x) = sum_s [n s]_q rho12^(n-s) H_{n-s}(y) P_s(x | y, rho12), and
        # E(P_s(X) | y, z) = rho13^s (rho12^2)_s / (rho12^2 rho13^2)_s
        # P_s(z | y, rho12 rho13).
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
        poch13 = _q_pochhammer_row(rho13**2, q, n)
        total = 0.0
        for k in range(n // 2 + 1):
            m = n - 2 * k
            outer = (
                (-1) ** k
                * q ** (k * (k - 1) // 2)
                * binom_n[2 * k]
                * _q_binomial_row(2 * k, qn)[k]
                * math.prod(qn[1 : k + 1], start=1.0)
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


def cond_exp_x_given_yz(y: float, z: float, params: ModelParams) -> float:
    """E(X | Y=y, Z=z): linear in (y, z) with an explicit closed form."""
    p = params
    _require_yz(y, z, p.q)
    r1sq = p.rho12 * p.rho12
    r2sq = p.rho13 * p.rho13
    return (y * p.rho12 * (1.0 - r2sq) + z * p.rho13 * (1.0 - r1sq)) / (1.0 - r1sq * r2sq)


def cond_exp_hn_y_given_z(n: int, z: float, p: ModelParams) -> float:
    """E(H_n(Y) | Z=z), a polynomial of degree at most n in z.

    The law of Y given Z = z is the law of X given (Y, Z) = (z, z) with
    correlations (rho23, rho12 rho13), so this is E(H_n(X) | Y=z, Z=z)
    under those correlations, by the default route of
    :func:`cond_exp_hn_x_given_yz`.
    """
    _require_support(z, support_halfwidth(p.q), "conditioning point z")
    return cond_exp_hn_x_given_yz(n, z, z, _given_z(p))


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
        if len(spec.degrees) == 2:
            return mixed_moment_h(*spec.degrees, p)
        (n,) = spec.degrees
        return 0.0 if n % 2 else e_h2n_z(n // 2, p.r, p.q)
    if spec.kind is MomentKind.COND_X_GIVEN_YZ:
        return cond_exp_hn_x_given_yz(*spec.degrees, *spec.points, p)
    if spec.kind is MomentKind.COND_Y_GIVEN_Z:
        return cond_exp_hn_y_given_z(*spec.degrees, *spec.points, p)
    return cond_exp_xy_given_z(*spec.points, p)


def quadrature_oracle(spec: MomentSpec) -> float:
    """Evaluate the same moment request by direct numerical integration."""
    p = spec.params
    q = p.q

    def h(d: int, t: np.ndarray) -> np.ndarray:
        return q_hermite(d, t, q).values[d]

    if spec.kind is MomentKind.UNCONDITIONAL:
        if len(spec.degrees) == 1:
            return _marginal_moment(lambda zz: h(*spec.degrees, zz), p.r, q)
        m, n = spec.degrees
        return integrate2d(lambda yy, zz: h(m, yy) * h(n, zz) * f_yz(yy, zz, p), q).value
    if spec.kind is MomentKind.COND_X_GIVEN_YZ:
        (n,) = spec.degrees
        return integrate1d(lambda xx: h(n, xx) * f_x_given_yz(xx, *spec.points, p), q).value
    # The conditional densities below are ratios formed in logs before they
    # are integrated, so each integrates to 1 however small f_z(z) is.
    (z,) = spec.points
    if spec.kind is MomentKind.COND_Y_GIVEN_Z:
        return quadrature_oracle(
            MomentSpec(MomentKind.COND_X_GIVEN_YZ, spec.degrees, _given_z(p), (z, z))
        )
    # f_3d(x, y, z) / f_z(z): the law of (Y, Z) given X, relabelled.
    relabelled = p.permuted((2, 0, 1))
    return integrate2d(lambda xx, yy: xx * yy * f_yz_given_x(xx, yy, z, relabelled), q).value

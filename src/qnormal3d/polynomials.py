"""Orthogonal polynomial families attached to the q-Normal world.

Every evaluator returns the whole sequence of values p_0(x), ..., p_n(x)
from its three-term recurrence, seeded with the degree -1 element equal to 0
and p_0 = 1.  Point arguments may be scalars or numpy arrays (broadcast
together); the returned ``values`` array has shape (n+1,) + point-shape.

Families:

    continuous q-Hermite     H_{n+1}(x) = x H_n(x) - [n]_q H_{n-1}(x)
    Al-Salam-Chihara         P_{n+1}(x) = (x - rho y q^n) P_n(x)
                                          - (1 - rho^2 q^(n-1)) [n]_q P_{n-1}(x)
    Rogers / q-ultraspherical, classical normalization:
        2x (1 - b q^n) C_n(x) = (1 - q^(n+1)) C_{n+1}(x)
                                + (1 - b^2 q^(n-1)) C_{n-1}(x)
    Rogers, monic:
        y R_n = R_{n+1} + [n]_q (1 - b^2 q^(n-1))
                / ((1 - b q^(n-1))(1 - b q^n)) R_{n-1}
    Chebyshev U              U_{n+1}(x) = 2x U_n(x) - U_{n-1}(x)
    probabilists' Hermite    He_{n+1}(x) = x He_n(x) - n He_{n-1}(x)

``FAMILIES`` is the one table of the families orthogonal under the model's
densities (q-Hermite under f_N, Al-Salam-Chihara under f_CN, monic Rogers
under f_R): the orthogonality suite and ``qnormal3d gram`` read only it, so
a new family is one more entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .densities import f_cn, f_n, f_r
from .errors import DegenerateRecurrence
from .qcore import q_factorial, q_number, q_pochhammer, support_halfwidth
from .quadrature import gram_matrix

__all__ = [
    "PolySequence",
    "q_hermite",
    "asc_poly",
    "rogers_C",
    "rogers_monic",
    "chebyshev_U",
    "hermite_prob",
    "triple_product_integral",
    "h_squared_linearization",
    "w_poly",
]

_SINGULAR = 1e-15


@dataclass(frozen=True, eq=False)
class PolySequence:
    """Values p_0, ..., p_n of one polynomial family at fixed parameters
    and points, as ``values`` of shape (n+1,) + point-shape."""

    values: np.ndarray


def _alloc(n: int, *points: object) -> tuple[np.ndarray, list[np.ndarray]]:
    arrs = [np.asarray(p, dtype=float) for p in points]
    shape = np.broadcast_shapes(*(a.shape for a in arrs)) if arrs else ()
    values = np.empty((n + 1,) + shape)
    values[0] = 1.0
    return values, [np.broadcast_to(a, shape) for a in arrs]


def q_hermite(n: int, x, q: float) -> PolySequence:
    """Continuous q-Hermite values H_0(x|q) .. H_n(x|q)."""
    values, (xb,) = _alloc(n, x)
    if n >= 1:
        values[1] = xb
    for k in range(1, n):
        values[k + 1] = xb * values[k] - q_number(k, q) * values[k - 1]
    return PolySequence(values)


def asc_poly(n: int, x, y, rho: float, q: float) -> PolySequence:
    """Al-Salam-Chihara values P_0 .. P_n at x, with parameters (y, rho, q).

    At rho = 0 the recurrence collapses to the continuous q-Hermite one.
    """
    values, (xb, yb) = _alloc(n, x, y)
    if n >= 1:
        values[1] = xb - rho * yb
    for k in range(1, n):
        values[k + 1] = (xb - rho * yb * q**k) * values[k] - (
            1.0 - rho**2 * q ** (k - 1)
        ) * q_number(k, q) * values[k - 1]
    return PolySequence(values)


def rogers_C(n: int, x, beta: float, q: float) -> PolySequence:
    """Rogers (q-ultraspherical) values C_0(x|beta,q) .. C_n(x|beta,q)."""
    values, (xb,) = _alloc(n, x)
    for k in range(n):
        lead = 1.0 - q ** (k + 1)
        if abs(lead) < _SINGULAR:
            raise DegenerateRecurrence(
                f"Rogers recurrence coefficient 1 - q^{k + 1} vanishes"
            )
        acc = 2.0 * xb * (1.0 - beta * q**k) * values[k]
        if k >= 1:
            acc = acc - (1.0 - beta**2 * q ** (k - 1)) * values[k - 1]
        values[k + 1] = acc / lead
    return PolySequence(values)


def rogers_monic(n: int, y, beta: float, q: float) -> PolySequence:
    """Monic Rogers values R_0(y|beta,q) .. R_n(y|beta,q)."""
    values, (yb,) = _alloc(n, y)
    if n >= 1:
        values[1] = yb
    for k in range(1, n):
        den = (1.0 - beta * q ** (k - 1)) * (1.0 - beta * q**k)
        if abs(den) < _SINGULAR:
            raise DegenerateRecurrence(
                f"monic Rogers recurrence denominator vanishes at degree {k + 1}"
            )
        coef = q_number(k, q) * (1.0 - beta**2 * q ** (k - 1)) / den
        values[k + 1] = yb * values[k] - coef * values[k - 1]
    return PolySequence(values)


def chebyshev_U(n: int, x) -> PolySequence:
    """Chebyshev second-kind values U_0(x) .. U_n(x)."""
    values, (xb,) = _alloc(n, x)
    if n >= 1:
        values[1] = 2.0 * xb
    for k in range(1, n):
        values[k + 1] = 2.0 * xb * values[k] - values[k - 1]
    return PolySequence(values)


def hermite_prob(n: int, x) -> PolySequence:
    """Probabilists' Hermite values He_0(x) .. He_n(x)."""
    values, (xb,) = _alloc(n, x)
    if n >= 1:
        values[1] = xb
    for k in range(1, n):
        values[k + 1] = xb * values[k] - float(k) * values[k - 1]
    return PolySequence(values)


def triple_product_integral(k: int, m: int, n: int, q: float) -> float:
    """Integral of H_k H_m H_n against the q-Normal density.

    Nonzero only when k + m + n is even and (k, m, n) satisfy the triangle
    inequalities, in which case it equals

        [m]_q! [n]_q! [k]_q!
        / ([ (m+n-k)/2 ]_q! [ (m+k-n)/2 ]_q! [ (n+k-m)/2 ]_q!)

    The half indices are formed in integer arithmetic after the parity check.
    """
    if min(k, m, n) < 0:
        return 0.0
    if (k + m + n) % 2 != 0:
        return 0.0
    if m + n < k or m + k < n or n + k < m:
        return 0.0
    a = (m + n - k) // 2
    b = (m + k - n) // 2
    c = (n + k - m) // 2
    num = q_factorial(m, q) * q_factorial(n, q) * q_factorial(k, q)
    den = q_factorial(a, q) * q_factorial(b, q) * q_factorial(c, q)
    return num / den


def h_squared_linearization(j: int, q: float) -> np.ndarray:
    """Coefficients c_0..c_j with H_j(x|q)^2 = sum_k c_k H_{2k}(x|q).

    c_k = ([j]_q!)^2 / (([k]_q!)^2 [j-k]_q!).
    """
    if j < 0:
        raise ValueError("h_squared_linearization requires j >= 0")
    fj = q_factorial(j, q)
    out = np.empty(j + 1)
    for k in range(j + 1):
        out[k] = fj * fj / (q_factorial(k, q) ** 2 * q_factorial(j - k, q))
    return out


def w_poly(k: int, m: int, x, r: float, q: float):
    """Connection polynomial W_{k,m}(x|r,q): the ratio of the doubly shifted
    bilinear q-Hermite sum to the unshifted one,

        sum_i r^i H_{i+k} H_{i+m} / [i]_q!
            = W_{k,m}  *  sum_i r^i H_i H_i / [i]_q!.

    Computed exactly by the ladder recurrence

        W_{s,j} = x W_{s-1,j} - [s-1]_q W_{s-2,j} - q^(s-1) r W_{s-1,j+1}

    from the boundary W_{0,j} = (r;q)_j / (r^2;q)_j R_j(x|r,q), which follows
    from shifting the recurrence of the q-Hermite factor.  The single-sum
    shortcut sometimes quoted for W_{k,m} reproduces these values only for
    k <= 1; the degree-(k+m) products it combines become linearly dependent
    beyond that, so this ladder is the defining evaluation.  W is symmetric
    in (k, m); W_{0,0} = 1, W_{1,0}(x) = x / (1+r).
    """
    if k < 0 or m < 0:
        raise ValueError("w_poly requires k, m >= 0")
    total_deg = k + m
    rg = rogers_monic(total_deg, x, r, q).values
    row = [
        q_pochhammer(r, q, j) / q_pochhammer(r * r, q, j) * rg[j]
        for j in range(total_deg + 1)
    ]
    xb = np.asarray(x, dtype=float)
    prev: list | None = None
    for s in range(1, k + 1):
        qn = q_number(s - 1, q)
        qpow = q ** (s - 1)
        new = [
            xb * row[j]
            - (qn * prev[j] if s >= 2 else 0.0)
            - qpow * r * row[j + 1]
            for j in range(total_deg - s + 1)
        ]
        prev, row = row, new
    val = row[m]
    if np.ndim(x) == 0:
        return float(val)
    return val



def default_y(q: float) -> float:
    """The Al-Salam-Chihara conditioning point when none is given: 0.37 L."""
    return 0.37 * support_halfwidth(q)


@dataclass(frozen=True)
class Family:
    """An orthogonal family, read by the orthogonality suite to ``degree``.

    Each callable takes its own arguments, then the values of ``params``
    in order, then q: values(n, x, ...) stacks p_0(x)..p_n(x), weight(x, ...)
    is the density they are orthogonal under and norms(n, ...) lists E p_k^2.
    """

    params: Tuple[str, ...]
    degree: int
    values: Callable[..., np.ndarray]
    weight: Callable[..., np.ndarray]
    norms: Callable[..., List[float]]

    def gram(self, n: int, *args: float) -> np.ndarray:
        """E p_j p_k for j, k <= n; args are the parameters, then q."""
        return gram_matrix(
            lambda x: self.values(n, x, *args), lambda x: self.weight(x, *args), n, args[-1]
        )


# The entries call through module names rather than hold the functions, so a
# wrapper bound over those names (as bench/tracer.py binds) sees every call.
FAMILIES = {
    "qhermite": Family(
        (), 10,
        lambda n, x, q: q_hermite(n, x, q).values,
        lambda x, q: f_n(x, q),
        lambda n, q: [q_factorial(k, q) for k in range(n + 1)],
    ),
    "asc": Family(
        ("y", "rho1"), 8,
        lambda n, x, y, rho, q: asc_poly(n, x, y, rho, q).values,
        lambda x, y, rho, q: f_cn(x, y, rho, q),
        lambda n, y, rho, q: [
            q_pochhammer(rho * rho, q, k) * q_factorial(k, q) for k in range(n + 1)
        ],
    ),
    "rogers": Family(
        ("r",), 8,
        lambda n, x, r, q: rogers_monic(n, x, r, q).values,
        lambda x, r, q: f_r(x, r, q),
        lambda n, r, q: [
            q_factorial(k, q) * (1.0 - r) * q_pochhammer(r * r, q, k)
            / (q_pochhammer(r, q, k) * q_pochhammer(r, q, k + 1))
            for k in range(n + 1)
        ],
    ),
}

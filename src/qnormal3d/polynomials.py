"""Orthogonal polynomial families attached to the q-Normal world.

Every family is monic, p_{k+1}(x) = (x - alpha_k) p_k(x) - beta_k p_{k-1}(x)
from p_{-1} = 0 and p_0 = 1, and one loop evaluates them all.  Point
arguments may be scalars or numpy arrays (broadcast together); the returned
``values`` array has shape (n+1,) + point-shape.  The rows (alpha_k = 0
unless given):

    continuous q-Hermite   beta_k = [k]_q
    Al-Salam-Chihara       alpha_k = rho y q^k, beta_k = (1 - rho^2 q^(k-1)) [k]_q
    monic Rogers           beta_k = [k]_q (1 - b^2 q^(k-1)) / ((1 - b q^(k-1))(1 - b q^k))
    probabilists' Hermite  beta_k = k
    Gram                   beta_k = k^2 (m^2 - k^2) / (4 (4k^2 - 1)), discrete Chebyshev
                           on the m unit-spaced points j - (m - 1)/2, j = 0..m-1

``FAMILIES`` is the one table of the families orthogonal under the model's
densities (q-Hermite under f_N, Al-Salam-Chihara under f_CN, monic Rogers
under f_R): the orthogonality suite and ``qnormal3d gram`` read only it, so
a new family is one more entry.  Under a probability weight a monic family
has E p_n^2 = beta_1 ... beta_n.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .densities import f_cn, f_n, f_r
from .errors import DegenerateRecurrence
from .qcore import (
    _check_count, _check_rho, _finite, _q_binomial_row, _q_numbers, support_halfwidth
)
from .quadrature import gram_matrix

__all__ = [
    "PolySequence",
    "q_hermite",
    "asc_poly",
    "rogers_monic",
    "hermite_prob",
    "triple_product_integral",
]

_SINGULAR = 1e-15


@dataclass(frozen=True, eq=False)
class PolySequence:
    """Values p_0, ..., p_n of one polynomial family at fixed parameters
    and points, as ``values`` of shape (n+1,) + point-shape."""

    values: np.ndarray


def _recurrence(n: int, x, rows: Callable[..., tuple], *args) -> np.ndarray:
    """p_0(x) .. p_n(x) from the coefficient rows of the monic recurrence.

    The degree is checked before rows(n - 1, *args) builds (alpha, beta),
    of which it reads alpha[0..n-1] and beta[1..n-1].  ``alpha`` is None
    for a symmetric family, or an array of shape (n,) + point-shape.
    """
    _check_count(n, "n")
    alpha, beta = rows(n - 1, *args)
    x = np.asarray(x, dtype=float)
    shape = x.shape if alpha is None else np.broadcast_shapes(x.shape, alpha.shape[1:])
    values = np.empty((n + 1,) + shape)
    values[0] = 1.0
    if n >= 1:
        values[1] = x if alpha is None else x - alpha[0]
    for k in range(1, n):
        step = x if alpha is None else x - alpha[k]
        values[k + 1] = step * values[k] - beta[k] * values[k - 1]
    return values


# Row builders: (alpha, beta) for k = 0..n; beta_0 is never read.  Values to
# degree n read the rows to n - 1, so only norms to degree n read beta_n.


def _q_hermite_rows(n: int, q: float):
    return None, _q_numbers(n, q)


def _asc_rows(n: int, y, rho: float, q: float):
    y = np.asarray(y, dtype=float)
    alpha = np.array([rho * y * q**k for k in range(n + 1)]).reshape((n + 1,) + y.shape)
    qn = _q_numbers(n, q)
    return alpha, [0.0] + [(1.0 - rho**2 * q ** (k - 1)) * qn[k] for k in range(1, n + 1)]


def _rogers_rows(n: int, r: float, q: float):
    _check_rho(r, "beta")
    qn = _q_numbers(n, q)
    beta = [0.0]
    for k in range(1, n + 1):
        den = (1.0 - r * q ** (k - 1)) * (1.0 - r * q**k)
        if abs(den) < _SINGULAR:
            raise DegenerateRecurrence(
                f"monic Rogers recurrence denominator vanishes at degree {k + 1}"
            )
        beta.append(qn[k] * (1.0 - r**2 * q ** (k - 1)) / den)
    return None, beta


def _gram_rows(n: int, m: int):
    beta = [k * k * (m * m - k * k) / (4.0 * (4 * k * k - 1)) for k in range(1, n + 1)]
    return None, [0.0] + beta


def _gram_basis(n: int, m: int) -> np.ndarray:
    """The orthonormal Gram polynomials of degrees 0..n on m equispaced
    points, as an (n+1, m) array P with P P^T = I.  Under unit weights the
    monic p_k has squared norm m beta_1 ... beta_k."""
    beta = _gram_rows(n, m)[1]
    values = _recurrence(n, np.arange(m) - (m - 1) / 2, _gram_rows, m)
    return values / np.sqrt(np.cumprod([float(m), *beta[1:]]))[:, None]


def q_hermite(n: int, x, q: float) -> PolySequence:
    """Continuous q-Hermite values H_0(x|q) .. H_n(x|q)."""
    return PolySequence(_recurrence(n, x, _q_hermite_rows, q))


def asc_poly(n: int, x, y, rho: float, q: float) -> PolySequence:
    """Al-Salam-Chihara values P_0 .. P_n at x, with parameters (y, rho, q).

    At rho = 0 the recurrence collapses to the continuous q-Hermite one.
    """
    return PolySequence(_recurrence(n, x, _asc_rows, y, rho, q))


def rogers_monic(n: int, y, beta: float, q: float) -> PolySequence:
    """Monic Rogers values R_0(y|beta,q) .. R_n(y|beta,q)."""
    return PolySequence(_recurrence(n, y, _rogers_rows, beta, q))


def hermite_prob(n: int, x) -> PolySequence:
    """Probabilists' Hermite values He_0(x) .. He_n(x)."""
    return PolySequence(_recurrence(n, x, lambda m: (None, [float(k) for k in range(m + 1)])))


def triple_product_integral(k: int, m: int, n: int, q: float) -> float:
    """Integral of H_k H_m H_n against the q-Normal density.

    Nonzero only when k + m + n is even and (k, m, n) satisfy the triangle
    inequalities, in which case it equals

        [m]_q! [n]_q! [k]_q!
        / ([ (m+n-k)/2 ]_q! [ (m+k-n)/2 ]_q! [ (n+k-m)/2 ]_q!)

    The half indices are formed in integer arithmetic after the parity check.
    The value is the running product [m choose b]_q [n]_q! prod_{c<j<=k} [j]_q
    with b = (m+k-n)/2 and c = (n+k-m)/2.  Its factors are >= 1 for q >= 0,
    so it overflows, raising NonConvergence, only where the value does.
    """
    for name, index in zip("kmn", (k, m, n)):
        _check_count(index, name, None)
    if min(k, m, n) < 0:
        return 0.0
    if (k + m + n) % 2 != 0:
        return 0.0
    if m + n < k or m + k < n or n + k < m:
        return 0.0
    b = (m + k - n) // 2
    c = (n + k - m) // 2
    qn = _q_numbers(max(k, m, n), q)
    value = math.prod(qn[1 : n + 1] + qn[c + 1 : k + 1], start=_q_binomial_row(m, qn)[b])
    return _finite(value, f"triple product integral ({k}, {m}, {n})")


def default_y(q: float) -> float:
    """The Al-Salam-Chihara conditioning point when none is given: 0.37 L."""
    return 0.37 * support_halfwidth(q)


@dataclass(frozen=True)
class Family:
    """An orthogonal family, read by the orthogonality suite to ``degree``.

    Each callable takes its own arguments, then the values of ``params``
    in order, then q: coefficients(n, ...) gives the recurrence rows to
    degree n and weight(x, ...) is the density the family is orthogonal
    under.
    """

    params: Tuple[str, ...]
    degree: int
    coefficients: Callable[..., tuple]
    weight: Callable[..., np.ndarray]

    def values(self, n: int, x, *args: float) -> np.ndarray:
        """p_0(x) .. p_n(x), stacked; args are the parameters, then q."""
        return _recurrence(n, x, self.coefficients, *args)

    def norms(self, n: int, *args: float) -> List[float]:
        """E p_0^2 .. E p_n^2, the running products of beta_1 .. beta_n."""
        _check_count(n, "n")
        beta = self.coefficients(n, *args)[1]
        return list(itertools.accumulate(beta[1 : n + 1], operator.mul, initial=1.0))

    def gram(self, n: int, *args: float) -> np.ndarray:
        """E p_j p_k for j, k <= n; args are the parameters, then q."""
        return gram_matrix(
            lambda x: self.values(n, x, *args), lambda x: self.weight(x, *args), n, args[-1]
        )


# The weights look the densities up by name, so a tracer that rebinds them sees each call.
FAMILIES = {
    "qhermite": Family((), 10, _q_hermite_rows, lambda x, q: f_n(x, q)),
    "asc": Family(("y", "rho1"), 8, _asc_rows, lambda x, y, rho, q: f_cn(x, y, rho, q)),
    "rogers": Family(("r",), 8, _rogers_rows, lambda x, r, q: f_r(x, r, q)),
}

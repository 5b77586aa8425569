"""q-series arithmetic: q-numbers, q-factorials, q-binomials, q-Pochhammer
symbols and the support half-width of the q-Normal family.

Conventions used throughout the package:

    [n]_q  = 1 + q + ... + q^(n-1),          [0]_q  = 0
    [n]_q! = [1]_q [2]_q ... [n]_q,          [0]_q! = 1
    (a; q)_j   = prod_{k=1..j} (1 - a q^(k-1)),   (a; q)_0 = 1
    (a; q)_inf = prod_{k>=1}  (1 - a q^(k-1))     for |q| < 1

All functions are pure and accept plain Python scalars.  Infinite products
are truncated once the first omitted factor is within PRODUCT_TOL of 1,
with a hard cap of MAX_TERMS factors; log_q_pochhammer_inf adds the omitted
tail in closed form and sums its logs exactly, so it is correct to rounding
at every |q| < 1 within the cap.  The series elsewhere in the package
stop point by point, each point once two successive term envelopes there
fall below TAIL_TOL, under the same cap.

The package's one validity rule is written here as well: every parameter
(q, a correlation rho, the ratio r) is a real number below 1 in absolute
value, every conditioning point lies in [-L, L] with L = support_halfwidth(q),
every degree, size or count is an integer at least its lower bound, and
every seed is an integer in [0, 2**64); NaN fails the rule.  An integer
is Python's or numpy's but never a bool, and a real is a numbers.Real, so
a complex number fails.  The densities, polynomials, moments, samplers,
checks and quadrature call _check_q, _check_rho, _check_count, _check_seed
and _require_support rather than test it themselves.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_pochhammer",
    "support_halfwidth",
]

# Hard cap on retained series terms and product factors; absolute size below
# which a series term counts as spent; how close to 1 the first omitted
# product factor must be.
MAX_TERMS = 200_000
TAIL_TOL = 1e-12
PRODUCT_TOL = 1e-14


def _q_numbers(n: int, q: float) -> list:
    """[0]_q, ..., [n]_q, the running sums of 1, q, q^2, ...  The scalar
    functions below each read one entry of one of these rows."""
    out = [0.0]
    power = 1.0
    for _ in range(n):
        out.append(out[-1] + power)
        power *= q
    return out


def _q_binomial_row(n: int, qn: list) -> list:
    """[n choose k]_q for k = 0..n from qn = _q_numbers(n, q), as partial
    products of [n - i]_q / [i + 1]_q, i < min(k, n - k): each is [n choose
    i + 1]_q, so none overflows where [n]_q! does."""
    half = [1.0]
    for i in range(n // 2):
        half.append(half[-1] * qn[n - i] / qn[i + 1])
    return [half[min(k, n - k)] for k in range(n + 1)]


def _q_pochhammer_row(a: float, q: float, j: int) -> list:
    """(a; q)_0, ..., (a; q)_j, the running products of 1 - a q^i."""
    out = [1.0]
    for _ in range(j):
        out.append(out[-1] * (1.0 - a))
        a *= q
    return out


def q_number(n: int, q: float) -> float:
    """[n]_q = 1 + q + ... + q^(n-1), the q-analogue of n."""
    _check_count(n, "n")
    return _q_numbers(n, q)[n]


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = [1]_q [2]_q ... [n]_q with [0]_q! = 1."""
    _check_count(n, "n")
    return math.prod(_q_numbers(n, q)[1:], start=1.0)


def q_binomial(n: int, k: int, q: float) -> float:
    """Gaussian binomial coefficient [n choose k]_q; 0 outside 0 <= k <= n."""
    _check_count(n, "n", None)
    _check_count(k, "k", None)
    if k < 0 or k > n or n < 0:
        return 0.0
    return _q_binomial_row(n, _q_numbers(n, q))[k]


def q_pochhammer(a: float, q: float, j: int) -> float:
    """Finite q-Pochhammer symbol (a; q)_j, with (a; q)_0 = 1."""
    _check_count(j, "j")
    return _q_pochhammer_row(a, q, j)[j]


def _factors_needed(a: float, q: float) -> int:
    """Smallest K with |a| |q|^K < PRODUCT_TOL for |q| < 1: the factors to
    keep so that the first omitted factor 1 - a q^K is within it of 1."""
    a, q = abs(a), abs(q)
    if a < PRODUCT_TOL:
        return 0
    if q == 0.0:
        return 1
    k = math.log(PRODUCT_TOL / a) / math.log(q)
    n = max(1, math.ceil(k))
    # Guard against log round-off putting us one factor short.
    while a * q**n >= PRODUCT_TOL:
        n += 1
    if n > MAX_TERMS:
        raise NonConvergence(f"q-Pochhammer product needs {n} factors, cap is {MAX_TERMS}")
    return n


def log_q_pochhammer_inf(a: float, q: float) -> float:
    """log (a; q)_inf, valid for |a| < 1, |q| < 1 where every factor is positive.

    The log form stays finite where the plain product would over- or
    underflow (q close to 1).  The kept logs log1p(-a q^k) are summed with
    math.fsum and the omitted ones in closed form, so no error grows with
    the factor count, which is about 1/(1-q).
    """
    _check_rho(a, "a")
    _check_q(q)
    n = _factors_needed(a, q)
    # Each factor from its own power a q^k, not from a running product that
    # drifts; the omitted factors add sum_{k>=n} log(1 - a q^k) = -a q^n /
    # (1 - q) to within (a q^n)^2 / (1 - q^2), below PRODUCT_TOL^2 / (1 - q^2).
    # One float array of n logs, made in place and read by fsum as it goes.
    logs = np.arange(n, dtype=float)
    np.power(q, logs, out=logs)
    logs *= -a
    np.log1p(logs, out=logs)
    return math.fsum(itertools.chain(memoryview(logs), (-a * q**n / (1.0 - q),)))


def support_halfwidth(q: float) -> float:
    """Half-width 2 / sqrt(1 - q) of the support interval; inf at q = 1."""
    if not (isinstance(q, numbers.Real) and abs(q) <= 1.0):
        raise ValueError(f"support requires a real q with |q| <= 1, got {q!r}")
    if q == 1.0:
        return math.inf
    return 2.0 / math.sqrt(1.0 - q)


def _check_q(q: float) -> None:
    """The package's parameter rule for q: a real |q| < 1, NaN rejected."""
    _check_rho(q, "q")


def _check_count(n: int, name: str, least: int | None = 0) -> None:
    """The rule for a degree, size or count named ``name``: a Python or
    numpy integer, never a bool, and at least ``least`` unless it is None."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


def _check_seed(seed: int) -> None:
    """The rule for a seed, the key of a Philox stream: an integer in [0, 2**64)."""
    _check_count(seed, "seed", None)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


def _check_rho(rho: float, name: str = "rho") -> None:
    """The same rule for a correlation or ratio named ``name``."""
    if not isinstance(rho, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {rho!r}")
    if not abs(rho) < 1.0:
        raise ValueError(f"|{name}| must be < 1, got {name}={rho}")


def _finite(value: float, what: str) -> float:
    """A closed form's value, or NonConvergence where it left the double range."""
    if not math.isfinite(value):
        raise NonConvergence(f"{what} overflows the double range")
    return value


def _real_points(x, what: str) -> np.ndarray:
    """The points x as a float array, or ValueError naming ``what`` where
    they are not real numbers (a complex or a string point)."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be a real number, got {x!r}")
    return arr.astype(float, copy=False)


def _require_support(arr, half: float, what: str) -> None:
    """Raise DomainError unless every point of arr lies in [-half, half];
    a NaN point lies nowhere, and a point that is not real fails
    _real_points."""
    arr = _real_points(arr, what)
    if np.any(np.isnan(arr)):
        raise DomainError(f"{what} is NaN")
    if not np.all(np.abs(arr) <= half):
        raise DomainError(f"{what} outside the support [-{half}, {half}]")

"""Reference values in the standard library's decimal arithmetic.

Each function takes the package's float arguments exactly (Decimal of a
float is exact) and works to 60 significant digits (the infinite products,
whose factor count grows like 1/(1-q), to PREC = 40), with no fixed
truncation and no code shared with the package's own routes.  The
density and the kernel read a point x through its cosine u = x / L,
clipped to [-1, 1], with L the double 2 / sqrt(1 - q): the support is the
interval of doubles whose edge is the double L, as in the package, so
f_N(+-L) = 0.  Their factors are polynomials in u.
"""

import math
from decimal import Decimal, localcontext

PREC = 40


def _pi():
    """pi to the current precision, by the recipe of the decimal module's
    documentation."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _cos(x: float, q: float) -> Decimal:
    """u = x / L, clipped to [-1, 1]."""
    u = Decimal(x) / Decimal(2.0 / math.sqrt(1.0 - q))
    return max(Decimal(-1), min(Decimal(1), u))


def _prod(a: Decimal, q: Decimal, factor) -> Decimal:
    """prod_{i>=0} factor(a q^i), taking factors until |a q^i| < 10^-(PREC+2)."""
    total, tiny = Decimal(1), Decimal(10) ** -(PREC + 2)
    while abs(a) >= tiny:
        total *= factor(a)
        a *= q
    return total


def f_n(x: float, q: float) -> float:
    """The q-Normal density by its product formula,

        f_N(x) = sqrt(1-q) / pi * sqrt(1 - u^2) * (q; q)_inf
                 * prod_{k>=1} ((1 + q^k)^2 - 4 q^k u^2),

    with u = x / L; 0 at and outside the edges of the support."""
    with localcontext() as ctx:
        ctx.prec = PREC
        qd, u2 = Decimal(q), _cos(x, q) ** 2
        edge = (1 - qd).sqrt() / _pi() * (1 - u2).sqrt()
        poch = _prod(qd, qd, lambda a: 1 - a)
        return float(edge * poch * _prod(qd, qd, lambda a: (1 + a) ** 2 - 4 * a * u2))


def log_pm_kernel(x: float, y: float, rho: float, q: float) -> float:
    """log of the Poisson-Mehler kernel, log (rho^2; q)_inf - sum_i log
    w(x, y | rho q^i), with w(x, y | r) = (1 - r^2)^2 - 4 r (1 + r^2) u v
    + 4 r^2 (u^2 + v^2) at u = x / L, v = y / L."""
    with localcontext() as ctx:
        ctx.prec = PREC
        qd, rd = Decimal(q), Decimal(rho)
        u, v = _cos(x, q), _cos(y, q)
        uv, sq = 4 * u * v, 4 * (u * u + v * v)

        def w(r):
            r2 = r * r
            return (1 - r2) ** 2 - r * (1 + r2) * uv + r2 * sq

        return float((_prod(rd * rd, qd, lambda a: 1 - a) / _prod(rd, qd, w)).ln())


def mixed_moment_h(m: int, n: int, rho12: float, rho13: float, rho23: float, q: float) -> float:
    """E H_m(Y) H_n(Z) as the band series of total linearization degree s:

        (1 - r) sum_{s >= max(m, n)} sum_k [k]_q! [s-k]_q! / ([jm]_q! [jn]_q!)
                [m, k - jm]_q [n, k - jn]_q a^k b^(s-k)

    with jm = (s - m)/2, jn = (s - n)/2, a = rho23, b = rho12 rho13 and
    r = ab, summed until 10 successive bands fall below 1e-50 of the total.
    """
    if (m - n) % 2:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        q, a, b = Decimal(q), Decimal(rho23), Decimal(rho12) * Decimal(rho13)
        fact, power = [Decimal(1)], Decimal(1)

        def factorial(i):
            nonlocal power
            while len(fact) <= i:
                fact.append(fact[-1] * (1 - power * q) / (1 - q))
                power *= q
            return fact[i]

        def binom(top, k):
            return factorial(top) / (factorial(k) * factorial(top - k))

        def pow_(x, k):
            return x**k if k else Decimal(1)

        total, quiet, s, mu = Decimal(0), 0, max(m, n), min(m, n)
        while quiet < 10:
            jm, jn = (s - m) // 2, (s - n) // 2
            band = sum(
                factorial(k) * factorial(s - k) / (factorial(jm) * factorial(jn))
                * binom(m, k - jm) * binom(n, k - jn) * pow_(a, k) * pow_(b, s - k)
                for k in range((s - mu) // 2, (s + mu) // 2 + 1)
            )
            total += band
            quiet = quiet + 1 if abs(band) <= Decimal("1e-50") * abs(total) else 0
            s += 2
        return float((1 - a * b) * total)


def cond_exp_hn_x_given_yz(
    n: int, y: float, z: float, rho12: float, rho13: float, q: float
) -> float:
    """E(H_n(X) | Y = y, Z = z) as the Al-Salam-Chihara expansion

        sum_s [n, s]_q rho12^(n-s) rho13^s (rho12^2; q)_s / (rho12^2 rho13^2; q)_s
              H_{n-s}(y) P_s(z | y, rho12 rho13),

    with H_k the continuous q-Hermite and P_k the monic Al-Salam-Chihara
    polynomials, each from its three-term recurrence.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        q, y, z, a, b = (Decimal(v) for v in (q, y, z, rho12, rho13))
        qpow, apow, bpow = [Decimal(1)], [Decimal(1)], [Decimal(1)]
        for _ in range(n + 1):
            qpow.append(qpow[-1] * q)
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        qn = [(1 - qk) / (1 - q) for qk in qpow]
        h, p = [Decimal(1), y], [Decimal(1), z - a * b * y]
        for k in range(1, n):
            h.append(y * h[k] - qn[k] * h[k - 1])
            p.append(
                (z - a * b * y * qpow[k]) * p[k]
                - (1 - a * a * b * b * qpow[k - 1]) * qn[k] * p[k - 1]
            )
        total, binom, ratio = Decimal(0), Decimal(1), Decimal(1)
        for s in range(n + 1):
            total += binom * apow[n - s] * bpow[s] * ratio * h[n - s] * p[s]
            binom *= (1 - qpow[n - s]) / (1 - qpow[s + 1])
            ratio *= (1 - a * a * qpow[s]) / (1 - a * a * b * b * qpow[s])
        return float(total)

"""Reference values in the standard library's decimal arithmetic.

Each function takes the package's float arguments exactly (Decimal of a
float is exact) and works to 60 significant digits, with no fixed
truncation and no code shared with the package's own routes.
"""

from decimal import Decimal, localcontext


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

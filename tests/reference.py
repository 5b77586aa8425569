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

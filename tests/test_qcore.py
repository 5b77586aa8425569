"""Scalar q-series building blocks: brackets, factorials, Pochhammer products."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnormal3d.errors import NonConvergence
from qnormal3d.qcore import (
    _factors_needed,
    log_q_pochhammer_inf,
    q_binomial,
    q_factorial,
    q_number,
    q_pochhammer,
    support_halfwidth,
)

qs = st.floats(min_value=-0.95, max_value=0.95)
small_ints = st.integers(min_value=0, max_value=12)


def exact_q_number(n, q):
    return sum(q**i for i in range(n))


class TestQNumber:
    def test_values(self):
        assert q_number(0, 0.5) == 0.0
        assert q_number(1, 0.5) == 1.0
        assert q_number(3, 0.5) == pytest.approx(1.75, abs=1e-15)
        assert q_number(4, 1.0) == 4.0
        assert q_number(3, -0.5) == pytest.approx(0.75, abs=1e-15)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            q_number(-1, 0.5)

    @given(n=small_ints, q=st.fractions(min_value=-1, max_value=1, max_denominator=8))
    def test_matches_rational_sum(self, n, q):
        exact = exact_q_number(n, q)
        assert q_number(n, float(q)) == pytest.approx(float(exact), rel=1e-13, abs=1e-13)


class TestQFactorial:
    def test_values(self):
        assert q_factorial(0, 0.5) == 1.0
        assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)
        assert q_factorial(4, 0.5) == pytest.approx(4.921875, abs=1e-14)
        assert q_factorial(5, 1.0) == 120.0

    @given(n=small_ints, q=qs)
    def test_recursion(self, n, q):
        assert q_factorial(n + 1, q) == pytest.approx(
            q_number(n + 1, q) * q_factorial(n, q), rel=1e-13
        )

    @given(n=small_ints, q=qs)
    def test_pochhammer_bridge(self, n, q):
        # (q; q)_n = (1-q)^n [n]_q!
        lhs = q_pochhammer(q, q, n)
        rhs = (1.0 - q) ** n * q_factorial(n, q)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestQBinomial:
    def test_values(self):
        assert q_binomial(5, 2, 0.5) == pytest.approx(2.421875, abs=1e-14)
        assert q_binomial(4, 0, 0.7) == 1.0
        assert q_binomial(4, 4, 0.7) == 1.0
        assert q_binomial(6, 3, 1.0) == 20.0
        assert q_binomial(3, 5, 0.5) == 0.0

    def test_finite_where_factorials_overflow(self):
        # [200]_q! overflows at q = 0.99 while [200 choose 100]_q is about
        # 5.2e40.  Decimal(0.99) holds the double's exact value, so the
        # reference is the coefficient at the q the function was given.
        n, k, q = 200, 100, 0.99
        with localcontext() as ctx:
            ctx.prec = 60
            qd = Decimal(q)
            exact = Decimal(1)
            for i in range(k):
                exact = exact * (1 - qd ** (n - i)) / (1 - qd ** (i + 1))
        assert math.isinf(q_factorial(n, q))
        assert q_binomial(n, k, q) == pytest.approx(float(exact), rel=1e-13)

    @given(
        n=small_ints,
        k=small_ints,
        q=st.fractions(min_value=Fraction(-5, 6), max_value=Fraction(5, 6), max_denominator=6),
    )
    @settings(max_examples=200)
    def test_symmetry_exact_rational(self, n, k, q):
        if k > n:
            return
        left = q_binomial(n, k, float(q))
        right = q_binomial(n, n - k, float(q))
        assert left == pytest.approx(right, rel=1e-12)

    @given(n=small_ints, k=small_ints, q=qs)
    def test_pascal(self, n, k, q):
        # [n+1, k]_q = [n, k]_q + q^(n+1-k) [n, k-1]_q
        if not 1 <= k <= n:
            return
        lhs = q_binomial(n + 1, k, q)
        rhs = q_binomial(n, k, q) + q ** (n + 1 - k) * q_binomial(n, k - 1, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPochhammer:
    def test_empty_product_is_one(self):
        assert q_pochhammer(0.3, 0.5, 0) == 1.0
        assert q_pochhammer(-0.9, 0.9, 0) == 1.0

    def test_finite_values(self):
        # (0.3; 0.5)_4 = 0.7 * 0.85 * 0.925 * 0.9625
        assert q_pochhammer(0.3, 0.5, 4) == pytest.approx(0.52973593749999999, rel=1e-15)

    @given(
        a=st.fractions(min_value=-1, max_value=1, max_denominator=6),
        q=st.fractions(min_value=Fraction(-5, 6), max_value=Fraction(5, 6), max_denominator=6),
        j=small_ints,
    )
    @settings(max_examples=200)
    def test_matches_exact_rational_product(self, a, q, j):
        exact = Fraction(1)
        for i in range(j):
            exact *= 1 - a * q**i
        assert q_pochhammer(float(a), float(q), j) == pytest.approx(
            float(exact), rel=1e-12, abs=1e-12
        )

    def test_infinite_product_consistency(self):
        # (a; q)_inf == (a; q)_J * (a q^J; q)_inf for any finite split J,
        # each infinite product kept to the factors that reach PRODUCT_TOL
        def inf(a, q):
            return q_pochhammer(a, q, _factors_needed(a, q))

        a, q = 0.4, 0.6
        full = inf(a, q)
        for j in (1, 3, 7):
            split = q_pochhammer(a, q, j) * inf(a * q**j, q)
            assert full == pytest.approx(split, rel=1e-13)

    def test_log_matches_direct(self):
        for a, q in [(0.5, 0.5), (0.2, -0.8), (-0.7, 0.9)]:
            direct = q_pochhammer(a, q, _factors_needed(a, q))
            assert math.exp(log_q_pochhammer_inf(a, q)) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
    def test_log_matches_dedekind_eta(self, q):
        # eta(-1/tau) = sqrt(-i tau) eta(tau) with q = exp(-t) gives
        # log (q; q)_inf = -pi^2/(6t) + log(2pi/t)/2 + t/24 up to a term of
        # order exp(-4 pi^2 / t), below 1e-160 here.  About 32k factors at
        # q = 0.999, where a running product drifts by 8e-11.
        t = -math.log(q)
        eta = -(math.pi**2) / (6.0 * t) + 0.5 * math.log(2.0 * math.pi / t) + t / 24.0
        assert log_q_pochhammer_inf(q, q) == pytest.approx(eta, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("a", [0.3, -0.6, 0.999])
    @pytest.mark.parametrize("q", [-0.9, 0.0, 0.5, 0.99, 0.999])
    def test_log_is_fsum_of_factor_logs(self, a, q):
        # The sum of log1p(-a q^k), k < K, and the tail -a q^K / (1 - q),
        # formed as a list: the same values give the same double.
        k = _factors_needed(a, q)
        terms = np.log1p(-a * q ** np.arange(k)).tolist() + [-a * q**k / (1.0 - q)]
        assert log_q_pochhammer_inf(a, q) == math.fsum(terms)

    def test_log_holds_one_factor_array(self, traced_peak):
        k = _factors_needed(0.3, 0.999)
        peak, _ = traced_peak(lambda: log_q_pochhammer_inf(0.3, 0.999))
        assert peak <= 1.25 * 8 * k

    def test_log_rejects_large_argument(self):
        with pytest.raises(ValueError):
            log_q_pochhammer_inf(1.5, 0.5)

    def test_log_names_the_factor_cap(self):
        # At a = 1 - 1e-9 the tail bound needs about 3.15e10 factors.
        with pytest.raises(NonConvergence, match=r"needs \d+ factors, cap is"):
            log_q_pochhammer_inf(0.5, 1 - 1e-9)


def _loop_q_number(n, q):
    total, power = 0.0, 1.0
    for _ in range(n):
        total += power
        power *= q
    return total


def _loop_q_binomial(n, k, q):
    out = 1.0
    for i in range(min(k, n - k)):
        out = out * _loop_q_number(n - i, q) / _loop_q_number(i + 1, q)
    return out


def _loop_q_pochhammer(a, q, j):
    out, term = 1.0, a
    for _ in range(j):
        out *= 1.0 - term
        term *= q
    return out


@pytest.mark.parametrize("q", [0.7, -0.5, 0.99, 0.0, 0.999])
def test_scalars_equal_their_one_call_loops_bit_for_bit(q):
    # Each scalar reads one entry of a row; the rows multiply and add in the
    # order of these loops, so a caller reading a row gets the same bits.
    for n in range(60):
        assert q_number(n, q).hex() == _loop_q_number(n, q).hex()
        fact = 1.0
        for k in range(1, n + 1):
            fact *= _loop_q_number(k, q)
        assert q_factorial(n, q).hex() == fact.hex()
        for k in range(n + 1):
            assert q_binomial(n, k, q).hex() == _loop_q_binomial(n, k, q).hex()
        for a in (0.3, -0.7, 0.99 * q):
            assert q_pochhammer(a, q, n).hex() == _loop_q_pochhammer(a, q, n).hex()


class TestSupport:
    def test_halfwidth_values(self):
        assert support_halfwidth(0.0) == 2.0
        assert support_halfwidth(0.75) == 4.0

    @given(q=qs)
    def test_halfwidth_identity(self, q):
        half = support_halfwidth(q)
        assert (1.0 - q) * half * half == pytest.approx(4.0, rel=1e-13)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            support_halfwidth(1.5)


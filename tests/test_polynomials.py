"""Recurrence-built polynomial families and their exact cross-relations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnormal3d.errors import DegenerateRecurrence, NonConvergence
from qnormal3d.polynomials import (
    FAMILIES,
    PolySequence,
    _gauss,
    asc_poly,
    hermite_prob,
    q_hermite,
    rogers_monic,
    triple_product_integral,
)
from qnormal3d.qcore import q_factorial, q_number, q_pochhammer, support_halfwidth

qs = st.floats(min_value=-0.9, max_value=0.9)
xs = st.floats(min_value=-1.8, max_value=1.8)
degrees = st.integers(min_value=0, max_value=10)


def chebyshev_u(n, theta):
    """U_n(cos theta) = sin((n+1) theta) / sin(theta), the closed form."""
    return np.sin((n + 1) * theta) / np.sin(theta)


class TestQHermite:
    def test_low_degrees_closed_form(self):
        x, q = 1.2, 0.3
        vals = q_hermite(4, x, q).values
        assert vals[0] == 1.0
        assert vals[1] == x
        assert vals[2] == pytest.approx(x * x - 1.0, abs=1e-15)
        assert vals[3] == pytest.approx(x**3 - (2.0 + q) * x, abs=1e-14)
        assert vals[4] == pytest.approx(-1.85, abs=1e-14)

    def test_frozen_value(self):
        assert q_hermite(3, 1.0, 0.5).values[3] == pytest.approx(-1.5, abs=1e-15)

    @given(x=xs, q=qs, n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=150)
    def test_recurrence(self, x, q, n):
        vals = q_hermite(n + 1, x, q).values
        lhs = vals[n + 1]
        rhs = x * vals[n] - q_number(n, q) * vals[n - 1]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(x=xs, n=st.integers(min_value=0, max_value=10))
    def test_q_one_is_probabilists_hermite(self, x, n):
        lhs = q_hermite(n, x, 1.0).values[n]
        rhs = hermite_prob(n, x).values[n]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(theta=st.floats(min_value=0.1, max_value=3.0), n=degrees)
    def test_q_zero_is_chebyshev(self, theta, n):
        lhs = q_hermite(n, 2.0 * np.cos(theta), 0.0).values[n]
        rhs = chebyshev_u(n, theta)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_vector_points(self):
        xs_arr = np.linspace(-1.5, 1.5, 7)
        seq = q_hermite(5, xs_arr, 0.4)
        assert seq.values.shape == (6, 7)
        for i, x in enumerate(xs_arr):
            assert seq.values[3, i] == pytest.approx(q_hermite(3, float(x), 0.4).values[3])


class TestAlSalamChihara:
    def test_reduces_to_q_hermite_at_zero_coupling(self):
        vals = asc_poly(4, 0.9, 0.2, 0.0, 0.5).values
        ref = q_hermite(4, 0.9, 0.5).values
        np.testing.assert_allclose(vals, ref, rtol=1e-14)

    @given(x=xs, y=xs, rho=st.floats(min_value=-0.85, max_value=0.85), q=qs)
    @settings(max_examples=150)
    def test_recurrence(self, x, y, rho, q):
        n = 4
        vals = asc_poly(n + 1, x, y, rho, q).values
        lhs = vals[n + 1]
        rhs = (x - rho * q**n * y) * vals[n] - (
            1.0 - rho * rho * q ** (n - 1)
        ) * q_number(n, q) * vals[n - 1]
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_degree_zero_and_one(self):
        vals = asc_poly(1, 0.7, -0.4, 0.6, 0.3).values
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(0.7 - 0.6 * (-0.4), abs=1e-15)


class TestRogers:
    def test_reduces_to_q_hermite_at_zero(self):
        np.testing.assert_allclose(
            rogers_monic(5, 0.9, 0.0, 0.5).values,
            q_hermite(5, 0.9, 0.5).values,
            rtol=1e-14,
        )

    def test_q_zero_degree_two(self):
        # at q = 0 the monic family has p2 = x^2 - (1 + r)
        x, r = 1.1, 0.35
        assert rogers_monic(2, x, r, 0.0).values[2] == pytest.approx(
            x * x - (1.0 + r), abs=1e-14
        )

    @given(
        theta=st.floats(min_value=0.3, max_value=2.8),
        r=st.floats(min_value=-0.8, max_value=0.8),
        n=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=100)
    def test_q_zero_chebyshev_combination(self, theta, r, n):
        # at q = 0, on the doubled argument, p_n = U_n - r U_{n-2}
        combo = chebyshev_u(n, theta) - r * chebyshev_u(n - 2, theta)
        assert rogers_monic(n, 2.0 * np.cos(theta), r, 0.0).values[n] == pytest.approx(
            combo, rel=1e-10, abs=1e-10
        )


    def test_degenerate_denominator_raises_at_degree_two(self):
        # (1 - r)(1 - r q) vanishes in floating point; degree 1 never reads it.
        r = 0.9999999999999999
        np.testing.assert_array_equal(rogers_monic(1, 0.1, r, 0.5).values, [1.0, 0.1])
        with pytest.raises(DegenerateRecurrence, match="vanishes at degree 2"):
            rogers_monic(2, 0.1, r, 0.5)


class TestFamilyNorms:
    """The norms FAMILIES reads off its recurrence rows against the paper's
    closed forms."""

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9, 0.99])
    def test_beta_products_are_closed_forms(self, q):
        n = 10
        ks = range(n + 1)
        for c in (0.3, -0.6, 0.9):
            closed = {
                "qhermite": ((), [q_factorial(k, q) for k in ks]),
                "asc": ((0.4, c), [q_pochhammer(c * c, q, k) * q_factorial(k, q) for k in ks]),
                "rogers": ((c,), [
                    q_factorial(k, q) * (1.0 - c) * q_pochhammer(c * c, q, k)
                    / (q_pochhammer(c, q, k) * q_pochhammer(c, q, k + 1))
                    for k in ks
                ]),
            }
            for name, (args, want) in closed.items():
                got = FAMILIES[name].norms(n, *args, q)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=name)


class TestGaussRule:
    """The k-point rule from each family's rows: a probability rule on the
    support that integrates p_i p_j, i, j < k, exactly."""

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("name, args", [("qhermite", ()), ("asc", (0.4, 0.6)), ("rogers", (0.7,))])
    def test_reproduces_the_norms(self, name, args, q):
        family = FAMILIES[name]
        for k in (1, 2, 5, 12, 20):
            nodes, weights = _gauss(k, *family.coefficients(k, *args, q))
            weights = np.array(weights)
            assert np.all(weights > 0.0) and math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
            assert np.all(np.diff(nodes) > 0.0) and max(map(abs, nodes)) < support_halfwidth(q)
            values = family.values(k - 1, np.array(nodes), *args, q)
            # E p_i p_j / sqrt(h_i h_j) is the identity, h = Family.norms.
            root = np.sqrt(family.norms(k - 1, *args, q))
            gram = (values * weights) @ values.T / np.outer(root, root)
            np.testing.assert_allclose(gram, np.eye(k), rtol=0.0, atol=1e-12)


class TestTripleProduct:
    def test_parity_zero(self):
        assert triple_product_integral(1, 1, 1, 0.5) == 0.0
        assert triple_product_integral(2, 1, 0, 0.5) == 0.0

    def test_triangle_violation_zero(self):
        assert triple_product_integral(5, 1, 1, 0.5) == 0.0

    def test_negative_index_zero(self):
        assert triple_product_integral(-1, 1, 1, 0.5) == 0.0

    def test_frozen_value(self):
        # E H1 H1 H2 = [2]! / ([0]! [1]! [1]!) ... = q-multinomial form
        assert triple_product_integral(1, 1, 2, 0.5) == pytest.approx(1.5, abs=1e-14)

    @given(
        k=st.integers(min_value=0, max_value=5),
        m=st.integers(min_value=0, max_value=5),
        n=st.integers(min_value=0, max_value=5),
        q=qs,
    )
    @settings(max_examples=150)
    def test_symmetry(self, k, m, n, q):
        ref = triple_product_integral(k, m, n, q)
        assert triple_product_integral(m, k, n, q) == pytest.approx(ref, rel=1e-12)
        assert triple_product_integral(n, m, k, q) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("k, m, n, q", [(2, 300, 300, 0.9), (4, 200, 202, 0.95)])
    def test_past_factorial_overflow(self, k, m, n, q):
        # [m]_q! [n]_q! overflows here; the integral, about 2.4e295 and
        # 6.3e251, does not.
        def log_fact(j):
            return math.fsum(math.log((1.0 - q**i) / (1.0 - q)) for i in range(1, j + 1))

        halves = ((m + n - k) // 2, (m + k - n) // 2, (n + k - m) // 2)
        want = math.fsum(map(log_fact, (k, m, n))) - math.fsum(map(log_fact, halves))
        assert math.log(triple_product_integral(k, m, n, q)) == pytest.approx(want, abs=1e-12)

    def test_past_the_double_range_raises(self):
        with pytest.raises(NonConvergence, match="overflow"):
            triple_product_integral(300, 300, 300, 0.9)


class TestPolySequence:
    def test_shape_and_order(self):
        seq = q_hermite(3, 0.5, 0.2)
        assert isinstance(seq, PolySequence)
        assert seq.values.shape == (4,)

"""Adaptive midpoint-rule integration in the angle over the compact support."""

import math

import numpy as np
import pytest

from qnormal3d.checks import TOL_GRAM_DIAG, TOL_GRAM_OFFDIAG
from qnormal3d.densities import ModelParams, f_3d, f_n
from qnormal3d.errors import NonConvergence
from qnormal3d.polynomials import q_hermite
from qnormal3d.qcore import q_factorial
from qnormal3d.quadrature import (
    QUAD_TOL_1D,
    IntegralResult,
    _axis,
    _value_3d,
    gram_matrix,
    integrate1d,
    integrate2d,
    integrate3d,
)


class TestIntegrate1d:
    def test_semicircle_even_moments(self):
        # moments of the q = 0 base law are the Catalan numbers
        for k, catalan in [(0, 1.0), (1, 1.0), (2, 2.0), (3, 5.0)]:
            res = integrate1d(lambda x: x ** (2 * k) * f_n(x, 0.0), 0.0)
            assert res.value == pytest.approx(catalan, abs=1e-10)
            assert res.error_estimate <= QUAD_TOL_1D

    def test_odd_moments_vanish(self):
        res = integrate1d(lambda x: x**3 * f_n(x, 0.4), 0.4)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_result_fields(self):
        # The q = 0 semicircle weight, which has the edge factor of the
        # integrand class the rule is built for.
        res = integrate1d(lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)), 0.0)
        assert isinstance(res, IntegralResult)
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert res.panels_used >= 1

    def test_integrand_without_edge_factor_raises(self):
        # A constant has a kink at the ends of the period in the angle, so
        # the levels converge only like n^-2: correct or raise, never a
        # value that did not reach the tolerance.
        with pytest.raises(NonConvergence):
            integrate1d(lambda x: np.ones_like(x), 0.0)

    def test_two_edge_factors_converge_algebraically(self):
        # f_N(x)^2 has two edge factors in x, so in the angle it is odd at
        # the ends of the period and the levels converge like n^-4: it still
        # reaches QUAD_TOL_1D, on more panels than f_N itself needs.
        res = integrate1d(lambda x: f_n(x, 0.0) ** 2, 0.0)
        assert res.value == pytest.approx(8.0 / (3.0 * math.pi**2), rel=1e-10)
        assert res.panels_used >= 8
        assert integrate1d(lambda x: f_n(x, 0.0), 0.0).panels_used <= 2

    def test_nonconvergence_with_tiny_budget(self):
        # A jump inside the support defeats the spectral convergence, so the
        # panel doubling runs out of panels before two levels agree.
        with pytest.raises(NonConvergence):
            integrate1d(lambda x: (x > 0.3) * f_n(x, 0.5), 0.5)


class TestIntegrate2d:
    def test_separable_product(self):
        q = 0.5
        res = integrate2d(lambda x, y: f_n(x, q) * f_n(y, q), q)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_polynomial_weight(self):
        q = 0.3
        res = integrate2d(lambda x, y: x * x * f_n(x, q) * f_n(y, q), q)
        assert res.value == pytest.approx(1.0, abs=1e-8)


class TestIntegrate3d:
    def test_joint_density_normalizes(self, params):
        res = integrate3d(lambda x, y, z: f_3d(x, y, z, params), params.q)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_settles_at_64_nodes_per_axis(self):
        # In the angle the density is smooth and periodic, so two panels
        # (64 nodes per axis, a 1 MB slab) already agree with one to 1e-6.
        p = ModelParams(0.3, 0.6, -0.6, 0.9)
        res = integrate3d(lambda x, y, z: f_3d(x, y, z, p), p.q)
        assert res.panels_used == 2
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_slabs_sum_to_the_whole_grid(self, params):
        # A level is summed one x-panel at a time; only the order of the
        # additions differs from one sum over the whole grid.
        f = lambda x, y, z: f_3d(x, y, z, params)
        x, w = _axis(params.q, 4)
        whole = np.einsum(
            "ijk,i,j,k->", f(x[:, None, None], x[None, :, None], x[None, None, :]), w, w, w
        )
        assert _value_3d(f, params.q, 4) == pytest.approx(whole, rel=1e-14)


class TestGramMatrix:
    def test_matches_pairwise_integrals(self):
        q, n = 0.5, 3
        gram = gram_matrix(
            lambda xs: q_hermite(n, xs, q).values, lambda xs: f_n(xs, q), n, q
        )
        for i in range(n + 1):
            for j in range(i, n + 1):
                direct = integrate1d(
                    lambda x: q_hermite(n, x, q).values[i]
                    * q_hermite(n, x, q).values[j]
                    * f_n(x, q),
                    q,
                ).value
                assert gram[i, j] == pytest.approx(direct, rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("q", (0.99, 0.999))
    def test_q_hermite_near_one(self, q):
        # The entries reach [10]_q! ~ 3e6, so f_N's relative error must
        # stay near 1e-15 for the off-diagonal to stay below 1e-8.
        n = 10
        gram = gram_matrix(
            lambda xs: q_hermite(n, xs, q).values, lambda xs: f_n(xs, q), n, q
        )
        diag = np.array([q_factorial(k, q) for k in range(n + 1)])
        assert np.max(np.abs(np.diag(gram) / diag - 1.0)) <= TOL_GRAM_DIAG
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= TOL_GRAM_OFFDIAG

    def test_symmetric(self):
        q, n = -0.4, 5
        gram = gram_matrix(
            lambda xs: q_hermite(n, xs, q).values, lambda xs: f_n(xs, q), n, q
        )
        np.testing.assert_allclose(gram, gram.T, rtol=0, atol=1e-14)


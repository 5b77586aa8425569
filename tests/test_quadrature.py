"""Adaptive Gauss-Legendre integration over the compact support."""

import numpy as np
import pytest

from qnormal3d.densities import ModelParams, f_3d, f_n
from qnormal3d.errors import NonConvergence
from qnormal3d.polynomials import q_hermite
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
        res = integrate1d(lambda x: np.ones_like(x), 0.0)
        assert isinstance(res, IntegralResult)
        assert res.value == pytest.approx(4.0, rel=1e-12)
        assert res.panels_used >= 1

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

    def test_symmetric(self):
        q, n = -0.4, 5
        gram = gram_matrix(
            lambda xs: q_hermite(n, xs, q).values, lambda xs: f_n(xs, q), n, q
        )
        np.testing.assert_allclose(gram, gram.T, rtol=0, atol=1e-14)


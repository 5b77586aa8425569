"""Adaptive midpoint-rule integration in the angle over the compact support."""

import math

import numpy as np
import pytest

from qnormal3d.checks import SWEEP_Q, SWEEP_RHO, TOL_COND_QUAD, TOL_GRAM_DIAG, TOL_GRAM_OFFDIAG
from qnormal3d.densities import ModelParams, _cycle, f_3d, f_n, f_yz
from qnormal3d.errors import NonConvergence
from qnormal3d.moments import MomentKind, MomentSpec, closed_form, quadrature_oracle
from qnormal3d.polynomials import q_hermite
from qnormal3d.qcore import q_factorial, support_halfwidth
from qnormal3d.quadrature import (
    QUAD_ORDER,
    QUAD_TOL_1D,
    QUAD_TOL_2D,
    QUAD_TOL_3D,
    IntegralResult,
    _axis,
    _integrate_cycle,
    _phi_of_theta,
    _theta_of_phi,
    _value_3d,
    gram_matrix,
    integrate1d,
    integrate2d,
    integrate3d,
)


class TestAngleMap:
    @pytest.mark.parametrize("q", (-0.5, 0.0, 0.5, 0.9, 15 / 16))
    def test_plain_midpoint_rule_up_to_15_16(self, q):
        # eps = min(1, 8/L) is 1 for q <= 15/16, where the map is the
        # identity and the nodes and weights are bit-identical to the plain
        # midpoint rule in theta.
        half = support_halfwidth(q)
        for panels in (1, 2, 4):
            n = QUAD_ORDER * panels
            step = math.pi / n
            theta = (np.arange(n) - 0.5 * (n - 1)) * step
            x, w = _axis(q, panels)
            np.testing.assert_array_equal(x, half * np.sin(theta))
            np.testing.assert_array_equal(w, (step * half) * np.cos(theta))

    @pytest.mark.parametrize("q", (0.95, 0.99, 0.999))
    def test_map_and_inverse(self, q):
        half = support_halfwidth(q)
        eps = 8.0 / half
        phi = np.linspace(-1.5, 1.5, 41)
        theta, dtheta = _theta_of_phi(phi, half)
        np.testing.assert_allclose(np.tan(theta), eps * np.tan(phi), rtol=1e-13)
        np.testing.assert_allclose(_phi_of_theta(theta, half), phi, rtol=0, atol=1e-14)
        h = 1e-6
        up, down = _theta_of_phi(phi + h, half)[0], _theta_of_phi(phi - h, half)[0]
        np.testing.assert_allclose(dtheta, (up - down) / (2 * h), rtol=1e-7)


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

    def test_large_integral_settles_on_its_scale(self):
        # E(H_5(X) | y, z) at (y, z) = (0.4 L, -0.7 L), L = 20, is about
        # 7.3e4.  Its levels agree to about 1e-14 relative but never within
        # an absolute 1e-10, so the stop scales the tolerance by the value.
        p = ModelParams(0.3, -0.6, 0.3, 0.99)
        spec = MomentSpec(MomentKind.COND_X_GIVEN_YZ, (5,), p, (8.0, -14.0))
        exact = closed_form(spec)
        assert abs(exact) > 1e4
        assert abs(quadrature_oracle(spec) - exact) <= TOL_COND_QUAD

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

    @pytest.mark.parametrize("q", (0.99, 0.999))
    def test_settles_at_64_nodes_per_axis_near_gaussian(self, q):
        # The angle map keeps the nodes on the Gaussian bulk |x| < 8 as the
        # support widens, so the level does not grow as q -> 1.
        p = ModelParams(0.3, 0.6, -0.6, q)
        res3 = integrate3d(lambda x, y, z: f_3d(x, y, z, p), q)
        res2 = integrate2d(lambda x, y: f_yz(x, y, p), q)
        assert (res3.panels_used, res2.panels_used) == (2, 2)
        assert res3.value == pytest.approx(1.0, abs=QUAD_TOL_3D)
        assert res2.value == pytest.approx(1.0, abs=QUAD_TOL_2D)

    def test_slabs_sum_to_the_whole_grid(self, params):
        # A level is summed one x-panel at a time; only the order of the
        # additions differs from one sum over the whole grid.
        f = lambda x, y, z: f_3d(x, y, z, params)
        x, w = _axis(params.q, 4)
        whole = np.einsum(
            "ijk,i,j,k->", f(x[:, None, None], x[None, :, None], x[None, None, :]), w, w, w
        )
        assert _value_3d(f, params.q, 4) == pytest.approx(whole, rel=1e-14)


class TestIntegrateCycle:
    @pytest.mark.parametrize("q", SWEEP_Q + (0.99, 0.999))
    def test_matches_the_slab_route_on_the_acceptance_grid(self, q):
        # The same nodes, weights and factor values as integrate3d(f_3d);
        # only the order of the additions differs.  q = 0.99 and 0.999 run
        # the angle map as well.
        for rho in SWEEP_RHO:
            p = ModelParams(*rho, q)
            cycle = _integrate_cycle(*_cycle(p), q)
            slab = integrate3d(lambda x, y, z: f_3d(x, y, z, p), q)
            assert cycle.panels_used == slab.panels_used
            assert cycle.value == pytest.approx(slab.value, rel=1e-13, abs=0)

    def test_factors_are_f_3d_product_form(self, params):
        # f_3d sums the same three log factors that the cycle integrates.
        a, b, c = _cycle(params)
        x, _ = _axis(params.q, 1)
        xs, ys, zs = x[:, None, None], x[None, :, None], x[None, None, :]
        assert np.array_equal(f_3d(xs, ys, zs, params), np.exp(a(xs, ys) + b(ys, zs) + c(zs, xs)))


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

    def test_raises_when_it_cannot_settle(self):
        # A constant weight has no edge factor, so the levels converge only
        # like n^-2, as for integrate1d.
        with pytest.raises(NonConvergence):
            gram_matrix(lambda xs: np.ones((1, len(xs))), lambda xs: np.ones_like(xs), 0, 0.0)

    def test_symmetric(self):
        q, n = -0.4, 5
        gram = gram_matrix(
            lambda xs: q_hermite(n, xs, q).values, lambda xs: f_n(xs, q), n, q
        )
        np.testing.assert_allclose(gram, gram.T, rtol=0, atol=1e-14)


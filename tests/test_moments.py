"""Closed-form moments against their quadrature oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnormal3d.checks import TOL_COND_FORMS
from qnormal3d.densities import ModelParams
from qnormal3d.errors import DomainError, NonConvergence
from qnormal3d.moments import (
    CondMomentForm,
    MomentKind,
    MomentSpec,
    _covariance,
    closed_form,
    cond_exp_hn_x_given_yz,
    cond_exp_hn_y_given_z,
    cond_exp_x_given_yz,
    cond_exp_xy_given_z,
    cov_yz,
    e_h2n_z,
    mixed_moment_h,
    quadrature_oracle,
    var_z,
)
from qnormal3d.polynomials import asc_poly, q_hermite
from qnormal3d.qcore import q_binomial, q_factorial, q_pochhammer, support_halfwidth

import reference

rhos = st.floats(min_value=-0.7, max_value=0.7)
qs = st.floats(min_value=-0.8, max_value=0.8)


class TestUnivariateClosedForms:
    def test_even_hermite_moment_plugin(self):
        assert e_h2n_z(1, 0.5, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_variance_plugins(self):
        assert var_z(0.5, 0.0) == pytest.approx(1.5, abs=1e-15)
        assert var_z(0.3, 0.5) == pytest.approx(1.3 / 0.85, rel=1e-15)

    @pytest.mark.parametrize("n, r, q", [(200, 0.3, 0.9), (100, 0.3, 0.999)])
    def test_even_hermite_moment_past_factorial_overflow(self, n, r, q):
        # [2n]_q! overflows here; the moment, about 4.9e96 and 1.1e176, does not.
        logs = [n * math.log(r)]
        logs += [math.log((1.0 - q**k) / (1.0 - q)) for k in range(n + 1, 2 * n + 1)]
        logs += [-math.log1p(-r * q**j) for j in range(1, n + 1)]
        want = math.exp(math.fsum(logs))
        assert e_h2n_z(n, r, q) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_even_hermite_moment_past_the_double_range_raises(self):
        with pytest.raises(NonConvergence, match="overflow"):
            e_h2n_z(2000, 0.9, 0.99)

    @given(r=st.floats(min_value=-0.7, max_value=0.7), q=qs)
    def test_variance_from_hermite_moment(self, r, q):
        # E z^2 = E H_2(z) + 1
        assert var_z(r, q) == pytest.approx(e_h2n_z(1, r, q) + 1.0, rel=1e-13)

    def test_covariance_plugin(self, params):
        # (rho23 + rho12 rho13) / (1 - r q)
        assert cov_yz(params) == pytest.approx(0.62 / 0.97, rel=1e-14)


class TestMixedMoments:
    def test_odd_parity_vanishes(self, params):
        assert mixed_moment_h(1, 2, params) == 0.0
        assert mixed_moment_h(3, 0, params) == 0.0

    def test_frozen_value(self, params):
        assert mixed_moment_h(2, 2, params) == pytest.approx(0.56062588309173689, rel=1e-12)

    def test_zero_zero_normalizes(self, params):
        assert mixed_moment_h(0, 0, params) == pytest.approx(1.0, rel=1e-12)

    def test_strong_correlation_converges(self):
        # At r = 0.95^3 = 0.857 the Rogers rules of k and k + 1 nodes must
        # still agree and give the normalization and the covariance.
        p = ModelParams(0.95, 0.95, 0.95, 0.9)
        assert mixed_moment_h(0, 0, p) == pytest.approx(1.0, rel=1e-12)
        assert mixed_moment_h(1, 1, p) == pytest.approx(cov_yz(p), rel=1e-12)

    def test_past_the_ratio_overflow(self):
        # A band's factorial ratio overflows here before the powers of
        # a = rho23 and b = rho12 rho13 scale it down; the moment is ~9.9e77.
        want = reference.mixed_moment_h(200, 200, 0.05, 0.05, 0.05, 0.99)
        got = mixed_moment_h(200, 200, ModelParams(0.05, 0.05, 0.05, 0.99))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert math.log10(want) == pytest.approx(77.995, abs=1e-3)

    def test_past_the_double_range_raises(self):
        with pytest.raises(NonConvergence, match="overflow"):
            mixed_moment_h(200, 200, ModelParams(0.9, 0.9, 0.9, 0.99))

    def test_cancellation_raises(self):
        # The inner sums of E(H_150(Y) | z) cancel by ~6e18 here, so the
        # Gauss rules of 151 and 152 nodes part at 1.3e-6 relative, far
        # above what rounding of two exact rules allows; the moment, ~3.5e191
        # by a 400-digit sum of the band series, is not resolved.
        with pytest.raises(NonConvergence, match="cancels"):
            mixed_moment_h(150, 150, ModelParams(0.3, -0.6, 0.5, 0.99))

    @pytest.mark.parametrize("rho", [(0.0, 0.6, 0.5), (0.3, 0.6, 0.0)], ids=["b=0", "a=0"])
    def test_zero_power_base_matches_oracle(self, rho):
        spec = MomentSpec(MomentKind.UNCONDITIONAL, (2, 4), ModelParams(*rho, 0.5))
        assert closed_form(spec) == pytest.approx(quadrature_oracle(spec), rel=1e-9, abs=1e-12)


    @pytest.mark.parametrize(
        "rho, q, m, n",
        [
            ((-0.6, 0.7, 0.9), 0.7, 3, 3),
            ((0.8, -0.5, 0.9), 0.9, 4, 4),
            ((-0.9, 0.9, 0.9), 0.99, 6, 8),
            ((0.9, -0.9, 0.9), 0.99, 5, 5),
            ((0.9, -0.9, 0.9), 0.99, 30, 30),
            ((0.3, -0.6, 0.5), 0.99, 20, 20),
        ],
    )
    def test_matches_the_decimal_reference(self, rho, q, m, n):
        # Points where a truncated band series in doubles raised: its terms
        # reach 1e27 times the moment at m = n = 30.
        want = reference.mixed_moment_h(m, n, *rho, q)
        assert mixed_moment_h(m, n, ModelParams(*rho, q)) == pytest.approx(want, rel=1e-12)


class TestOracleRegistry:
    def test_every_kind_has_closed_and_oracle(self, params):
        specs = {
            MomentKind.UNCONDITIONAL: MomentSpec(
                MomentKind.UNCONDITIONAL, (2,), params
            ),
            MomentKind.COND_X_GIVEN_YZ: MomentSpec(
                MomentKind.COND_X_GIVEN_YZ, (2,), params, (0.5, -0.3)
            ),
            MomentKind.COND_Y_GIVEN_Z: MomentSpec(
                MomentKind.COND_Y_GIVEN_Z, (2,), params, (0.4,)
            ),
            MomentKind.COND_XY_GIVEN_Z: MomentSpec(
                MomentKind.COND_XY_GIVEN_Z, (1, 1), params, (0.4,)
            ),
        }
        assert set(specs) == set(MomentKind)
        for spec in specs.values():
            closed = closed_form(spec)
            oracle = quadrature_oracle(spec)
            assert closed == pytest.approx(oracle, rel=1e-6, abs=1e-8)

    def test_spec_validates_points(self, params):
        with pytest.raises(DomainError):
            MomentSpec(MomentKind.COND_Y_GIVEN_Z, (2,), params, (99.0,))

    def test_spec_validates_degrees(self, params):
        with pytest.raises(ValueError):
            MomentSpec(MomentKind.UNCONDITIONAL, (-1,), params)

    @pytest.mark.parametrize("degrees", [(2, 3), (5,), (1,), (1, 2), (1, 1, 1)])
    def test_product_moment_takes_degrees_one_one(self, degrees):
        # Both routes evaluate E(XY | Z), which is the (1, 1) moment only.
        p = ModelParams(0.3, 0.6, -0.6, 0.5)
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            MomentSpec(MomentKind.COND_XY_GIVEN_Z, degrees, p, (0.4,))

    @pytest.mark.parametrize(
        "kind, degrees, points",
        [
            (MomentKind.UNCONDITIONAL, (2,), (0.3,)),
            (MomentKind.COND_X_GIVEN_YZ, (2,), (0.3,)),
            (MomentKind.COND_Y_GIVEN_Z, (2, 2), (0.3,)),
            (MomentKind.COND_Y_GIVEN_Z, (2,), (0.3, 0.4)),
            (MomentKind.UNCONDITIONAL, (2, 2, 2), ()),
            ("mixed", (2, 2), ()),
        ],
        ids=[
            "unconditional-with-a-point",
            "cond-x-with-one-point",
            "cond-y-with-two-degrees",
            "cond-y-with-two-points",
            "unconditional-with-three-degrees",
            "not-a-moment-kind",
        ],
    )
    def test_spec_rejects_a_shape_its_kind_does_not_take(self, kind, degrees, points):
        # Once MomentSpec has checked the shape, the evaluators unpack it
        # unchecked, so a dropped point or a short unpack cannot happen there.
        p = ModelParams(0.3, 0.6, -0.6, 0.5)
        name = kind.value if isinstance(kind, MomentKind) else kind
        with pytest.raises(ValueError, match=re.escape(name)):
            MomentSpec(kind, degrees, p, points)


def _term_by_term(n, y, z, rho12, rho13, q, form):
    """E(H_n(X) | y, z) with every q-binomial and q-Pochhammer symbol formed
    anew for each term: the reference the row-reading forms must equal."""
    hy = q_hermite(n, y, q).values
    total = 0.0
    if form is CondMomentForm.ASC_EXPANSION:
        pz = asc_poly(n, z, y, rho12 * rho13, q).values
        for s in range(n + 1):
            total += (
                q_binomial(n, s, q)
                * rho12 ** (n - s)
                * rho13**s
                * q_pochhammer(rho12**2, q, s)
                / q_pochhammer(rho12**2 * rho13**2, q, s)
                * hy[n - s]
                * pz[s]
            )
        return total
    hz = q_hermite(n, z, q).values
    for k in range(n // 2 + 1):
        outer = (
            (-1) ** k
            * q ** (k * (k - 1) // 2)
            * q_binomial(n, 2 * k, q)
            * q_binomial(2 * k, k, q)
            * q_factorial(k, q)
            * (rho12 * rho13) ** (2 * k)
            * q_pochhammer(rho12**2, q, k)
            * q_pochhammer(rho13**2, q, k)
        )
        inner = 0.0
        for j in range(n - 2 * k + 1):
            inner += (
                q_binomial(n - 2 * k, j, q)
                * q_pochhammer(rho12**2 * q**k, q, j)
                * q_pochhammer(rho13**2 * q**k, q, n - 2 * k - j)
                * rho12 ** (n - 2 * k - j)
                * rho13**j
                * hz[j]
                * hy[n - 2 * k - j]
            )
        total += outer * inner
    return total / q_pochhammer(rho12**2 * rho13**2, q, n)


class TestConditionalForms:
    @given(
        r12=rhos,
        r13=rhos,
        r23=rhos,
        q=st.floats(min_value=-0.6, max_value=0.6),
        n=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_routes_agree(self, r12, r13, r23, q, n):
        p = ModelParams(r12, r13, r23, q)
        y, z = 0.45, -0.25
        ref = cond_exp_hn_x_given_yz(n, y, z, p, form=CondMomentForm.ASC_EXPANSION)
        alt = cond_exp_hn_x_given_yz(n, y, z, p, form=CondMomentForm.DOUBLE_SUM)
        assert alt == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_high_degree_forms_finite_and_agree(self):
        # At n = 200, q = 0.99 the q-binomial weights exceed what [n]_q!
        # can hold; both expansions must still give the same finite value.
        args = (200, 8.0, -14.0, ModelParams(0.3, -0.6, 0.0, 0.99))
        ref = cond_exp_hn_x_given_yz(*args, form=CondMomentForm.ASC_EXPANSION)
        alt = cond_exp_hn_x_given_yz(*args, form=CondMomentForm.DOUBLE_SUM)
        assert np.isfinite(ref) and np.isfinite(alt)
        assert alt == pytest.approx(ref, rel=TOL_COND_FORMS)

    @pytest.mark.parametrize(
        "q, rho12, rho13, y, z, n, tol",
        [
            (0.5, 0.3, 0.6, 0.37, -0.21, 10, 1e-12),
            (0.9, 0.3, 0.6, 0.37, -0.21, 10, 1e-12),
            (-0.5, 0.6, -0.6, 0.9, 0.9, 8, 1e-12),
            # The default route loses digits as q -> 1 without raising: it
            # misses the reference by 1.1e3 and 3.0e-3 of max(1, |ref|).
            pytest.param(
                0.99, 0.3, 0.6, -0.95, 0.4, 20, 1e-9,
                marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 8"),
            ),
            pytest.param(
                0.999, 0.3, 0.6, 0.37, -0.21, 15, 1e-9,
                marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 8"),
            ),
        ],
    )
    def test_closed_form_matches_the_decimal_reference(self, q, rho12, rho13, y, z, n, tol):
        # y and z are given as fractions of the support half-width.
        half = support_halfwidth(q)
        y, z = y * half, z * half
        want = reference.cond_exp_hn_x_given_yz(n, y, z, rho12, rho13, q)
        p = ModelParams(rho12, rho13, 0.0, q)
        spec = MomentSpec(MomentKind.COND_X_GIVEN_YZ, (n,), p, (y, z))
        assert abs(closed_form(spec) - want) <= tol * max(1.0, abs(want))

    @pytest.mark.parametrize("form", [CondMomentForm.ASC_EXPANSION, CondMomentForm.DOUBLE_SUM])
    @pytest.mark.parametrize("q", [0.7, -0.5, 0.99, 0.0])
    def test_rows_equal_term_by_term_bit_for_bit(self, form, q):
        half = support_halfwidth(q)
        ys = np.array([0.37, -0.9, 0.0]) * half
        zs = np.array([-0.21, 0.8, 0.5]) * half
        for rho12, rho13 in ((0.3, -0.6), (0.9, 0.5), (0.0, 0.4)):
            for n in range(31):
                p = ModelParams(rho12, rho13, 0.0, q)
                got = cond_exp_hn_x_given_yz(n, ys, zs, p, form=form)
                want = _term_by_term(n, ys, zs, rho12, rho13, q, form)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_linear_case_closed_form(self, params):
        y, z = 0.6, -0.4
        r12, r13 = params.rho12, params.rho13
        expected = (y * r12 * (1 - r13**2) + z * r13 * (1 - r12**2)) / (
            1 - r12**2 * r13**2
        )
        assert cond_exp_x_given_yz(y, z, params) == pytest.approx(expected, rel=1e-12)
        assert cond_exp_hn_x_given_yz(1, y, z, params) == pytest.approx(expected, rel=1e-12)

    def test_third_correlation_does_not_enter(self, params):
        # the forward conditional mean depends on rho12, rho13 only, so the
        # quadrature oracle must agree across different rho23
        other = ModelParams(params.rho12, params.rho13, -0.2, params.q)
        y, z = 0.7, 0.2
        a = quadrature_oracle(MomentSpec(MomentKind.COND_X_GIVEN_YZ, (1,), params, (y, z)))
        b = quadrature_oracle(MomentSpec(MomentKind.COND_X_GIVEN_YZ, (1,), other, (y, z)))
        assert a == pytest.approx(b, abs=1e-10)

    def test_decoupled_z_drops_out(self):
        p = ModelParams(0.5, 0.0, 0.3, 0.4)
        v1 = cond_exp_hn_x_given_yz(3, 0.5, 1.2, p)
        v2 = cond_exp_hn_x_given_yz(3, 0.5, -0.8, p)
        assert v1 == pytest.approx(v2, rel=1e-13)


class TestConditionalArrays:
    """cond_exp_hn_x_given_yz on arrays: one call, the per-point values."""

    @pytest.mark.parametrize("form", [CondMomentForm.ASC_EXPANSION, CondMomentForm.DOUBLE_SUM])
    @pytest.mark.parametrize("q", [-0.5, 0.3, 0.9])
    def test_array_equals_pointwise(self, form, q):
        half = support_halfwidth(q)
        grid = np.linspace(-0.85 * half, 0.85 * half, 7)
        yg, zg = np.meshgrid(grid, grid)
        ys, zs = yg.ravel(), zg.ravel()
        p = ModelParams(0.3, -0.6, 0.0, q)
        for n in range(5):
            vals = cond_exp_hn_x_given_yz(n, ys, zs, p, form=form)
            ref = [cond_exp_hn_x_given_yz(n, y, z, p, form=form) for y, z in zip(ys, zs)]
            assert isinstance(ref[0], float)
            np.testing.assert_array_equal(vals, ref)

    def test_any_point_outside_raises(self):
        half = support_halfwidth(0.5)
        ys = np.array([0.0, 1.01 * half])
        p = ModelParams(0.3, 0.6, 0.0, 0.5)
        with pytest.raises(DomainError):
            cond_exp_hn_x_given_yz(2, ys, 0.1, p)
        with pytest.raises(DomainError):
            cond_exp_hn_x_given_yz(2, 0.1, -ys, p, form=CondMomentForm.DOUBLE_SUM)


class TestSingleConditionedMoments:
    def test_matches_oracle_low_degrees(self, params):
        for n in range(1, 5):
            for z in (0.0, 0.8, -1.1):
                spec = MomentSpec(MomentKind.COND_Y_GIVEN_Z, (n,), params, (z,))
                assert closed_form(spec) == pytest.approx(
                    quadrature_oracle(spec), rel=1e-7, abs=1e-7
                )

    @pytest.mark.parametrize("z", [-16.0, -15.0])
    def test_high_degree_near_gaussian_matches_oracle(self, z):
        p = ModelParams(0.6, -0.6, 0.3, 0.99)
        spec = MomentSpec(MomentKind.COND_Y_GIVEN_Z, (12,), p, (z,))
        assert closed_form(spec) == pytest.approx(quadrature_oracle(spec), rel=1e-5)

    def test_is_x_given_yz_at_the_relabelled_params(self, params):
        given_z = ModelParams(params.rho23, params.rho12 * params.rho13, 0.0, params.q)
        for n in (0, 1, 4, 9):
            for z in (0.0, 0.8, -1.1):
                y_on_z = MomentSpec(MomentKind.COND_Y_GIVEN_Z, (n,), params, (z,))
                x_on_yz = MomentSpec(MomentKind.COND_X_GIVEN_YZ, (n,), given_z, (z, z))
                assert closed_form(y_on_z) == closed_form(x_on_yz)

    def test_tower_property(self, params):
        # averaging the conditional first moment over the margin recovers 0
        from qnormal3d.densities import f_z
        from qnormal3d.quadrature import integrate1d

        val = integrate1d(
            lambda z: np.array(
                [cond_exp_hn_y_given_z(1, float(zz), params) for zz in np.atleast_1d(z)]
            )
            * f_z(z, params.r, params.q),
            params.q,
        ).value
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_product_moment_consistency(self, params):
        spec = MomentSpec(MomentKind.COND_XY_GIVEN_Z, (1, 1), params, (0.7,))
        assert closed_form(spec) == pytest.approx(quadrature_oracle(spec), rel=1e-7, abs=1e-7)
        assert cond_exp_xy_given_z(0.7, params) == pytest.approx(closed_form(spec), rel=1e-13)


class TestCovariance:
    def test_positive_definite_on_grid(self):
        for r23 in (0.3, -0.6):
            p = ModelParams(0.3, -0.6, r23, 0.7)
            eigvals = np.linalg.eigvalsh(_covariance(p))
            assert np.all(eigvals > 0)

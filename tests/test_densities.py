"""Density evaluation: kernels, forms, normalization, conditioning, domains."""

import decimal
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnormal3d.checks import TOL_NORM_1D, TOL_NORM_2D
from qnormal3d.densities import (
    _HALF_EPS,
    _THETA_MIN_Q,
    DensityForm,
    MarginalForm,
    ModelParams,
    _cosine,
    _cycle,
    _kernel_coefficients,
    _log_f_cn,
    _log_f_n,
    _log_f_r,
    _log_factors,
    _log_l,
    _log_series,
    _log_theta_imaginary,
    _log_w,
    _split,
    aw_parameters,
    f_3d,
    f_cn,
    f_n,
    f_r,
    f_x_given_yz,
    f_yz,
    f_yz_given_x,
    f_z,
    omega,
    pm_kernel,
)
from qnormal3d.errors import DegenerateConditioning, DomainError, NonConvergence, QNormalError
from qnormal3d.qcore import (
    PRODUCT_TOL,
    _factors_needed,
    log_q_pochhammer_inf,
    support_halfwidth,
)
from qnormal3d.quadrature import (
    QUAD_ORDER,
    _axis,
    _value_3d,
    _value_cycle,
    integrate1d,
    integrate2d,
)

qs = st.floats(min_value=-0.9, max_value=0.9)
rhos = st.floats(min_value=-0.85, max_value=0.85)


def interior(q, frac):
    return frac * support_halfwidth(q)


class TestKernels:
    def test_omega_values(self):
        # the quadratic kernel at (1, 1, 0.5, 0.5):
        # 0.5625 - 0.5*0.5*1.25 + 0.5*0.25*2 = 0.5
        assert omega(1.0, 1.0, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert omega(0.4, -0.8, 0.0, 0.3) == 1.0

    @given(x=st.floats(min_value=-2, max_value=2), y=st.floats(min_value=-2, max_value=2), rho=rhos, q=qs)
    def test_omega_symmetric(self, x, y, rho, q):
        assert omega(x, y, rho, q) == pytest.approx(omega(y, x, rho, q), rel=1e-13, abs=1e-13)

    @given(x=st.floats(min_value=-1.9, max_value=1.9), r=st.floats(min_value=-0.8, max_value=0.8), q=qs)
    def test_omega_diagonal_collapses(self, x, r, q):
        # w(x, x | r) = (1-r)^2 l(x|r), with l(x|r) = (1+r)^2 - (1-q) r x^2
        l_xr = (1.0 + r) ** 2 - (1.0 - q) * r * x**2
        assert omega(x, x, r, q) == pytest.approx(
            (1.0 - r) ** 2 * l_xr, rel=1e-12, abs=1e-13
        )


class TestBaseDensity:
    def test_semicircle_at_q_zero(self):
        for x in (0.0, 0.5, -1.3, 1.9):
            assert f_n(x, 0.0) == pytest.approx(
                math.sqrt(4.0 - x * x) / (2.0 * math.pi), rel=1e-13
            )

    def test_vanishes_at_edge(self):
        for q in (-0.5, 0.0, 0.6):
            half = support_halfwidth(q)
            assert f_n(half, q) == pytest.approx(0.0, abs=1e-10)

    def test_outside_support_is_zero(self):
        assert f_n(2.5, 0.0) == 0.0
        assert f_n(-10.0, 0.5) == 0.0

    @given(q=qs)
    @settings(max_examples=25, deadline=None)
    def test_normalization(self, q):
        total = integrate1d(lambda x: f_n(x, q), q).value
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            f_n(0.0, 1.5)

    @pytest.mark.parametrize("q", (-0.5, 0.0, 0.2, 0.5, 0.9, 0.99, 0.999, -0.95, -0.99))
    def test_exactly_zero_at_edge(self, q):
        half = support_halfwidth(q)
        assert f_n(half, q) == 0.0
        assert f_n(-half, q) == 0.0
        assert np.all(f_n(np.array([-half, half]), q) == 0.0)

    @pytest.mark.parametrize("q", (-0.95, -0.99))
    def test_product_route_near_minus_one(self, q):
        # Below q = -0.9 f_N keeps the product; the mass gathers near +-1.
        half = support_halfwidth(q)
        assert np.all(np.isfinite(f_n(np.linspace(-half, half, 201), q)))
        res = integrate1d(lambda x: f_n(x, q), q)
        assert res.value == pytest.approx(1.0, abs=1e-9)


def angle(x, q):
    """t with x = L cos(t), the angle the factor loop reads."""
    return np.arccos(_cosine(x, q))


def series_terms(a, q):
    """N of the Chebyshev series alone: the first n at which its tail bound
    4|a|^(n+1) / ((n+1)(1-|q|^(n+1))(1-|a|)) is below PRODUCT_TOL."""
    n, b, g = 0, abs(a), abs(q)
    while 4.0 * b ** (n + 1) >= PRODUCT_TOL * (n + 1) * (1.0 - g ** (n + 1)) * (1.0 - b):
        n += 1
    return n


def loop_alone(a, q, x, y=None):
    """The kernel product by the factor loop alone (M = F), F the factors
    after which |16 a q^F| is below PRODUCT_TOL."""
    v = None if y is None else _cosine(y, q)
    return _log_factors(a, q, _factors_needed(16.0 * a, q), _cosine(x, q), v)


def series_alone(a, q, x, y=None):
    """The kernel product by the Chebyshev series alone (M = 0)."""
    v = None if y is None else _cosine(y, q)
    u = _cosine(x, q)
    shape = u.shape if v is None else np.broadcast(u, v).shape
    return _log_series(np.zeros(shape), a, q, series_terms(a, q), u, v)


def log_f_n_by_product(x, q):
    """log f_N by the product formula of the densities module docstring."""
    return (
        log_q_pochhammer_inf(q, q)
        + 0.5 * math.log(1.0 - q)
        + 0.5 * np.log(4.0 - (1.0 - q) * x**2)
        - math.log(2.0 * math.pi)
        + loop_alone(q, q, x)
    )


class TestThetaRoutes:
    """_log_f_n (Jacobi's imaginary transformation for q > 0.2, the product
    with its edge factor as log sin t at and below) against the product
    formula."""

    @pytest.mark.parametrize(
        "q, atol",
        [(q, 5e-12) for q in (-0.9, -0.7, -0.5, -0.2, 0.0, 0.1, 0.2, 0.21, 0.3, 0.5, 0.7, 0.9)]
        + [(0.99, 1e-10), (0.999, 1e-10)],
    )
    def test_matches_product(self, q, atol):
        # The product's own error grows like 1/(1-q): up to 7e-12 at
        # q = 0.999, where log f_N reaches about -4656 at x = 0.999 L.
        half = support_halfwidth(q)
        xs = np.concatenate([np.linspace(-0.99, 0.99, 45), [-0.999, 0.999]]) * half
        np.testing.assert_allclose(_log_f_n(xs, q), log_f_n_by_product(xs, q), rtol=0, atol=atol)

    @pytest.mark.parametrize("q", [0.2000001, 0.25, 0.3, 0.5, 0.59, 0.6, 0.7, 0.9, 0.99, 0.999])
    def test_one_correction_term_is_the_whole_sum(self, q):
        # The transformation keeps the first correction term, below about
        # q = 0.594, and no other: bit for bit the sum that adds every term
        # over half an ulp, on points that include the edges, 0 and NaN.
        u = np.concatenate([np.linspace(-1.0, 1.0, 4097), [0.0, math.nan]])
        np.testing.assert_array_equal(_log_theta_imaginary(u, q), log_theta_by_loop(u, q))

    def test_second_correction_term_is_below_half_an_ulp(self):
        s = -math.log(_THETA_MIN_Q) / (2.0 * math.pi)
        assert 5.0 * math.exp(-4.0 * math.pi / s) < _HALF_EPS


def log_theta_by_loop(u, q):
    """_log_theta_imaginary with the correction sum as a loop that adds each
    term whose bound (2n+1) e^(-pi n^2/s) is over half an ulp."""
    s = -math.log(q) / (2.0 * math.pi)
    a = np.arcsin(u)
    zs = np.arccos(np.abs(u)) / s
    with np.errstate(divide="ignore"):
        edge = np.log1p(-np.exp(-2.0 * zs))
    den = np.expm1(-2.0 * zs)
    corr = np.zeros(u.shape)
    n = 1
    while (2 * n + 1) * math.exp(-math.pi * n * n / s) > _HALF_EPS:
        ratio = np.divide(
            np.expm1(-2.0 * (2 * n + 1) * zs),
            den,
            out=np.full(u.shape, 2.0 * n + 1.0),
            where=den != 0.0,
        )
        corr += (-1) ** n * np.exp(-math.pi * n * (n + 1) / s + 2.0 * n * zs) * ratio
        n += 1
    const = (
        0.5 * math.log(1.0 - q) - math.log(2.0 * math.pi) - 0.125 * math.log(q) - 0.5 * math.log(s)
    )
    return const - a * a / (math.pi * s) + edge + np.log1p(corr)


class TestMarginalDensity:
    def test_frozen_kesten_mckay_value(self):
        assert f_r(0.7, 0.5, 0.0) == pytest.approx(0.22307483065827630, rel=1e-12)

    def test_reduces_to_base_at_zero(self):
        xs = np.linspace(-1.8, 1.8, 9)
        np.testing.assert_allclose(f_r(xs, 0.0, 0.5), f_n(xs, 0.5), rtol=1e-12)

    @given(r=st.floats(min_value=-0.75, max_value=0.75), q=qs)
    @settings(max_examples=20, deadline=None)
    def test_normalization(self, r, q):
        total = integrate1d(lambda x: f_r(x, r, q), q).value
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            f_r(0.0, 1.0, 0.5)


class TestConditionalDensity:
    @given(y=st.floats(min_value=-1.5, max_value=1.5), rho=rhos, q=qs)
    @settings(max_examples=20, deadline=None)
    def test_normalization(self, y, rho, q):
        y0 = y * support_halfwidth(q) / 2.0
        total = integrate1d(lambda x: f_cn(x, y0, rho, q), q).value
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_coupling_forgets_condition(self):
        xs = np.linspace(-1.7, 1.7, 11)
        np.testing.assert_allclose(f_cn(xs, 0.9, 0.0, 0.4), f_n(xs, 0.4), rtol=1e-12)

    def test_conditioning_point_outside_support(self):
        with pytest.raises(DomainError):
            f_cn(0.5, 99.0, 0.5, 0.5)


class TestPoissonMehlerKernel:
    @given(
        x=st.floats(min_value=-0.9, max_value=0.9),
        y=st.floats(min_value=-0.9, max_value=0.9),
        rho=st.floats(min_value=-0.7, max_value=0.7),
        q=qs,
    )
    @settings(max_examples=60, deadline=None)
    @example(x=0.0, y=0.5, rho=0.5, q=0.0)
    def test_forms_agree(self, x, y, rho, q):
        half = support_halfwidth(q)
        prod = pm_kernel(x * half, y * half, rho, q, form=DensityForm.PRODUCT)
        series = pm_kernel(x * half, y * half, rho, q, form=DensityForm.SERIES)
        assert series == pytest.approx(prod, rel=1e-9, abs=1e-12)

    def test_series_runs_past_polynomial_roots(self):
        # H_1(0) = 0 and H_2(1) = 0 at q = 0, so the first two terms are
        # exactly zero; the series must still sum its tail.
        prod = pm_kernel(0.0, 1.0, 0.5, 0.0, form=DensityForm.PRODUCT)
        series = pm_kernel(0.0, 1.0, 0.5, 0.0, form=DensityForm.SERIES)
        assert prod == pytest.approx(12.0 / 13.0, rel=1e-14)
        assert series == pytest.approx(prod, rel=0, abs=1e-12)

    def test_unit_at_zero_coupling(self):
        assert pm_kernel(0.3, -1.2, 0.0, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_conditional_factorization(self):
        # f_CN(x|y) = f_N(x) * kernel(x, y)
        x, y, rho, q = 0.4, -0.6, 0.55, 0.25
        assert f_cn(x, y, rho, q) == pytest.approx(
            f_n(x, q) * pm_kernel(x, y, rho, q), rel=1e-12
        )


KERNEL_QS = (-0.5, 0.0, 0.5, 0.9, 0.99)
KERNEL_RHOS = (0.3, -0.3, 0.6, -0.6, 0.9, 0.95)


class TestKernelSeries:
    """The Chebyshev series of sum_i log w(x, y | rho q^i) against the
    factor loop, each taking the whole product."""

    @pytest.mark.parametrize("q", KERNEL_QS)
    @pytest.mark.parametrize("rho", KERNEL_RHOS)
    def test_series_matches_factor_loop(self, rho, q):
        # Each route alone, where _log_w takes both or neither.
        nodes, _ = _axis(q, 2)
        half = support_halfwidth(q)
        gen = np.random.default_rng(17)
        flat = gen.uniform(-half, half, size=(2, 200))
        flat[:, :4] = [[half, -half, half, 0.0], [half, half, -half, half]]
        for x, y in ((nodes[:, None], nodes[None, :]), (flat[0], flat[1])):
            np.testing.assert_allclose(
                series_alone(rho, q, x, y), loop_alone(rho, q, x, y), rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("q", KERNEL_QS + (-0.999, 0.999))
    @pytest.mark.parametrize("rho", KERNEL_RHOS)
    def test_coefficients_equal_running_products(self, rho, q):
        # The name is kept so that its ids stay.  c_n against its 40-digit
        # value, within the (n + 3) u of rho^n's running product and the
        # roundings of 1 - q^n, n and the quotient; a running q^n as well
        # misses by 2e-15 at q = 0.99 and by 1.4e-14 at q = +-0.999.
        terms = series_terms(rho, q)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            r, g = decimal.Decimal(rho), decimal.Decimal(q)
            want = [float(4 * r**n / (n * (1 - g**n))) for n in range(1, terms + 1)]
        n = np.arange(1, terms + 1)
        err = np.abs(_kernel_coefficients(rho, q, terms) / want - 1.0)
        assert np.all(err <= (n + 3) * 2.0**-53), np.max(err / (n + 3))

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_zero_coupling_is_exactly_zero(self, q):
        nodes, _ = _axis(q, 1)
        assert np.all(_log_w(nodes[:, None], nodes[None, :], 0.0, q) == 0.0)

    @pytest.mark.parametrize("q", (0.5, 0.99))
    @pytest.mark.parametrize("rho", (0.95, -0.95, 0.99, -0.99))
    def test_factor_loop_at_the_corners(self, rho, q):
        # At x, y = +-L the quadratic form of w cancels as |rho| -> 1; the
        # factors in the angles must not.
        half = support_halfwidth(q)
        x = np.array([half, half, -half, -half])
        y = np.array([half, -half, half, -half])
        np.testing.assert_allclose(
            loop_alone(rho, q, x, y), series_alone(rho, q, x, y), rtol=0, atol=1e-10
        )

    def test_route_keeps_factors_where_shorter(self):
        # rho -> 1 at q = 0.5: the series alone would need about 300,000
        # terms; the split takes two factors and 22 terms.
        rho, q = 0.9999, 0.5
        assert _split(rho, q, 2) == (2, 22)
        assert series_terms(rho, q) > 100 * 22
        xs = np.linspace(-0.99, 0.99, 41) * support_halfwidth(q)
        vals = f_cn(xs, 0.5, rho, q)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        np.testing.assert_allclose(vals, f_n(xs, q) * pm_kernel(xs, 0.5, rho, q), rtol=1e-12)


def log_w_by_blocks(x, y, rho, q):
    """sum_i log w(x, y | rho q^i) as the kernel's own factor loop computed
    it before the l-product shared that loop: a generator of form halves
    into a block-of-32 log accumulator."""
    n = _factors_needed(16.0 * rho, q)
    t, s = angle(x, q), angle(y, q)
    half_sum, half_diff = 0.5 * (t + s), 0.5 * (t - s)
    first = (rho, rho * q)[:n]
    same = flipped = None
    if any(a >= 0.0 for a in first):
        same = (np.sin(half_sum) ** 2, np.sin(half_diff) ** 2)
    if any(a < 0.0 for a in first):
        flipped = (np.cos(half_diff) ** 2, np.cos(half_sum) ** 2)
    shape = np.broadcast_shapes(x.shape, y.shape)
    total, block, count = np.zeros(shape), np.ones(shape), 0
    a = rho
    for _ in range(n):
        b = abs(a)
        c, d = (1.0 - b) ** 2, 4.0 * b
        for form in same if a >= 0.0 else flipped:
            block *= form * d + c
            count += 1
            if count == 32:
                total += np.log(block)
                block.fill(1.0)
                count = 0
        a *= q
    if count:
        total += np.log(block)
    return total


PRODUCT_QS = (-0.5, 0.0, 0.5, 0.9, 0.99, 0.999)
PRODUCT_AS = (0.3, -0.6, 0.9, 0.99)
SPLIT_QS = (-0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.99, 0.999)
SPLIT_AS = (0.3, -0.6, 0.9, 0.99, -0.999)


class TestProductRoutes:
    """Both kernel products, sum_i log l(x | a q^i) and sum_i log w(x, y |
    a q^i), share one factor loop, one Chebyshev series and one split
    between them (_split)."""

    @pytest.mark.parametrize("q", PRODUCT_QS)
    @pytest.mark.parametrize("a", PRODUCT_AS)
    def test_l_series_matches_factor_loop(self, a, q):
        # Each route alone, over the whole product.
        half = support_halfwidth(q)
        x = np.linspace(-half, half, 2049)
        np.testing.assert_allclose(
            series_alone(a, q, x),
            loop_alone(a, q, x),
            rtol=0,
            atol=1e-12 if q <= 0.9 else 1e-10,
        )

    @pytest.mark.parametrize("q", SPLIT_QS)
    @pytest.mark.parametrize("a", SPLIT_AS)
    def test_split_matches_each_route_alone(self, a, q):
        # _log_w and _log_l take M factors, then N terms at a q^M (_split);
        # each must meet the loop alone (M = F) and the series alone (M = 0),
        # on points that include the corners (+-L, +-L).
        half = support_halfwidth(q)
        x = np.array([1.0, 1.0, -1.0, -1.0, 0.37, -0.81, 0.0, 0.93]) * half
        y = np.array([1.0, -1.0, 1.0, -1.0, -0.81, 0.37, 0.5, 0.93]) * half
        for split, alone in ((_log_w(x, y, a, q), (a, q, x, y)), (_log_l(x, a, q), (a, q, x))):
            for route in (loop_alone, series_alone):
                want = route(*alone)
                err = np.abs(split - want) / np.maximum(1.0, np.abs(want))
                assert np.all(err <= 1e-12), (route.__name__, err)

    @pytest.mark.parametrize("q", PRODUCT_QS)
    @pytest.mark.parametrize("a", PRODUCT_AS)
    def test_diagonal_kernel_is_l_product(self, a, q):
        # w(x, x|r) = (1-r)^2 l(x|r), so the kernel on the diagonal is the
        # l-product plus 2 log (a; q)_inf, each through its own split.
        half = support_halfwidth(q)
        x = np.linspace(-half, half, 2049)
        np.testing.assert_allclose(
            _log_w(x, x, a, q),
            _log_l(x, a, q) + 2.0 * log_q_pochhammer_inf(a, q),
            rtol=0,
            atol=1e-12 if q <= 0.9 else 1e-10,
        )

    @pytest.mark.parametrize(
        "rho, q", [(0.3, 0.5), (-0.6, -0.5), (0.9, 0.99), (-0.108, 0.9), (0.95, -0.9), (0.6, 0.0)]
    )
    def test_pm_product_bit_identical(self, rho, q):
        # The factor loop keeps the rounding of the kernel's own loop, and
        # the product form is exp(log (rho^2; q)_inf - _log_w) bit for bit,
        # whichever route _log_w takes.
        half = support_halfwidth(q)
        nodes = np.linspace(-half, half, 33)
        x, y = nodes[:, None], nodes[None, :]
        np.testing.assert_array_equal(loop_alone(rho, q, x, y), log_w_by_blocks(x, y, rho, q))
        want = np.exp(log_q_pochhammer_inf(rho**2, q) - _log_w(x, y, rho, q))
        np.testing.assert_array_equal(pm_kernel(x, y, rho, q, form=DensityForm.PRODUCT), want)

    def test_l_route_keeps_factors_where_shorter(self):
        a, q = 0.9999, 0.5
        m, n = _split(a, q, 1)
        assert m == 3 and 100 * n < series_terms(a, q)
        x = np.linspace(-1.0, 1.0, 41) * support_halfwidth(q)
        np.testing.assert_allclose(_log_l(x, a, q), loop_alone(a, q, x), rtol=0, atol=1e-13)


class TestBatchIndependence:
    """Each point of an array call stops its series on its own tail, so the
    array result equals the points evaluated one at a time, bit for bit.
    x = 0 is a root of H_1 and sits next to 0.9 L, so the two points stop
    at different terms."""

    @pytest.mark.parametrize("q", [-0.5, 0.3, 0.9])
    def test_array_equals_pointwise(self, q):
        half = support_halfwidth(q)
        xs = np.array([0.0, 0.9, -0.4, 0.55]) * half
        ys = np.array([0.3, -0.7, 0.0, 0.85]) * half
        zs = xs[::-1].copy()
        p = ModelParams(0.3, 0.6, -0.6, q)

        def pointwise(fn, *coords):
            return np.array([fn(*point) for point in zip(*coords)])

        for form in (DensityForm.PRODUCT, DensityForm.SERIES):
            np.testing.assert_array_equal(
                pm_kernel(xs, ys, 0.6, q, form=form),
                pointwise(lambda x, y: pm_kernel(x, y, 0.6, q, form=form), xs, ys),
            )
        for form in DensityForm:
            np.testing.assert_array_equal(
                f_3d(xs, ys, zs, p, form=form),
                pointwise(lambda x, y, z: f_3d(x, y, z, p, form=form), xs, ys, zs),
            )
        for form in MarginalForm:
            np.testing.assert_array_equal(
                f_z(xs, 0.18, q, form=form),
                pointwise(lambda z: f_z(z, 0.18, q, form=form), xs),
            )


class TestSeriesOverflow:
    """A q-Hermite series whose terms overflow stops at once with an error
    that says so, instead of running MAX_TERMS iterations on NaN."""

    def test_even_series(self):
        half = support_halfwidth(0.99)
        zs = np.linspace(-0.9 * half, 0.9 * half, 32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence, match="overflowed"):
                f_z(zs, 0.3, 0.99, form=MarginalForm.EVEN_SERIES)

    def test_bilinear_series(self):
        half = support_halfwidth(0.999)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence, match="overflowed"):
                pm_kernel(half, half, 0.9, 0.999, form=DensityForm.SERIES)


class TestProductOverflow:
    """The kernel product raises where a value leaves the double range,
    instead of returning inf behind numpy's overflow warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho", [0.6, -0.6])
    def test_pm_kernel(self, rho):
        half = support_halfwidth(0.999)
        x = np.linspace(-0.95 * half, 0.95 * half, 64)
        with pytest.raises(NonConvergence, match="overflows"):
            pm_kernel(x[:, None], x[None, :], rho, 0.999, form=DensityForm.PRODUCT)


class TestModelParams:
    def test_r_product(self):
        p = ModelParams(0.3, 0.4, 0.5, 0.5)
        assert p.r == pytest.approx(0.3 * 0.4 * 0.5, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.4, 0.5, 0.5)
        with pytest.raises(ValueError):
            ModelParams(0.3, 0.4, 0.5, 1.0)


PERMUTATIONS = list(itertools.permutations(range(3)))
# The acceptance grid's q range, |rho| up to 0.99 and points within 0.95 L.
qs_acceptance = st.floats(min_value=-0.5, max_value=0.9)
wide_rhos = st.floats(min_value=-0.99, max_value=0.99)
fracs = st.floats(min_value=-0.95, max_value=0.95)
TINY = np.finfo(float).tiny  # subnormal values carry no relative digits


class TestRelabelling:
    P = ModelParams(0.3, -0.6, 0.5, 0.7)

    def test_identity(self):
        assert self.P.permuted((0, 1, 2)) == self.P

    def test_correlation_of_each_relabelled_pair(self):
        # rho'_ij = rho_{perm[i] perm[j]}: (Z, X, Y) couples Z-X by rho13,
        # Z-Y by rho23 and X-Y by rho12.
        assert self.P.permuted((2, 0, 1)) == ModelParams(-0.6, 0.5, 0.3, 0.7)

    @pytest.mark.parametrize("s", PERMUTATIONS)
    @pytest.mark.parametrize("t", PERMUTATIONS)
    def test_composition(self, s, t):
        # Relabelling by s, then by t, gives the coordinates c_s(t(i)).
        composed = tuple(s[t[i]] for i in range(3))
        assert self.P.permuted(s).permuted(t) == self.P.permuted(composed)

    @pytest.mark.parametrize("perm", [(0, 1, 1), (0, 1), (0, 1, 3), (0, 1, 2, 0), (1, 2, 3), ()])
    def test_rejects_a_non_permutation(self, perm):
        with pytest.raises(ValueError, match="permutation"):
            self.P.permuted(perm)

    @given(rho=st.tuples(wide_rhos, wide_rhos, wide_rhos), q=qs_acceptance, c=st.tuples(fracs, fracs, fracs))
    @settings(max_examples=40, deadline=None)
    def test_f_3d_is_equivariant(self, rho, q, c):
        # f_3d(c; p) = f_3d(c_perm; p.permuted(perm)) for every perm and form.
        # An overflowing series raises its documented NonConvergence.
        p = ModelParams(*rho, q)
        pts = [v * support_halfwidth(q) for v in c]
        for form in DensityForm:
            vals = []
            for perm in PERMUTATIONS:
                try:
                    vals.append(f_3d(*(pts[i] for i in perm), p.permuted(perm), form=form))
                except NonConvergence:
                    assert form is DensityForm.SERIES
            if vals:
                np.testing.assert_allclose(vals, vals[0], rtol=1e-12, atol=TINY)

    @given(rho=st.tuples(wide_rhos, wide_rhos, wide_rhos), q=qs_acceptance, c=st.tuples(fracs, fracs, fracs))
    @settings(max_examples=40, deadline=None)
    def test_pair_densities_are_equivariant(self, rho, q, c):
        # Swapping Y and Z swaps rho12 and rho13 and leaves rho23.
        p = ModelParams(*rho, q)
        x, y, z = (v * support_halfwidth(q) for v in c)
        swapped = p.permuted((0, 2, 1))
        np.testing.assert_allclose(
            f_x_given_yz(x, z, y, swapped), f_x_given_yz(x, y, z, p), rtol=1e-12, atol=TINY
        )
        np.testing.assert_allclose(f_yz(z, y, swapped), f_yz(y, z, p), rtol=1e-12, atol=TINY)


class TestJointDensity:
    def test_series_agrees_with_product(self, params):
        gen = np.random.default_rng(11)
        half = support_halfwidth(params.q)
        pts = gen.uniform(-0.9 * half, 0.9 * half, size=(6, 3))
        ref = f_3d(pts[:, 0], pts[:, 1], pts[:, 2], params, form=DensityForm.PRODUCT)
        alt = f_3d(pts[:, 0], pts[:, 1], pts[:, 2], params, form=DensityForm.SERIES)
        np.testing.assert_allclose(alt, ref, rtol=1e-9)

    def test_closed_is_the_product_route(self):
        # CLOSED is an alias, not a route: the paper's two routes are the
        # enum's members, and "closed" names none of them.
        assert DensityForm.CLOSED is DensityForm.PRODUCT
        assert list(DensityForm) == [DensityForm.PRODUCT, DensityForm.SERIES]
        with pytest.raises(ValueError):
            DensityForm("closed")

    def test_pair_marginal_consistency(self, params):
        # integrating the joint density over x recovers the (y, z) margin
        y0, z0 = 0.5, -0.8
        got = integrate1d(lambda x: f_3d(x, y0, z0, params), params.q).value
        assert got == pytest.approx(f_yz(y0, z0, params), rel=1e-8)

    def test_independence_factorization(self):
        p = ModelParams(0.0, 0.0, 0.0, 0.4)
        x, y, z = 0.3, -0.7, 1.1
        assert f_3d(x, y, z, p) == pytest.approx(
            f_n(x, p.q) * f_n(y, p.q) * f_n(z, p.q), rel=1e-11
        )


class TestZMarginal:
    def test_all_forms_agree(self):
        r, q = 0.24, 0.5
        zs = np.linspace(-1.9, 1.9, 7)
        ref = f_z(zs, r, q, form=MarginalForm.ROGERS)
        for form in MarginalForm:
            np.testing.assert_allclose(f_z(zs, r, q, form=form), ref, rtol=1e-9)

    @pytest.mark.parametrize("form", list(MarginalForm))
    def test_exactly_zero_at_edge(self, form):
        for q in (0.3, 0.9):
            half = support_halfwidth(q)
            assert np.all(f_z(np.array([-half, half]), 0.2, q, form=form) == 0.0)

    def test_matches_weighted_marginal(self):
        # The Rogers route is f_r itself: equal bit for bit, at the support
        # edges, outside the support and at NaN as well.
        r = 0.15
        for q in (-0.5, 0.0, 0.3, 0.9, 0.999):
            half = support_halfwidth(q)
            zs = np.concatenate(
                [np.linspace(-half, half, 41), [-1.5 * half, 2.0 * half, math.nan]]
            )
            np.testing.assert_array_equal(f_z(zs, r, q), f_r(zs, r, q))
            assert f_z(0.9, r, q) == f_r(0.9, r, q)

    @pytest.mark.parametrize(
        "form, q",
        [
            pytest.param(
                form,
                q,
                marks=pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 2.1: the series coefficient underflows"
                )
                if (form, q) == (MarginalForm.HERMITE_SERIES, 0.99)
                else (),
            )
            for form in MarginalForm
            for q in (-0.9, -0.5, 0.0, 0.3, 0.7, 0.9, 0.99)
        ],
    )
    def test_semicircle_at_r_equals_q(self, form, q):
        # The abstract's claim: at r = rho12 rho13 rho23 = q every margin is
        # the semicircle sqrt(1-q) sin(t) / pi on z = L cos(t).
        t = np.linspace(0.0, math.pi, 401)
        z = support_halfwidth(q) * np.cos(t)
        if form == MarginalForm.EVEN_SERIES and q >= 0.9:
            with pytest.raises(NonConvergence):  # ROADMAP item 2.1
                f_z(z, q, q, form=form)
            return
        peak = math.sqrt(1.0 - q) / math.pi
        err = np.max(np.abs(f_z(z, q, q, form=form) - peak * np.sin(t))) / peak
        assert err <= (1e-11 if form == MarginalForm.EVEN_SERIES else 1e-12)


class TestConditionals:
    def test_forward_conditional_normalizes(self, params):
        y0, z0 = 0.6, -0.4
        total = integrate1d(lambda x: f_x_given_yz(x, y0, z0, params), params.q).value
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_reverse_conditional_normalizes(self, params):
        x0 = 0.8
        total = integrate2d(
            lambda y, z: f_yz_given_x(y, z, x0, params), params.q
        ).value
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_normalize_where_the_denominator_underflows(self):
        # At q = 0.999 these conditioning points have log denominators near
        # -2900 and -2750, far below the double range; the ratios are formed
        # in logs, so they still integrate to 1.
        p = ModelParams(0.3, -0.6, -0.6, 0.999)
        half = support_halfwidth(p.q)
        y0, z0 = 0.37 * half, -0.95 * half
        total = integrate1d(lambda x: f_x_given_yz(x, y0, z0, p), p.q).value
        assert total == pytest.approx(1.0, abs=TOL_NORM_1D)
        total = integrate2d(lambda y, z: f_yz_given_x(y, z, z0, p), p.q).value
        assert total == pytest.approx(1.0, abs=TOL_NORM_2D)

    def test_bayes_consistency(self, params):
        x, y, z = 0.4, -0.3, 0.9
        joint = f_3d(x, y, z, params)
        assert f_x_given_yz(x, y, z, params) * f_yz(y, z, params) == pytest.approx(
            joint, rel=1e-10
        )
        fx = integrate2d(lambda yy, zz: f_3d(x, yy, zz, params), params.q).value
        assert f_yz_given_x(y, z, x, params) * fx == pytest.approx(joint, rel=1e-7)

    @pytest.mark.parametrize("r", (0.3, -0.6, 0.9, 0.99, -0.99))
    @pytest.mark.parametrize("q", (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99))
    def test_diagonal_conditional_is_the_rogers_law(self, r, q):
        # (1 - r) f_cn(x | x; r) = f_r(x; r): f_yz_given_x divides by the
        # right-hand side as the marginal of X.  Compared in logs, since
        # f_r underflows near the edge at q = 0.99, r = -0.99.
        x = np.linspace(-0.999, 0.999, 201) * support_halfwidth(q)
        want = _log_f_r(x, _log_f_n(x, q), r, q)
        got = math.log1p(-r) + _log_f_cn(x, x, r, q)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_conditioning_on_x_at_the_support_edge_is_degenerate(self, params, edge):
        # f_X vanishes at x = +-L, so the law of (Y, Z) given X is undefined there.
        x0 = edge * support_halfwidth(params.q)
        with pytest.raises(DegenerateConditioning):
            f_yz_given_x(0.1, -0.2, x0, params)

    def test_aw_parameters_conjugate_pairs(self):
        a, b, c, d = aw_parameters(1.0, -0.5, ModelParams(0.5, 0.4, 0.0, 0.5))
        assert b == a.conjugate()
        assert d == c.conjugate()
        assert abs(a) == pytest.approx(0.5, rel=1e-13)
        assert abs(c) == pytest.approx(0.4, rel=1e-13)

    def test_aw_parameters_domain(self):
        with pytest.raises(DomainError):
            aw_parameters(99.0, 0.0, ModelParams(0.5, 0.4, 0.0, 0.5))


GRID_PARAMS = ModelParams(0.3, 0.6, -0.6, 0.9)


def open_grid(*axes):
    """The axes as mutually orthogonal open (broadcastable) arrays."""
    dim = len(axes)
    return [
        np.asarray(a, dtype=float).reshape([-1 if i == k else 1 for i in range(dim)])
        for k, a in enumerate(axes)
    ]


def traced_peak(call):
    """Result of call() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        val = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return val, peak


# Densities of a tensor grid: the grid dimension and the density as a
# function of its coordinates.
GRID_CASES = {
    **{
        f"f_3d.{form.value}": (
            3,
            lambda x, y, z, form=form: f_3d(x, y, z, GRID_PARAMS, form=form),
        )
        for form in DensityForm
    },
    "f_yz": (2, lambda y, z: f_yz(y, z, GRID_PARAMS)),
    "f_cn": (2, lambda x, y: f_cn(x, y, 0.6, GRID_PARAMS.q)),
    "f_x_given_yz": (3, lambda x, y, z: f_x_given_yz(x, y, z, GRID_PARAMS)),
    "f_yz_given_x": (3, lambda y, z, x: f_yz_given_x(y, z, x, GRID_PARAMS)),
}


class TestTensorGrid:
    @pytest.mark.parametrize("form", list(DensityForm))
    def test_f_3d_holds_one_result_array(self, form):
        # One 128^3 level of integrate3d: the node axis is the same on all
        # three coordinates, and only the product is n^3-sized.
        nodes, _ = _axis(GRID_PARAMS.q, 4)
        grid = open_grid(nodes, nodes, nodes)
        val, peak = traced_peak(lambda: f_3d(*grid, GRID_PARAMS, form=form))
        assert val.shape == (128, 128, 128)
        assert peak <= 1.25 * val.nbytes

    @pytest.mark.parametrize("form", list(DensityForm))
    def test_3d_level_holds_one_slab(self, form):
        # The 128^3 level is summed one x-panel at a time, so the largest
        # array is one QUAD_ORDER x 128 x 128 slab.
        _axis(GRID_PARAMS.q, 4)  # the cached node axis is not part of the level
        slab = QUAD_ORDER * 128 * 128 * 8
        _, peak = traced_peak(
            lambda: _value_3d(
                lambda x, y, z: f_3d(x, y, z, GRID_PARAMS, form=form), GRID_PARAMS.q, 4
            )
        )
        assert peak <= 1.25 * slab

    def test_cycle_level_holds_no_slab(self):
        # The cyclic route holds only n x n tables: one 128-node level stays
        # within eight of them (1.0 MB), below the 4.2 MB slab.
        _, peak = traced_peak(lambda: _value_cycle(*_cycle(GRID_PARAMS), GRID_PARAMS.q, 4))
        assert peak <= 8 * 128 * 128 * 8

    def test_f_yz_2d_grid(self):
        # On a 2-D grid each kernel is itself grid-sized; the series holds
        # its running sum and one term at a time.
        nodes, _ = _axis(GRID_PARAMS.q, 4)
        grid = open_grid(nodes, nodes)
        val, peak = traced_peak(lambda: f_yz(*grid, GRID_PARAMS))
        assert val.shape == (128, 128)
        assert peak <= 4.5 * val.nbytes

    @pytest.mark.parametrize(
        "params, bound",
        [
            # rho23 -> 1 at moderate q takes the factor loop, which holds its
            # running sum, one block, one half-factor and the angle forms its
            # signs read: two for q > 0, four when the signs alternate.
            (ModelParams(0.3, 0.3, 0.9999, 0.5), 5.5),
            (ModelParams(0.3, 0.3, -0.9999, 0.5), 5.5),
            (ModelParams(0.3, 0.3, 0.9999, -0.5), 7.5),
        ],
    )
    def test_f_yz_2d_grid_factor_route(self, params, bound):
        rho, q = params.rho23, params.q
        assert _split(rho, q, 2)[0] > 0
        nodes, _ = _axis(params.q, 4)
        val, peak = traced_peak(lambda: f_yz(*open_grid(nodes, nodes), params))
        assert np.all(np.isfinite(val))
        assert peak <= bound * val.nbytes

    @pytest.mark.parametrize("name", sorted(GRID_CASES))
    def test_open_grid_matches_flat_points(self, name):
        dim, density = GRID_CASES[name]
        half = support_halfwidth(GRID_PARAMS.q)
        gen = np.random.default_rng(5)
        axes = [np.sort(gen.uniform(-0.9 * half, 0.9 * half, 5 + k)) for k in range(dim)]
        grid = density(*open_grid(*axes))
        flat = density(*(m.ravel() for m in np.meshgrid(*axes, indexing="ij")))
        assert grid.shape == tuple(len(a) for a in axes)
        np.testing.assert_array_equal(grid.ravel(), flat)

    @pytest.mark.parametrize("name", ["f_3d.product", "f_3d.series", "f_yz"])
    def test_outside_support_is_exactly_zero(self, name):
        dim, density = GRID_CASES[name]
        half = support_halfwidth(GRID_PARAMS.q)
        inner = np.array([-0.8, -0.1, 0.4, 0.9]) * half
        outer = np.concatenate([inner, [1.5 * half, -3.0 * half, math.nan]])
        axes = [outer] + [inner] * (dim - 1)
        val = density(*open_grid(*axes))
        ref = density(*open_grid(*[inner] * dim))
        if not name.endswith("series"):
            # A series stops on its largest term over the whole grid, so
            # extra points may add terms; the other forms are pointwise.
            np.testing.assert_array_equal(val[:4], ref)
        assert np.all(val[4:6] == 0.0)
        assert np.all(np.isnan(val[6]))


NAN_PARAMS = ModelParams(0.3, 0.4, 0.5, 0.5)
# Each density as a function of one evaluation coordinate, the others fixed.
NAN_CASES = {
    "f_n": lambda x: f_n(x, 0.5),
    "f_r": lambda x: f_r(x, 0.3, 0.5),
    **{
        f"f_z.{form.value}": lambda x, form=form: f_z(x, 0.06, 0.5, form=form)
        for form in MarginalForm
    },
    "f_yz": lambda x: f_yz(x, 0.2, NAN_PARAMS),
    **{
        f"f_3d.{form.value}": lambda x, form=form: f_3d(x, 0.1, 0.2, NAN_PARAMS, form=form)
        for form in DensityForm
    },
    "f_cn": lambda x: f_cn(x, 0.1, 0.3, 0.5),
    "f_x_given_yz": lambda x: f_x_given_yz(x, 0.1, 0.2, NAN_PARAMS),
    "f_yz_given_x": lambda x: f_yz_given_x(x, 0.2, 0.1, NAN_PARAMS),
}


class TestNaN:
    @pytest.mark.parametrize("name", sorted(NAN_CASES))
    def test_nan_evaluation_point_gives_nan(self, name):
        density = NAN_CASES[name]
        assert math.isnan(density(math.nan))
        vals = density(np.array([math.nan, 0.7]))
        assert math.isnan(vals[0])
        assert vals[1] == density(0.7)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: f_cn(0.1, math.nan, 0.3, 0.5),
            lambda: f_x_given_yz(0.1, math.nan, 0.2, NAN_PARAMS),
            lambda: f_x_given_yz(0.1, 0.2, math.nan, NAN_PARAMS),
            lambda: f_yz_given_x(0.1, 0.2, math.nan, NAN_PARAMS),
            lambda: pm_kernel(math.nan, 0.2, 0.3, 0.5),
        ],
    )
    def test_nan_conditioning_point_raises(self, call):
        with pytest.raises(DomainError, match="NaN"):
            call()


# The domain's edges: q up to 0.999 and down to -0.99, |rho| up to 0.99, and
# points anywhere in [-L, L], the support's ends drawn on purpose.
edge_fracs = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0))
edge_axis = st.lists(edge_fracs, min_size=1, max_size=3)
edge_rhos = st.floats(min_value=-0.99, max_value=0.99)


class TestEdgeSweep:
    """Finite values or a documented raise across the whole domain (ROADMAP
    item 2.5, the densities and kernels)."""

    @given(
        q=st.floats(min_value=-0.99, max_value=0.999),
        rho=st.tuples(edge_rhos, edge_rhos, edge_rhos),
        axes=st.tuples(edge_axis, edge_axis, edge_axis),
    )
    @example(q=0.999, rho=(0.99, -0.99, 0.99), axes=([-1.0, 0.3, 1.0],) * 3)
    @example(q=-0.99, rho=(-0.99, 0.99, 0.5), axes=([-1.0, 0.3, 1.0],) * 3)
    @settings(max_examples=40, deadline=None)
    def test_densities_are_finite_or_raise_the_documented_error(self, q, rho, axes):
        # Every density and kernel returns finite values or raises a
        # QNormalError subclass; a NaN, an inf or any other exception (a
        # RuntimeWarning is one here) fails.  For run time, the bilinear
        # q-Hermite series are left out at q <= 0 once some |rho| > 0.9,
        # where they take thousands of double-double terms, as in
        # tests/test_reference.py.
        p = ModelParams(*rho, q)
        half = support_halfwidth(q)
        x, y, z = (np.array(a) * half for a in axes)
        grid = open_grid(x, y, z)
        calls = {
            "f_n": lambda: f_n(x, q),
            "f_r": lambda: f_r(x, p.rho12, q),
            "f_cn": lambda: f_cn(*open_grid(x, y), p.rho12, q),
            "f_yz": lambda: f_yz(*open_grid(y, z), p),
            "f_3d.product": lambda: f_3d(*grid, p),
            **{
                f"f_z.{f.value}": lambda f=f: f_z(z, p.r, q, form=f)
                for f in MarginalForm
                if f is not MarginalForm.HERMITE_SERIES
            },
            "pm_kernel.product": lambda: pm_kernel(*open_grid(x, y), p.rho12, q),
            "f_x_given_yz": lambda: f_x_given_yz(*grid, p),
            "f_yz_given_x": lambda: f_yz_given_x(grid[1], grid[2], grid[0], p),
        }
        if q > 0.0 or max(abs(v) for v in rho) <= 0.9:
            series = DensityForm.SERIES
            calls["f_3d.series"] = lambda: f_3d(*grid, p, form=series)
            calls["pm_kernel.series"] = lambda: pm_kernel(*open_grid(x, y), p.rho12, q, form=series)
            calls["f_z.hermite-series"] = lambda: f_z(z, p.r, q, form=MarginalForm.HERMITE_SERIES)
        for name, call in calls.items():
            try:
                val = call()
            except QNormalError:
                continue
            assert np.all(np.isfinite(val)), name

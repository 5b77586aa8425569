"""Identity suites produce structured reports and pass at interior points."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qnormal3d.checks import (
    SUITES,
    SWEEP_Q,
    SWEEP_RHO,
    TOL_EXACT_Q0,
    TOL_FORMS,
    TOL_KESTEN_MCKAY,
    TOL_PCM,
    TOL_PM,
    TOL_R_ONLY,
    VerificationReport,
    _equal_r_variant,
    _interior,
    _rng,
    _worst,
    asc_limit_errors,
    check_conditionals,
    check_limits,
    check_marginals,
    check_poisson_mehler,
    fn_limit_errors,
    kesten_mckay_density,
    limit_series,
    run_suite,
    var_limit_errors,
)
from qnormal3d.densities import DensityForm, MarginalForm, ModelParams, f_3d, f_z, omega, pm_kernel
from qnormal3d.moments import cond_exp_hn_x_given_yz, var_z
from qnormal3d.polynomials import triple_product_integral
from qnormal3d.qcore import support_halfwidth


EXPECTED_SUITES = {
    "orthogonality",
    "marginals",
    "chapman-kolmogorov",
    "poisson-mehler",
    "moments",
    "conditionals",
    "limits",
}


class TestRegistry:
    def test_suite_names(self):
        assert set(SUITES) == EXPECTED_SUITES

    def test_unknown_suite_rejected(self, params):
        with pytest.raises(ValueError):
            run_suite("nope", params)


class TestReports:
    def test_report_is_frozen_with_fields(self):
        rep = VerificationReport("demo", 1.0, 1.0, 0.0, 0.0, 1e-8, True)
        assert dataclasses.is_dataclass(rep)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.passed = False

    @pytest.mark.parametrize("suite", sorted(EXPECTED_SUITES))
    def test_each_suite_passes_at_interior_point(self, suite, params):
        reports = run_suite(suite, params)
        assert reports, f"suite {suite} produced no reports"
        failed = [r.name for r in reports if not r.passed]
        assert not failed, f"failing identities: {failed}"
        for rep in reports:
            assert rep.abs_err >= 0.0
            assert rep.tol > 0.0

    def test_all_concatenates(self, params):
        combined = run_suite("all", params)
        total = sum(len(run_suite(s, params)) for s in EXPECTED_SUITES)
        assert len(combined) == total

    def test_seed_controls_random_probes(self, params):
        a = run_suite("chapman-kolmogorov", params, seed=1)
        b = run_suite("chapman-kolmogorov", params, seed=1)
        c = run_suite("chapman-kolmogorov", params, seed=2)
        assert [r.lhs for r in a] == [r.lhs for r in b]
        assert [r.lhs for r in a] != [r.lhs for r in c]


class TestKestenMcKay:
    def test_matches_marginal_at_q_zero(self):
        r = 0.24
        for x in (0.0, 0.9, -1.6):
            assert kesten_mckay_density(x, r) == pytest.approx(
                f_z(x, r, 0.0), rel=1e-11
            )

    def test_vanishes_off_support(self):
        assert kesten_mckay_density(2.0, 0.3) == pytest.approx(0.0, abs=1e-12)


class TestLimitScans:
    def test_computed_once_per_sequence(self):
        qs = (0.5, 0.9)
        assert fn_limit_errors(qs) is fn_limit_errors(qs)
        assert asc_limit_errors(qs) is asc_limit_errors(qs)

    def test_var_limit_errors(self):
        r, qs = 0.06, (0.9, 0.99, 0.999)
        expected = tuple(abs(var_z(r, q) - (1.0 + r) / (1.0 - r)) for q in qs)
        assert var_limit_errors(r, qs) == expected

    def test_limit_series_names_and_order(self):
        r, qs = 0.06, (0.5, 0.9)
        assert list(limit_series(r, qs).items()) == [
            ("fn-gaussian-limit", fn_limit_errors(qs)),
            ("asc-hermite-limit", asc_limit_errors(qs)),
            ("var-limit", var_limit_errors(r, qs)),
        ]


def test_sweep_grid_is_the_acceptance_grid():
    points = [(*rho, q) for rho in SWEEP_RHO for q in SWEEP_Q]
    assert points == [
        (r12, r13, r23, q)
        for r12 in (0.3, -0.3)
        for r13 in (0.6, -0.6)
        for r23 in (0.3, -0.6)
        for q in (-0.5, 0.0, 0.3, 0.7, 0.9)
    ]


# Per-point reference copies of the probe loops that the suites now run as
# one array call per evaluation route.  Each returns the rows it covers,
# keyed by name, drawing the suite's random probes in the suite's order.


def _ref_poisson_mehler(p, seed):
    q = p.q
    gen = _rng(seed)
    rho = p.rho13
    series_vs_product = []
    shifted = []
    for xv, yv in _interior(gen, q, 50).reshape(25, 2):
        s = float(pm_kernel(xv, yv, rho, q, form=DensityForm.SERIES))
        pr = float(pm_kernel(xv, yv, rho, q, form=DensityForm.PRODUCT))
        series_vs_product.append((s, pr))
        lhs = float(pm_kernel(xv, yv, rho * q, q))
        rhs = float(omega(xv, yv, rho, q)) / ((1.0 - rho**2) * (1.0 - rho**2 * q)) * pr
        shifted.append((lhs, rhs))
    return [
        _worst("pm-series-vs-product", series_vs_product, TOL_PM, relative=True),
        _worst("pm-shifted-parameter", shifted, TOL_PM, relative=True),
    ]


def _ref_marginals(p, seed):
    q = p.q
    gen = _rng(seed)
    _interior(gen, q, 20)  # fYZ-from-f3D
    _interior(gen, q, 10)  # fZ-from-f3D
    zs2 = _interior(gen, q, 10)
    alt = _equal_r_variant(p)
    r_only = _worst("fZ-r-only", ((f_z(zv, alt.r, q), f_z(zv, p.r, q)) for zv in zs2), TOL_R_ONLY)
    pairs = []
    for xv, yv, zv in _interior(gen, q, 15).reshape(5, 3):
        vals = [float(f_3d(xv, yv, zv, p, form=f)) for f in DensityForm]
        pairs.append((max(vals), min(vals)))
    forms_3d = _worst("f3D-form-agreement", pairs, TOL_FORMS, relative=True)
    pairs = []
    for zv in _interior(_rng(seed), q, 10):
        vals = [float(f_z(zv, p.r, q, form=f)) for f in MarginalForm]
        pairs.append((max(vals), min(vals)))
    forms_z = _worst("fZ-form-agreement", pairs, TOL_FORMS, relative=True)
    return [r_only, forms_3d, forms_z]


def _ref_limits(p, seed):
    r = p.r
    xs = _rng(seed).uniform(-1.9, 1.9, 10)
    km = _worst(
        "kesten-mckay-closed-form",
        ((float(f_z(xv, r, 0.0)), float(kesten_mckay_density(xv, r))) for xv in xs),
        TOL_KESTEN_MCKAY,
    )
    pairs = []
    for k in range(4):
        for m in range(4):
            for n in range(4):
                inside = (k + m + n) % 2 == 0 and k + m >= n and m + n >= k and n + k >= m
                exact = Fraction(1) if inside else Fraction(0)
                pairs.append((triple_product_integral(k, m, n, 0.0), float(exact)))
    return [km, _worst("q0-triple-product-exact", pairs, TOL_EXACT_Q0)]


def _ref_conditionals(p, seed):
    pairs = []
    for n in range(1, 5):
        half = support_halfwidth(p.q)
        grid = np.linspace(-0.85 * half, 0.85 * half, 2 * n + 5)
        yg, zg = np.meshgrid(grid, grid)
        cols = [(yg**i * zg**j).ravel() for i in range(n + 1) for j in range(n + 1 - i)]
        design = np.array(cols).T
        target = np.array(
            [
                cond_exp_hn_x_given_yz(n, yv, zv, p.rho12, p.rho13, p.q)
                for yv, zv in zip(yg.ravel(), zg.ravel())
            ]
        )
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        pairs.append((float(np.linalg.norm(design @ coef - target)), 0.0))
    return [_worst("pcm-degree-fit", pairs, TOL_PCM)]


PINNED = [
    (ModelParams(0.3, 0.6, 0.3, 0.9), 4),
    (ModelParams(-0.3, -0.6, -0.6, -0.5), 0),
    (ModelParams(0.3, -0.6, 0.3, 0.7), 7),
    # At q = 0.99 the bilinear series cancels past what double-double
    # resolves and misses the product by about 1e75, so its row fails.
    (ModelParams(0.3, 0.6, 0.3, 0.99), 4),
]


class TestVectorizedProbesPinned:
    """The array-call suites report exactly what the per-point loops did,
    field for field, failing rows included."""

    @pytest.mark.parametrize(
        "suite, reference",
        [
            (check_poisson_mehler, _ref_poisson_mehler),
            (check_marginals, _ref_marginals),
            (check_limits, _ref_limits),
            (check_conditionals, _ref_conditionals),
        ],
    )
    @pytest.mark.parametrize("p, seed", PINNED)
    def test_rows_equal_per_point_loops(self, suite, reference, p, seed):
        rows = {rep.name: rep for rep in suite(p, seed)}
        for ref in reference(p, seed):
            assert rows[ref.name] == ref

    def test_pinned_points_include_a_failing_row(self):
        p, seed = PINNED[-1]
        rows = {rep.name: rep for rep in check_poisson_mehler(p, seed)}
        assert not rows["pm-series-vs-product"].passed

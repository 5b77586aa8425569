"""Identity suites produce structured reports and pass at interior points."""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qnormal3d
from qnormal3d.checks import (
    SUITES,
    SWEEP_Q,
    SWEEP_RHO,
    TOL_COND_FORMS,
    TOL_COND_QUAD,
    TOL_EXACT_Q0,
    TOL_FORMS,
    TOL_KESTEN_MCKAY,
    TOL_MOMENT,
    TOL_NORM_1D,
    TOL_NORM_2D,
    TOL_NORM_3D,
    TOL_ODD,
    TOL_PCM,
    TOL_PM,
    TOL_R_ONLY,
    VerificationReport,
    _equal_r_variant,
    _interior,
    _limit_ratios,
    _limit_row,
    _pcm_residual,
    _report,
    _rng,
    _worst,
    asc_limit_errors,
    check_conditionals,
    check_limits,
    check_marginals,
    check_moments,
    check_poisson_mehler,
    fn_limit_errors,
    kesten_mckay_density,
    limit_series,
    run_suite,
    var_limit_errors,
)
from qnormal3d.densities import (
    DensityForm,
    MarginalForm,
    ModelParams,
    _cycle,
    f_3d,
    f_cn,
    f_n,
    f_r,
    f_yz,
    f_z,
    omega,
    pm_kernel,
)
from qnormal3d.moments import (
    CondMomentForm,
    MomentKind,
    MomentSpec,
    _marginal_moment,
    closed_form,
    cond_exp_hn_x_given_yz,
    cond_exp_hn_y_given_z,
    cond_exp_x_given_yz,
    cond_exp_xy_given_z,
    cond_exp_y2_given_z,
    cond_exp_y_given_z,
    cov_yz,
    e_h2n_z,
    quadrature_oracle,
    var_z,
)
from qnormal3d.polynomials import (
    FAMILIES,
    default_y,
    q_hermite,
    triple_product_integral,
)
from qnormal3d.qcore import support_halfwidth
from qnormal3d.quadrature import _integrate_cycle, integrate1d, integrate2d

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
        rep = VerificationReport("demo", 1.0, 1.0, 0.0, 0.0, 0.0, 1e-8, True)
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

    def test_err_is_the_error_the_verdict_read(self, params):
        relative = ("pm-", "-form-agreement", "condx-forms-agree", "-diagonal")
        limits = {"fn-gaussian-limit", "asc-hermite-limit", "var-limit"}
        for rep in run_suite("all", params):
            if rep.name in limits:
                assert (rep.err, rep.passed) == (rep.lhs, rep.err < 1.0)
                continue
            assert rep.passed == (rep.err <= rep.tol)
            measure = rep.rel_err if any(key in rep.name for key in relative) else rep.abs_err
            assert rep.err == measure, rep.name

    def test_gram_diagonal_reports_its_worst_relative_entry(self):
        p = ModelParams(0.3, 0.6, 0.3, -0.5)
        given = {"y": default_y(p.q), "rho1": p.rho12, "r": p.r}
        rows = {rep.name: rep for rep in run_suite("orthogonality", p)}
        for name, fam in FAMILIES.items():
            args = [given[key] for key in fam.params]
            gram = fam.gram(fam.degree, *args, p.q)
            norms = np.array(fam.norms(fam.degree, *args, p.q))
            rel = np.abs(np.diag(gram) - norms) / np.maximum(1.0, np.abs(norms))
            assert rows[f"gram-{name}-diagonal"].err == rel.max()

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

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_takes_the_sampler_rule(self, params, seed):
        # Every suite, those that draw no random probe included.
        for name in [*SUITES, "all"]:
            with pytest.raises(ValueError, match="seed must fit in 64 bits"):
                run_suite(name, params, seed=seed)


@pytest.mark.parametrize(
    "rho",
    [(0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (-0.4, -0.4, -0.4)],
    ids=["positive", "zero", "negative"],
)
def test_r_only_variant_of_an_all_equal_triple(rho):
    p = ModelParams(*rho, 0.7)
    alt = _equal_r_variant(p)
    assert (alt.rho12, alt.rho13, alt.rho23) != rho
    assert alt.r == pytest.approx(p.r, abs=1e-16)
    row = next(rep for rep in check_marginals(p, seed=3) if rep.name == "fZ-r-only")
    assert row.passed and row.err < 1e-13


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



class TestWorst:
    @pytest.mark.parametrize(
        "pairs", [[(1.0, 1.0), (math.nan, 1.0)], [(math.nan, 1.0), (1.0, 1.0)]]
    )
    def test_nan_probe_fails_the_row_in_either_order(self, pairs):
        rep = _worst("a", pairs, 1e-8)
        assert math.isnan(rep.lhs)
        assert not rep.passed

    def test_nan_ranks_above_inf(self):
        rep = _worst("a", [(math.inf, 1.0), (math.nan, 1.0), (2.0, 1.0)], 1e-8)
        assert math.isnan(rep.lhs)

    def test_first_of_equal_worst_is_kept(self):
        rep = _worst("a", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.0)], 1e-8)
        assert (rep.lhs, rep.rhs) == (1.0, 0.0)


def _sweep_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_identity_checks.py"
    spec = importlib.util.spec_from_file_location("run_identity_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sweep_summary_ranks_a_nan_row_worst(monkeypatch, capsys):
    script = _sweep_script()
    rows = [_report("demo", math.nan, 1.0, 1e-8), _report("demo", 2.0, 1.0, 1e-8)]
    monkeypatch.setattr(script, "run_suite", lambda suite, p, seed: rows)
    monkeypatch.setattr(sys, "argv", ["run_identity_checks.py", "--q", "0.5"])
    assert script.main() == 1
    assert capsys.readouterr().out.splitlines()[1].split() == ["demo", "16", "nan", "16"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--suite poisson-mehler --q 0.3 --seed -3", "seed must fit in 64 bits"),
        ("--suite limits --q 1.5", "|q| must be < 1"),
    ],
    ids=["negative-seed", "q-outside"],
)
def test_sweep_exits_2_with_one_error_line(argv, message, monkeypatch, capsys):
    script = _sweep_script()
    monkeypatch.setattr(sys, "argv", ["run_identity_checks.py", *argv.split()])
    assert script.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


class TestLimitRatios:
    def test_steps_from_an_exact_zero(self):
        errs = (0.5, 0.25, 0.0, 0.0, 1e-300)
        assert _limit_ratios(errs) == [0.5, 0.0, 0.0, math.inf]

    def test_series_at_its_limit_passes(self):
        row = _limit_row("var-limit", (0.0, 0.0, 0.0))
        assert (row.lhs, row.passed) == (0.0, True)

    def test_growth_from_zero_fails(self):
        row = _limit_row("var-limit", (1e-3, 0.0, 1e-17))
        assert (row.lhs, row.passed) == (math.inf, False)

    def test_nan_step_fails(self):
        assert not _limit_row("var-limit", (1e-3, 1e-4, math.nan)).passed


@pytest.mark.parametrize("rho, q", [((0.0, 0.6, 0.3), 0.5), ((0.3, 0.0, -0.6), 0.7)])
def test_all_suites_pass_at_a_zero_correlation(rho, q):
    # r = 0, so every var-limit error is exactly 0: the series sits at its limit.
    reports = run_suite("all", ModelParams(*rho, q), seed=1)
    assert [rep.name for rep in reports if not rep.passed] == []
    var_row = next(rep for rep in reports if rep.name == "var-limit")
    assert (var_row.lhs, var_row.abs_err) == (0.0, 0.0)


ROW_NAMES = {
    "orthogonality": [
        "gram-qhermite-diagonal",
        "gram-qhermite-offdiagonal",
        "gram-asc-diagonal",
        "gram-asc-offdiagonal",
        "gram-rogers-diagonal",
        "gram-rogers-offdiagonal",
    ],
    "marginals": [
        "fN-normalization",
        "fR-normalization",
        "fCN-normalization",
        "fYZ-normalization",
        "C3D-normalization",
        "f2D-from-f3D",
        "fZ-from-f3D",
        "fZ-r-only",
        "f3D-form-agreement",
        "fZ-form-agreement",
    ],
    "chapman-kolmogorov": ["ck-semigroup"],
    "poisson-mehler": ["pm-series-vs-product", "pm-shifted-parameter"],
    "moments": [
        "eh2n-vs-quadrature",
        "varz-vs-quadrature",
        "cov-vs-quadrature",
        "mixed-vs-quadrature",
        "odd-moments-vanish",
    ],
    "conditionals": [
        "condx-forms-agree",
        "condx-vs-quadrature",
        "condy-vs-quadrature",
        "ex-vs-quadrature",
        "cyz-vs-quadrature",
        "cy2z-vs-quadrature",
        "cconv-vs-quadrature",
        "pcm-degree-fit",
    ],
    "limits": [
        "kesten-mckay-closed-form",
        "q0-triple-product-exact",
        "q0-gram-exact",
        "fn-gaussian-limit",
        "asc-hermite-limit",
        "var-limit",
    ],
}


def test_row_names_are_pinned_in_order():
    p = ModelParams(0.3, 0.6, 0.3, 0.7)
    assert {suite: [rep.name for rep in run_suite(suite, p)] for suite in SUITES} == ROW_NAMES


def test_sweep_grid_is_the_acceptance_grid():
    points = [(*rho, q) for rho in SWEEP_RHO for q in SWEEP_Q]
    assert points == [
        (r12, r13, r23, q)
        for r12 in (0.3, -0.3)
        for r13 in (0.6, -0.6)
        for r23 in (0.3, -0.6)
        for q in (-0.5, 0.0, 0.3, 0.7, 0.9)
    ]


@pytest.mark.parametrize("rho", SWEEP_RHO)
def test_conditionals_pass_near_gaussian_limit(rho):
    # The oracles integrate conditional densities formed in logs, so a tiny
    # f_z(z) at a conditioning point near the support edge stays resolved.
    reports = check_conditionals(ModelParams(*rho, 0.99), seed=0)
    assert [rep.name for rep in reports if not rep.passed] == []


# Per-point reference copies of the probe loops and hand-written rows that
# the suites now run as one array call per evaluation route and as row
# tables.  Each returns the rows it covers, keyed by name, drawing the
# suite's random probes in the suite's order.


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
    y0 = default_y(q)
    norms = [
        _report(name, integral.value, 1.0, tol)
        for name, integral, tol in [
            ("fN-normalization", integrate1d(lambda x: f_n(x, q), q), TOL_NORM_1D),
            ("fR-normalization", integrate1d(lambda x: f_r(x, p.r, q), q), TOL_NORM_1D),
            ("fCN-normalization", integrate1d(lambda x: f_cn(x, y0, p.rho12, q), q), TOL_NORM_1D),
            ("fYZ-normalization", integrate2d(lambda y, z: f_yz(y, z, p), q), TOL_NORM_2D),
            ("C3D-normalization", _integrate_cycle(*_cycle(p), q), TOL_NORM_3D),
        ]
    ]
    gen = _rng(seed)
    _interior(gen, q, 20)  # f2D-from-f3D
    _interior(gen, q, 10)  # fZ-from-f3D
    zs2 = _interior(gen, q, 10)
    alt = _equal_r_variant(p)
    r_only = _worst(
        "fZ-r-only",
        ((integrate1d(lambda y: f_yz(y, zv, alt), q).value, f_r(zv, p.r, q)) for zv in zs2),
        TOL_R_ONLY,
    )
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
    return [*norms, r_only, forms_3d, forms_z]


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


def _ref_moments(p, seed):
    q, r = p.q, p.r

    def h(deg):
        return lambda z: q_hermite(deg, z, q).values[deg]

    mixed = [MomentSpec(MomentKind.UNCONDITIONAL, d, p) for d in ((2, 2), (1, 3), (2, 4))]
    return [
        _worst(
            "eh2n-vs-quadrature",
            ((e_h2n_z(n, r, q), _marginal_moment(h(2 * n), r, q)) for n in (1, 2, 3)),
            TOL_MOMENT,
        ),
        _report(
            "varz-vs-quadrature", var_z(r, q), _marginal_moment(lambda z: z * z, r, q), TOL_MOMENT
        ),
        _report(
            "cov-vs-quadrature",
            cov_yz(p),
            quadrature_oracle(MomentSpec(MomentKind.UNCONDITIONAL, (1, 1), p)),
            TOL_MOMENT,
        ),
        _worst(
            "mixed-vs-quadrature",
            ((closed_form(s), quadrature_oracle(s)) for s in mixed),
            TOL_MOMENT,
        ),
        _worst(
            "odd-moments-vanish",
            ((_marginal_moment(h(2 * n + 1), r, q), 0.0) for n in range(5)),
            TOL_ODD,
        ),
    ]


def _ref_conditionals(p, seed):
    q = p.q
    gen = _rng(seed)
    out = []
    form_pairs = []
    quad_pairs = []
    for n in range(6):
        yv, zv = _interior(gen, q, 2)
        vals = [cond_exp_hn_x_given_yz(n, yv, zv, p, form) for form in CondMomentForm]
        form_pairs.append((max(vals), min(vals)))
        oracle = quadrature_oracle(MomentSpec(MomentKind.COND_X_GIVEN_YZ, (n,), p, (yv, zv)))
        quad_pairs.append((vals[0], oracle))
    out.append(_worst("condx-forms-agree", form_pairs, TOL_COND_FORMS, relative=True))
    out.append(_worst("condx-vs-quadrature", quad_pairs, TOL_COND_QUAD))
    pairs = []
    for n in range(1, 5):
        zv = float(_interior(gen, q, 1)[0])
        oracle = quadrature_oracle(MomentSpec(MomentKind.COND_Y_GIVEN_Z, (n,), p, (zv,)))
        pairs.append((cond_exp_hn_y_given_z(n, zv, p), oracle))
    out.append(_worst("condy-vs-quadrature", pairs, TOL_COND_QUAD))
    yv, zv = _interior(gen, q, 2)
    oracle = quadrature_oracle(MomentSpec(MomentKind.COND_X_GIVEN_YZ, (1,), p, (yv, zv)))
    closed = cond_exp_x_given_yz(yv, zv, p)
    out.append(_report("ex-vs-quadrature", closed, oracle, TOL_COND_QUAD))
    zv = float(_interior(gen, q, 1)[0])
    for name, closed, kind, degrees in [
        ("cyz-vs-quadrature", cond_exp_y_given_z(zv, p), MomentKind.COND_Y_GIVEN_Z, (1,)),
        ("cy2z-vs-quadrature", cond_exp_y2_given_z(zv, p) - 1.0, MomentKind.COND_Y_GIVEN_Z, (2,)),
        ("cconv-vs-quadrature", cond_exp_xy_given_z(zv, p), MomentKind.COND_XY_GIVEN_Z, (1, 1)),
    ]:
        oracle = quadrature_oracle(MomentSpec(kind, degrees, p, (zv,)))
        out.append(_report(name, closed, oracle, TOL_COND_QUAD))

    pairs = []
    for n in range(1, 5):
        m = 2 * n + 5
        half = support_halfwidth(p.q)
        grid = np.linspace(-0.85 * half, 0.85 * half, m)
        target = np.array([[cond_exp_hn_x_given_yz(n, yv, zv, p) for yv in grid] for zv in grid])
        worst = 0.0
        for a in range(n + 2):
            diff = target
            for _ in range(a):
                diff = diff[:, 1:] - diff[:, :-1]
            for _ in range(n + 1 - a):
                diff = diff[1:] - diff[:-1]
            worst = max(worst, float(np.max(np.abs(diff))))
        pairs.append((worst, 0.0))
    return [*out, _worst("pcm-degree-fit", pairs, TOL_PCM)]


PINNED = [
    (ModelParams(0.3, 0.6, 0.3, 0.9), 4),
    (ModelParams(-0.3, -0.6, -0.6, -0.5), 0),
    (ModelParams(0.3, -0.6, 0.3, 0.7), 7),
    # At q = 0.99 the bilinear series cancels past what double-double
    # resolves and misses the product by about 1e75, so its row fails.
    (ModelParams(0.3, 0.6, 0.3, 0.99), 4),
]


class TestVectorizedProbesPinned:
    """The array-call and table suites report exactly what the per-point
    loops and hand-written rows did, by repr, failing rows included."""

    @pytest.mark.parametrize(
        "suite, reference",
        [
            (check_poisson_mehler, _ref_poisson_mehler),
            (check_marginals, _ref_marginals),
            (check_limits, _ref_limits),
            pytest.param(
                lambda p, seed: check_moments(p), _ref_moments, id="check_moments-_ref_moments"
            ),
            (check_conditionals, _ref_conditionals),
        ],
    )
    @pytest.mark.parametrize("p, seed", PINNED)
    def test_rows_equal_per_point_loops(self, suite, reference, p, seed):
        rows = {rep.name: rep for rep in suite(p, seed)}
        for ref in reference(p, seed):
            assert repr(rows[ref.name]) == repr(ref)

    def test_pinned_points_include_a_failing_row(self):
        p, seed = PINNED[-1]
        rows = {rep.name: rep for rep in check_poisson_mehler(p, seed)}
        assert not rows["pm-series-vs-product"].passed


def _lstsq_residual(n, p):
    """The residual of a monomial least-squares fit of total degree n."""
    half = support_halfwidth(p.q)
    grid = np.linspace(-0.85 * half, 0.85 * half, 2 * n + 5)
    yg, zg = np.meshgrid(grid, grid)
    design = np.array(
        [(yg**i * zg**j).ravel() for i in range(n + 1) for j in range(n + 1 - i)]
    ).T
    target = cond_exp_hn_x_given_yz(n, yg.ravel(), zg.ravel(), p)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(np.linalg.norm(design @ coef - target))


@pytest.mark.parametrize("q", [*SWEEP_Q, 0.99, 0.999])
def test_pcm_projection_is_the_least_squares_fit(q):
    """Every pcm-degree-fit verdict by differences is the one a monomial
    least-squares fit gives."""
    for rho in SWEEP_RHO:
        p = ModelParams(*rho, q)
        for n in range(1, 5):
            got, want = _pcm_residual(n, p), _lstsq_residual(n, p)
            assert (got <= TOL_PCM) == (want <= TOL_PCM), (rho, n)


def test_pcm_degree_fit_fails_on_a_table_of_higher_degree(monkeypatch):
    # y^n z has total degree n + 1: its difference D_y^n D_z is n! h^(n+1).
    monkeypatch.setattr(
        qnormal3d.checks, "cond_exp_hn_x_given_yz", lambda n, y, z, *rest: y**n * z
    )
    rows = {rep.name: rep for rep in check_conditionals(ModelParams(*SWEEP_RHO[0], 0.5))}
    assert not rows["pcm-degree-fit"].passed


LAPACK_ROUTINES = (
    "lstsq", "solve", "inv", "pinv", "svd", "qr", "eig", "eigh", "eigvals", "eigvalsh",
    "cholesky", "det", "slogdet", "matrix_rank",
)


@pytest.mark.parametrize("p", [ModelParams(*SWEEP_RHO[0], 0.9), ModelParams(*SWEEP_RHO[-1], -0.5)])
def test_identity_sweep_calls_no_lapack(p, monkeypatch):
    """The sweep calls no LAPACK-backed numpy.linalg routine, whose first
    call would page LAPACK code and workspace into the process."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"numpy.linalg.{name} called")

        return call

    for name in LAPACK_ROUTINES:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    reports = run_suite("all", p)
    assert calls == []
    assert all(rep.passed for rep in reports)


# Run in a fresh process: the Rss of every mapping whose path names BLAS,
# before and after the sweep at the points given as JSON in argv[1].
_BLAS_RSS_SCRIPT = """
import json, sys
from qnormal3d import *

def blas_rss():
    maps, rss, blas = 0, 0, False
    with open("/proc/self/smaps") as f:
        for line in f:
            fields = line.split()
            if not fields[0].endswith(":"):
                blas = "blas" in " ".join(fields[5:])
                maps += blas
            elif blas and fields[0] == "Rss:":
                rss += int(fields[1])
    return maps, rss

maps, before = blas_rss()
for rho, q in json.loads(sys.argv[1]):
    run_suite("all", ModelParams(*rho, q))
print(json.dumps([maps, before, blas_rss()[1]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
def test_identity_sweep_pages_in_no_blas_code():
    """The sweep's sums run in numpy's own loops, so no page of the BLAS
    library (its GEMM and dot kernels) becomes resident while it runs."""
    src = str(Path(qnormal3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    points = json.dumps([(SWEEP_RHO[0], 0.9), (SWEEP_RHO[-1], -0.5)])
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_RSS_SCRIPT, points],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    maps, before, after = json.loads(proc.stdout)
    if maps == 0:
        pytest.skip("no BLAS library is mapped into the process")
    assert after <= before, f"BLAS mappings grew from {before} kB to {after} kB"

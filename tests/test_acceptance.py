"""End-to-end acceptance: every advertised identity at its stated tolerance.

One criterion per test, run over the full parameter grid; each prints a
single PASS/FAIL line with the worst observed err / tol, where err is the
error each row's verdict compared with its tolerance (a NaN ranks worst),
so the terminal log doubles as the acceptance record.
"""

import time

import numpy as np
import pytest

from qnormal3d.checks import _rank, run_suite
from qnormal3d.densities import ModelParams
from qnormal3d.moments import cov_yz, var_z
from qnormal3d.sampler import (
    SamplerConfig,
    cdf_r,
    ks_critical,
    ks_statistic,
    mc_moment,
    sample_3d,
)

RHO12 = (0.3, -0.3)
RHO13 = (0.6, -0.6)
RHO23 = (0.3, -0.6)
QS = (-0.5, 0.0, 0.3, 0.7, 0.9)

GRID = [
    ModelParams(r12, r13, r23, q)
    for r12 in RHO12
    for r13 in RHO13
    for r23 in RHO23
    for q in QS
]

SUITE_NAMES = (
    "marginals",
    "orthogonality",
    "poisson-mehler",
    "chapman-kolmogorov",
    "moments",
    "conditionals",
    "limits",
)


@pytest.fixture(scope="module")
def grid_reports():
    """Every suite at every grid point, computed once and shared."""
    collected = {}
    for suite in SUITE_NAMES:
        rows = []
        for p in GRID:
            rows.extend(run_suite(suite, p, seed=7))
        collected[suite] = rows
    return collected


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def _conclude(announce, number, label, rows, pinned):
    """Pin tolerances, print the one-line verdict, then assert."""
    by_name = {}
    for rep in rows:
        by_name.setdefault(rep.name, []).append(rep)
    missing = set(pinned) - set(by_name)
    assert not missing, f"criterion {number}: no instances for {sorted(missing)}"
    worst = 0.0
    failed = []
    for name, tol in pinned.items():
        for rep in by_name[name]:
            assert rep.tol == tol, (
                f"{name}: tolerance drifted from pinned {tol} to {rep.tol}"
            )
            worst = max(worst, rep.err / tol, key=_rank)
            if not rep.passed:
                failed.append(name)
    verdict = "FAIL" if failed else "PASS"
    count = sum(len(by_name[name]) for name in pinned)
    announce(
        f"CRITERION {number:2d} {label}: {verdict} "
        f"({count} instances, worst err/tol {worst:.2e})"
    )
    assert not failed, f"criterion {number} failures: {sorted(set(failed))}"


def test_criterion_01_normalization(grid_reports, announce):
    pinned = {
        "fN-normalization": 1e-8,
        "fR-normalization": 1e-8,
        "fYZ-normalization": 1e-7,
        "C3D-normalization": 1e-6,
    }
    _conclude(announce, 1, "normalization", grid_reports["marginals"], pinned)


def test_criterion_02_orthogonality(grid_reports, announce):
    pinned = {
        "gram-qhermite-diagonal": 1e-7,
        "gram-qhermite-offdiagonal": 1e-8,
        "gram-asc-diagonal": 1e-7,
        "gram-asc-offdiagonal": 1e-8,
        "gram-rogers-diagonal": 1e-7,
        "gram-rogers-offdiagonal": 1e-8,
    }
    _conclude(announce, 2, "orthogonality", grid_reports["orthogonality"], pinned)


def test_criterion_03_bilinear_kernel(grid_reports, announce):
    pinned = {
        "pm-series-vs-product": 1e-9,
        "pm-shifted-parameter": 1e-9,
    }
    _conclude(announce, 3, "bilinear kernel", grid_reports["poisson-mehler"], pinned)


def test_criterion_04_semigroup(grid_reports, announce):
    pinned = {"ck-semigroup": 1e-7}
    _conclude(announce, 4, "semigroup", grid_reports["chapman-kolmogorov"], pinned)


def test_criterion_05_marginalization(grid_reports, announce):
    pinned = {
        "fYZ-from-f3D": 1e-7,
        "fZ-from-f3D": 1e-6,
        "fZ-r-only": 1e-10,
    }
    _conclude(announce, 5, "marginalization", grid_reports["marginals"], pinned)


def test_criterion_06_form_agreement(grid_reports, announce):
    pinned = {
        "fZ-form-agreement": 1e-8,
        "f3D-form-agreement": 1e-8,
    }
    _conclude(announce, 6, "form agreement", grid_reports["marginals"], pinned)


def test_criterion_07_moments(grid_reports, announce):
    pinned = {
        "eh2n-vs-quadrature": 1e-6,
        "varz-vs-quadrature": 1e-6,
        "cov-vs-quadrature": 1e-6,
        "mixed-vs-quadrature": 1e-6,
        "odd-moments-vanish": 1e-8,
    }
    _conclude(announce, 7, "moments", grid_reports["moments"], pinned)


def test_criterion_08_conditional_moments(grid_reports, announce):
    pinned = {
        "condx-forms-agree": 1e-9,
        "condx-vs-quadrature": 1e-7,
        "condy-vs-quadrature": 1e-7,
        "ex-vs-quadrature": 1e-7,
        "cyz-vs-quadrature": 1e-7,
        "cy2z-vs-quadrature": 1e-7,
        "cconv-vs-quadrature": 1e-7,
        "pcm-degree-fit": 1e-9,
    }
    _conclude(announce, 8, "conditional moments", grid_reports["conditionals"], pinned)


def test_criterion_09_limits(grid_reports, announce):
    pinned = {
        "kesten-mckay-closed-form": 1e-10,
        "q0-triple-product-exact": 1e-10,
        "q0-gram-exact": 1e-10,
        "fn-gaussian-limit": 1.0,
        "asc-hermite-limit": 1.0,
        "var-limit": 1.0,
    }
    _conclude(announce, 9, "limits", grid_reports["limits"], pinned)


def test_criterion_10_sampler(announce):
    p = ModelParams(0.3, 0.4, 0.5, 0.5)
    n = 200_000
    cfg = SamplerConfig(seed=2024, n_samples=n, grid_points=128)

    small = SamplerConfig(seed=2024, n_samples=2000, grid_points=128)
    rerun_a = sample_3d(p, small)
    rerun_b = sample_3d(p, small)
    reproducible = rerun_a.tobytes() == rerun_b.tobytes()

    start = time.perf_counter()
    draws = sample_3d(p, cfg)
    elapsed = time.perf_counter() - start

    var_est = mc_moment(draws, lambda x, y, z: z * z)
    cov_est = mc_moment(draws, lambda x, y, z: y * z)
    var_dev = abs(var_est.value - var_z(p.r, p.q)) / var_est.std_error
    cov_dev = abs(cov_est.value - cov_yz(p)) / cov_est.std_error
    # Every coordinate follows the one-coordinate marginal; only Z is read
    # straight off its inverse-CDF table, so X and Y test the conditionals.
    ks_x, ks_y, ks = (ks_statistic(draws[:, i], cdf_r(p.r, p.q)) for i in range(3))
    ks_crit = ks_critical(n, alpha=0.01)

    ok = (
        reproducible
        and elapsed < 60.0
        and var_dev < 3.0
        and cov_dev < 3.0
        and ks < ks_crit
        and ks_x < ks_crit
        and ks_y < ks_crit
    )
    announce(
        f"CRITERION 10 sampler: {'PASS' if ok else 'FAIL'} "
        f"(var {var_dev:.2f} se, cov {cov_dev:.2f} se, "
        f"KS x/y/z {ks_x:.5f}/{ks_y:.5f}/{ks:.5f} < {ks_crit:.5f}, bytes {'ok' if reproducible else 'DIFFER'}, "
        f"{elapsed:.1f} s)"
    )
    assert reproducible, "fixed-seed rerun produced different bytes"
    assert elapsed < 60.0, f"sampler took {elapsed:.1f} s"
    assert var_dev < 3.0, f"var(Z) off by {var_dev:.2f} standard errors"
    assert cov_dev < 3.0, f"cov(Y,Z) off by {cov_dev:.2f} standard errors"
    assert ks < ks_crit, f"KS statistic {ks:.5f} exceeds {ks_crit:.5f}"
    assert ks_x < ks_crit, f"KS statistic of X {ks_x:.5f} exceeds {ks_crit:.5f}"
    assert ks_y < ks_crit, f"KS statistic of Y {ks_y:.5f} exceeds {ks_crit:.5f}"
    assert draws.shape == (n, 3)
    assert np.isfinite(draws).all()

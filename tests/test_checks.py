"""Identity suites produce structured reports and pass at interior points."""

import dataclasses

import pytest

from qnormal3d.checks import (
    SUITES,
    VerificationReport,
    asc_limit_errors,
    fn_limit_errors,
    kesten_mckay_density,
    run_suite,
)
from qnormal3d.densities import ModelParams, f_z


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

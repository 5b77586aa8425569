"""Inverse-CDF samplers: determinism, marginals, error bars."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnormal3d
from qnormal3d.densities import (
    ModelParams,
    _cosine,
    _kernel_coefficients,
    _kernel_terms,
    f_n,
    f_x_given_yz,
    f_yz,
)
from qnormal3d.errors import InsufficientSamples, NonConvergence
from qnormal3d.moments import _covariance, cov_yz, var_z
from qnormal3d.qcore import MAX_TERMS, support_halfwidth
from qnormal3d.quadrature import _theta_of_phi
from qnormal3d.sampler import (
    _BLOCK,
    McEstimate,
    SamplerConfig,
    _base_quantile,
    _chebyshev_rows,
    _conditional_rows,
    _density_row,
    _density_tables,
    _pchip_cdf,
    _phi_grid,
    cdf_fn,
    cdf_r,
    ks_critical,
    ks_statistic,
    mc_moment,
    sample_3d,
    sample_fn,
)

FAST_3D = dict(grid_points=64)


def _cdf_fn_256(q):
    """The base density's CDF read from a 256-point table, cheaper than the
    fixed 2048-point table of cdf_fn."""
    return _density_tables(lambda xs: f_n(xs, q), q, 256)[0]


class TestConfig:
    def test_defaults(self):
        cfg = SamplerConfig(seed=1, n_samples=10)
        assert cfg.grid_points == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1, n_samples=10),
            dict(seed=2**64, n_samples=10),
            dict(seed=1, n_samples=0),
            dict(seed=1, n_samples=10, grid_points=32),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestBaseSampler:
    def test_deterministic(self):
        cfg = SamplerConfig(seed=42, n_samples=500)
        a = sample_fn(0.5, cfg)
        b = sample_fn(0.5, cfg)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_stream(self):
        a = sample_fn(0.5, SamplerConfig(seed=1, n_samples=100))
        b = sample_fn(0.5, SamplerConfig(seed=2, n_samples=100))
        assert not np.array_equal(a, b)

    def test_stays_in_support(self):
        for q in (-0.5, 0.0, 0.7):
            draws = sample_fn(q, SamplerConfig(seed=9, n_samples=2000))
            assert np.max(np.abs(draws)) <= support_halfwidth(q)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_kolmogorov_smirnov(self, q):
        n = 10_000
        draws = sample_fn(q, SamplerConfig(seed=314, n_samples=n))
        stat = ks_statistic(draws, cdf_fn(q))
        assert stat < ks_critical(n, alpha=0.01)

    def test_near_gaussian_q(self):
        # q = 0.99 leaves exactly flat tails in the tabulated CDF.
        n = 20_000
        draws = sample_fn(0.99, SamplerConfig(seed=2024, n_samples=n))
        var = mc_moment(draws, lambda x: x * x)
        assert abs(var.value - 1.0) < 3 * var.std_error
        assert ks_statistic(draws, cdf_fn(0.99)) < ks_critical(n, alpha=0.01)

    def test_unbiased_at_q_0999(self):
        # The support is +-63 while the bulk is |x| < 3: the table's angle
        # map keeps its nodes on the bulk, where 256 plain nodes in theta
        # put about 8 cells and bias the draws (KS 0.0096 at 200k draws).
        n = 200_000
        draws = sample_fn(0.999, SamplerConfig(seed=2024, n_samples=n))
        var = mc_moment(draws, lambda x: x * x)
        assert abs(var.value - 1.0) < 3 * var.std_error
        assert ks_statistic(draws, cdf_fn(0.999)) < ks_critical(n, alpha=0.01)

    def test_first_two_moments(self):
        n = 20_000
        draws = sample_fn(0.3, SamplerConfig(seed=11, n_samples=n))
        mean = mc_moment(draws, lambda x: x)
        var = mc_moment(draws, lambda x: x * x)
        assert abs(mean.value) < 4 * mean.std_error
        assert abs(var.value - 1.0) < 4 * var.std_error


class TestGibbsSampler:
    @staticmethod
    def _check_shape_and_support(p):
        cfg = SamplerConfig(seed=5, n_samples=1500, **FAST_3D)
        draws = sample_3d(p, cfg)
        assert draws.shape == (1500, 3)
        assert np.max(np.abs(draws)) <= support_halfwidth(p.q)

    def test_shape_and_support(self, params):
        self._check_shape_and_support(params)

    @pytest.mark.parametrize(
        "point", [(0.3, 0.6, -0.6, 0.999), (0.95, 0.3, 0.3, 0.5)]
    )
    def test_shape_and_support_near_domain_edges(self, point):
        # q -> 1 and |rho| -> 1: the kernel rank comes from the densities'
        # Chebyshev tail bound, which depends on |rho| alone (N = 64, 589).
        self._check_shape_and_support(ModelParams(*point))

    def test_kernel_beyond_series_cap_raises(self):
        # |rho| = 0.99999 needs about 3.0 million terms: the raise names the
        # cap before any grid matrix is built.
        cfg = SamplerConfig(seed=5, n_samples=10, **FAST_3D)
        with pytest.raises(NonConvergence, match=str(MAX_TERMS)):
            sample_3d(ModelParams(0.99999, 0.3, 0.3, 0.5), cfg)

    def test_kernel_beyond_memory_budget_raises(self, traced_peak):
        # |rho| = 0.9998 needs 151,056 terms, under MAX_TERMS; at 64 rows a
        # block and the default 256 grid points the 256 MiB budget caps N at
        # 104,857, and the raise comes before the grid matrix is built.
        assert _kernel_terms(0.9998, 0.5, MAX_TERMS) == 151_056
        cfg = SamplerConfig(seed=5, n_samples=10)

        def attempt():
            with pytest.raises(NonConvergence, match="256 MiB"):
                sample_3d(ModelParams(0.9998, 0.3, 0.3, 0.5), cfg)

        peak, _ = traced_peak(attempt)
        assert peak < 2**20

    @pytest.mark.parametrize("q", [0.5, 0.99, 0.999])
    @pytest.mark.parametrize(
        "rhos", [(0.3, 0.6, -0.6), (0.9, -0.9, 0.5), (-0.9, 0.3, 0.9)]
    )
    def test_conditional_rows_match_f_x_given_yz(self, rhos, q):
        # The sampler's X | (Y, Z) row in phi is f_x_given_yz times the grid's
        # Jacobian L cos(theta) dtheta/dphi, and its Y | Z row, both kernels
        # conditioned on z with rho23 and rho12 rho13, is f_yz(., z) times
        # it; all rows are normalized to sum 1.  At q = 0.5 and |rho| = 0.9
        # f_x_given_yz takes the factor product.
        p = ModelParams(*rhos, q)
        half = support_halfwidth(q)
        phi = _phi_grid(128)
        grid_x, base = _density_row(lambda xs: f_n(xs, q), half, phi)
        terms = _kernel_terms(max(abs(r) for r in rhos), q, MAX_TERMS)
        grid_rows = _chebyshev_rows(_cosine(grid_x, q), np.ones(terms))
        c12, c13, c23, c_yz = (
            _kernel_coefficients(r, q, terms) for r in (p.rho12, p.rho13, p.rho23, p.rho12 * p.rho13)
        )
        y = np.array([-2.0, -1.5, 0.3, 2.0])
        z = np.array([2.1, 0.7, -0.2, 1.9])
        theta, dtheta = _theta_of_phi(phi, half)
        jacobian = half * np.cos(theta) * dtheta
        pairs = [
            (
                _conditional_rows(grid_rows, base, y, c12, z, c13, q),
                np.stack([f_x_given_yz(grid_x, b, c, p) * jacobian for b, c in zip(y, z)]),
            ),
            (
                _conditional_rows(grid_rows, base, z, c23, z, c_yz, q),
                np.stack([f_yz(grid_x, c, p) * jacobian for c in z]),
            ),
        ]
        for rows, want in pairs:
            rows /= rows.sum(axis=1, keepdims=True)
            want /= want.sum(axis=1, keepdims=True)
            # Far tails reach subnormal numbers, which carry no relative digits.
            tiny = np.finfo(float).tiny
            np.testing.assert_allclose(rows, want, rtol=1e-10, atol=tiny)

    def test_deterministic(self, params):
        cfg = SamplerConfig(seed=77, n_samples=800, **FAST_3D)
        a = sample_3d(params, cfg)
        b = sample_3d(params, cfg)
        np.testing.assert_array_equal(a, b)

    def test_covariances_track_targets(self, params):
        cfg = SamplerConfig(seed=2024, n_samples=20_000, grid_points=96)
        draws = sample_3d(params, cfg)
        var_target = var_z(params.r, params.q)
        checks = [
            (lambda x, y, z: z * z, var_target),
            (lambda x, y, z: y * z, cov_yz(params)),
            (lambda x, y, z: x, 0.0),
        ]
        for fn, target in checks:
            est = mc_moment(draws, fn)
            assert abs(est.value - target) < 4 * est.std_error

    def test_marginal_distribution(self, params):
        cfg = SamplerConfig(seed=404, n_samples=20_000, grid_points=96)
        # Every one-coordinate margin is f_R(.; r, q).  Z is read straight
        # off its quantile table, so its KS distance is that of its uniforms;
        # X and Y test the two conditional draws.
        draws = sample_3d(params, cfg)
        cdf = cdf_r(params.r, params.q)
        for col in (0, 1):
            assert ks_statistic(draws[:, col], cdf) < ks_critical(draws.shape[0], alpha=0.01)

    def test_unbiased_at_strong_correlation_near_gaussian_q(self):
        # Strong correlations at near-Gaussian q: 287 kernel terms, and the
        # point where a Markov chain over the three conditionals mixes worst.
        p = ModelParams(0.9, 0.9, 0.9, 0.99)
        draws = sample_3d(p, SamplerConfig(seed=2024, n_samples=20_000, grid_points=128))
        cov = _covariance(p)
        for i, j in ((2, 2), (1, 2), (0, 1)):
            est = mc_moment(draws, lambda *v: v[i] * v[j])
            assert abs(est.value - cov[i, j]) < 3 * est.std_error, (i, j)


class TestMcMoment:
    def test_constant_series(self):
        est = mc_moment(np.full(200, 3.5), lambda x: x)
        assert isinstance(est, McEstimate)
        assert est.value == pytest.approx(3.5)
        assert est.std_error == pytest.approx(0.0, abs=1e-14)
        assert est.n == 200

    def test_multicolumn_callable(self):
        arr = np.column_stack([np.arange(100.0), np.ones(100)])
        est = mc_moment(arr, lambda a, b: a * b)
        assert est.value == pytest.approx(np.arange(100.0).mean())

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            mc_moment(np.arange(5.0), lambda x: x)

    def test_error_scale_on_iid_noise(self):
        gen = np.random.default_rng(8)
        draws = gen.normal(size=40_000)
        est = mc_moment(draws, lambda x: x)
        naive = draws.std(ddof=1) / np.sqrt(draws.size)
        assert est.std_error == pytest.approx(naive, rel=0.5)


class TestCdfHelpers:
    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5])
    def test_base_cdf_endpoints(self, q):
        cdf = cdf_fn(q)
        half = support_halfwidth(q)
        grid = np.linspace(-half, half, 301)
        vals = cdf(grid)
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_cdf_tables_use_the_fixed_grid(self):
        xs = np.linspace(-2.0, 2.0, 101)
        want = _density_tables(lambda v: f_n(v, 0.5), 0.5, 2048)[0](xs)
        assert cdf_fn(0.5)(xs).tobytes() == want.tobytes()
        with pytest.raises(TypeError):
            cdf_fn(0.5, 256)
        with pytest.raises(TypeError):
            cdf_r(0.3, 0.5, 256)

    def test_weighted_cdf_median_symmetry(self):
        cdf = cdf_r(0.3, 0.4)
        assert cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9, 0.99])
    def test_quantile_inverts_cdf(self, q):
        half = support_halfwidth(q)
        xs = np.linspace(-1.0, 1.0, 601) * min(3.0, 0.9 * half)
        theta = _base_quantile(q, 256)(_cdf_fn_256(q)(xs))
        back = half * np.sin(theta)
        np.testing.assert_allclose(back, xs, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9, 0.99, 0.999])
    def test_cdf_is_exact_pchip_integral(self, q):
        # The table is the PCHIP in the mapped angle phi, theta = arctan(eps
        # tan phi), of the density in phi, f(x) L cos(theta) dtheta/dphi.
        interpolate = pytest.importorskip("scipy.interpolate")
        half = support_halfwidth(q)
        eps = min(1.0, 8.0 / half)
        phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 256)
        theta = np.arctan2(eps * np.sin(phi), np.cos(phi))
        dtheta = eps / (np.cos(phi) ** 2 + (eps * np.sin(phi)) ** 2)
        dens = f_n(half * np.sin(theta), q) * half * np.cos(theta) * dtheta
        anti = interpolate.PchipInterpolator(phi, dens).antiderivative()
        xs = np.linspace(-half, half, 4001)
        th = np.arcsin(np.clip(xs / half, -1.0, 1.0))
        want = anti(np.arctan2(np.sin(th), eps * np.cos(th))) / anti(phi[-1])
        np.testing.assert_allclose(_cdf_fn_256(q)(xs), want, rtol=0.0, atol=1e-13)

    def test_ks_statistic_uniform(self):
        gen = np.random.default_rng(3)
        u = gen.uniform(size=5000)
        stat = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
        assert stat < ks_critical(5000, alpha=0.01)


class TestBlockwiseTables:
    """Tables are read _BLOCK points at a time; every value stays the one a
    single read of that point gives."""

    @pytest.mark.parametrize("q", [0.5, 0.999])
    def test_blocks_equal_pointwise_reads(self, q):
        half = support_halfwidth(q)
        xs = np.linspace(-1.05, 1.05, 2 * _BLOCK + 1) * half
        us = np.linspace(0.0, 1.0, 2 * _BLOCK + 1)
        for read, pts in ((_cdf_fn_256(q), xs), (_base_quantile(q, 256), us)):
            whole = read(pts)
            single = np.array([read(p) for p in pts])
            assert whole.shape == pts.shape
            assert whole.tobytes() == single.tobytes()
            edges = [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK]
            assert whole[edges].tobytes() == read(pts[edges]).tobytes()

    def test_keeps_scalar_and_2d_shapes(self):
        half = support_halfwidth(0.5)
        xs = np.linspace(-half, half, 60).reshape(6, 10)
        for read, pts in ((cdf_r(0.3, 0.5), xs), (_base_quantile(0.5, 256), xs / (2 * half) + 0.5)):
            grid = read(pts)
            assert grid.shape == (6, 10)
            assert grid.tobytes() == read(pts.ravel()).tobytes()
            point = read(pts[2, 3])
            assert point.shape == ()
            assert point == grid[2, 3]


class TestBoundedWorkingSet:
    """Peak traced memory of the table reads stays near their output; the
    unblocked reads held 10-13 point-sized arrays."""

    N = 200_000

    def test_sample_fn(self, traced_peak):
        peak, draws = traced_peak(lambda: sample_fn(0.9, SamplerConfig(seed=5, n_samples=self.N)))
        assert peak <= 3.0 * draws.nbytes

    @pytest.mark.parametrize("q", [0.5, 0.999])
    def test_cdf_and_quantile(self, q, traced_peak):
        pts = np.linspace(0.0, 1.0, self.N)
        for read in (cdf_fn(q), _base_quantile(q, 256)):
            peak, out = traced_peak(lambda: read(pts))
            assert peak <= 1.5 * out.nbytes

    def test_pchip_cdf_rows(self, traced_peak):
        phi = _phi_grid(128)
        rows = np.exp(-np.outer(np.linspace(0.5, 4.0, 256), np.sin(phi) ** 2)) * np.cos(phi)
        peak, _ = traced_peak(lambda: _pchip_cdf(rows, phi[1] - phi[0]))
        assert peak <= 4.5 * rows.nbytes


class TestKsCritical:
    @pytest.mark.parametrize(
        "alpha, value", [(0.01, 1.6276236115189504), (0.05, 1.3580986393225505)]
    )
    def test_pinned_values(self, alpha, value):
        assert ks_critical(1, alpha) == pytest.approx(value, rel=0.0, abs=1e-12)
        assert ks_critical(400, alpha) == pytest.approx(value / 20, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            ks_critical(100, alpha)


def test_package_imports_without_scipy():
    src = str(Path(qnormal3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, qnormal3d.cli\n"
        "from qnormal3d import checks, densities, moments, polynomials, quadrature, sampler\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"

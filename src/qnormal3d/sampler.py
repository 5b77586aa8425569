"""Random-variate generation for the q-Normal family.

Two generators are provided.  ``sample_fn`` draws i.i.d. variates from the
one-dimensional base density through a tabulated inverse CDF.  ``sample_3d``
draws i.i.d. triples in sequence: Z from its marginal, then Y given Z, then
X given (Y, Z).  Draws are exact up to the interpolation error of the
inverse-CDF tables (ROADMAP item 19).  Each conditional is the base density
reweighted by two Poisson-Mehler kernels, tabulated on a fixed grid and
inverted per draw.
The kernels' logs are the densities' own ``_log_w``, evaluated for a block
of rows at once on the open axes (rows, grid), so each conditional takes the
densities' one route: a few factors, then the Chebyshev series of the rest.

All randomness flows through one counter-based Philox generator keyed by the
configured seed, so a given configuration reproduces its output exactly.

Grids are uniform in the mapped angle phi of quadrature's map: x = L sin(theta)
absorbs the square-root edge of the density, and theta = arctan(eps tan phi)
keeps the grid on the Gaussian bulk as q -> 1 (the identity for q <= 15/16;
see :mod:`qnormal3d.quadrature`).  Each table row is the density in phi,
f(x) L cos(theta) dtheta/dphi.  Each CDF integrates the row's monotone cubic
(PCHIP) interpolant exactly; each quantile inverts that integral and returns
theta(phi).  Both read their table ``_BLOCK`` points at a time, so their
working set does not grow with the number of points read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import ModelParams, _given_z, _log_w, f_n, f_r
from .errors import DegenerateConditioning, InsufficientSamples
from .qcore import _check_count, _check_q, _check_rho, _check_seed, _real_points, support_halfwidth
from .quadrature import _phi_of_theta, _theta_of_phi

__all__ = [
    "SamplerConfig",
    "McEstimate",
    "sample_fn",
    "sample_3d",
    "mc_moment",
    "cdf_fn",
    "cdf_r",
    "ks_statistic",
    "ks_critical",
]

_BISECTIONS = 26
_BLOCK = 4096
# The fixed grid of cdf_fn and cdf_r: points uniform in the mapped angle.
_CDF_POINTS = 2048
_KS_TERMS = 100
_NEWTON_STEPS = 60
# Contiguous batches of mc_moment's jackknife standard error.
_N_BATCHES = 20
# Rows of one sample_3d block.  Its conditional draws hold a few
# (rows, grid_points) arrays, which set the sampler's peak memory.
_ROWS = 64


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the samplers.

    ``seed``, ``n_samples`` and ``grid_points`` are integers, Python's or
    numpy's but never bool: a seed in [0, 2**64), at least 1 draw and at
    least 64 points of inverse-CDF tabulation resolution.  ``burn_in``
    and ``n_chains`` are ignored and unchecked.  They remain only because
    the benchmark's smoke list still passes them; its revision in ROADMAP
    item 14 deletes them.
    """

    seed: int
    n_samples: int
    grid_points: int = 256
    burn_in: int = 1000
    n_chains: int = 256

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        _check_count(self.n_samples, "n_samples", 1)
        _check_count(self.grid_points, "grid_points", 64)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its batch-jackknife standard error."""

    value: float
    std_error: float
    n: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _phi_grid(grid_points: int) -> np.ndarray:
    return np.linspace(-0.5 * math.pi, 0.5 * math.pi, grid_points)


def _density_row(
    density: Callable[[np.ndarray], np.ndarray], half: float, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid points x(phi) and the density in phi, f(x) L cos theta dtheta/dphi."""
    theta, dtheta = _theta_of_phi(phi, half)
    x = half * np.sin(theta)
    return x, density(x) * half * np.cos(theta) * dtheta


def _base_quantile(q: float, grid_points: int) -> Callable[[np.ndarray], np.ndarray]:
    """Quantile function of the base density in theta: the inverse of cdf_fn."""
    return _density_tables(lambda xs: f_n(xs, q), q, grid_points)[1]


def sample_fn(q: float, cfg: SamplerConfig) -> np.ndarray:
    """I.i.d. draws from the one-dimensional base density.

    Deterministic for a fixed config: one Philox stream keyed by the seed
    feeds uniforms through the tabulated quantile function.
    """
    _check_q(q)
    half = support_halfwidth(q)
    quantile = _base_quantile(q, cfg.grid_points)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    out = quantile(gen.random(cfg.n_samples))
    np.sin(out, out=out)
    out *= half
    return out


def _pchip_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """Fritsch-Carlson (PCHIP) slopes for rows of values on a uniform grid:
    harmonic-mean interior slopes, 0 where the secants change sign, and
    Moler's limited three-point end slopes.  Rows need not be monotone."""
    d = np.diff(y, axis=1)
    d /= h
    m = np.zeros_like(y)
    left, right = d[:, :-1], d[:, 1:]
    harm = m[:, 1:-1]  # scratch for the signs, then the harmonic means
    flat = np.sign(left, out=harm) != np.sign(right)
    flat |= left == 0
    flat |= right == 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(1.0, left, out=harm)
        harm += 1.0 / right
        np.divide(2.0, harm, out=harm)
    np.copyto(harm, 0.0, where=flat)
    for end, d0, d1 in ((0, d[:, 0], d[:, 1]), (-1, d[:, -1], d[:, -2])):
        e = 1.5 * d0 - 0.5 * d1
        e = np.where(np.sign(e) != np.sign(d0), 0.0, e)
        turn = (np.sign(d0) != np.sign(d1)) & (np.abs(e) > 3.0 * np.abs(d0))
        m[:, end] = np.where(turn, 3.0 * d0, e)
    return m


def _pchip_cdf(dens: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Integral of the PCHIP of density rows up to each node, and its slopes.
    A cell adds the trapezoid rule plus h^2 (m0 - m1) / 12, which telescopes."""
    m = _pchip_slopes(dens, h)
    cdf = np.cumsum(dens, axis=1)
    tmp = np.add(dens, dens[:, :1])
    tmp *= 0.5
    cdf -= tmp
    cdf *= h
    np.subtract(m[:, :1], m, out=tmp)
    tmp *= h * h / 12.0
    cdf += tmp
    return cdf, m


def _cell_rise(
    dens: np.ndarray, m: np.ndarray, rows: np.ndarray | int, k: np.ndarray, h: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Integral h (y0 t + b t^2/2 + c t^3/3 + d t^4/4) of the cell-k cubic
    y0 + b t + c t^2 + d t^3 of the PCHIP, as a function of t in [0, 1]."""
    y0 = dens[rows, k]
    dy = dens[rows, k + 1] - y0
    b = h * m[rows, k]
    b1 = h * m[rows, k + 1]
    b2, c3, d4 = b / 2, (3.0 * dy - 2.0 * b - b1) / 3, (b + b1 - 2.0 * dy) / 4
    return lambda t: h * t * (y0 + t * (b2 + t * (c3 + t * d4)))


def _invert_rows(
    cdf: np.ndarray, dens: np.ndarray, m: np.ndarray, u: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Solve cdf_row(t) = u_row for t by bisection on the cell integral, for
    tables from :func:`_pchip_cdf` on a uniform grid, with one row per u or
    one row for all."""
    if cdf.shape[0] == 1:
        idx = np.searchsorted(cdf[0], u) - 1
    else:
        idx = np.sum(cdf < u[:, None], axis=1) - 1
    idx = np.clip(idx, 0, cdf.shape[1] - 2)
    rows = np.arange(cdf.shape[0])
    h = grid[1] - grid[0]
    rise = _cell_rise(dens, m, rows, idx, h)
    target = u - cdf[rows, idx]
    lo = np.zeros_like(target)
    hi = np.ones_like(target)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        high = rise(mid) > target
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return grid[idx] + 0.5 * (lo + hi) * h


def _conditional_draw(
    grid_x: np.ndarray, base: np.ndarray, a: np.ndarray, b: np.ndarray,
    params: ModelParams, phi: np.ndarray, half: float, u: np.ndarray,
) -> np.ndarray:
    """Draw X given (Y, Z) = (a, b) under params, one row per uniform in u.

    Each row is the base row over prod_i w(x, a | rho12 q^i) w(x, b | rho13 q^i):
    exp of minus the two ``_log_w`` sums on the open axes (rows, grid), shifted
    by each row's max so nothing overflows.  The factors and the series of
    ``_log_w`` each hold a few (rows, grid_points) arrays.
    """
    grid = grid_x[None, :]
    dens = -_log_w(grid, a[:, None], params.rho12, params.q)
    dens -= _log_w(grid, b[:, None], params.rho13, params.q)
    dens -= np.max(dens, axis=1, keepdims=True)
    np.exp(dens, out=dens)
    dens *= base
    h = phi[1] - phi[0]
    cdf, m = _pchip_cdf(dens, h)
    total = cdf[:, -1]
    if np.any(total <= 0.0) or not np.all(np.isfinite(total)):
        raise DegenerateConditioning(
            "conditional mass vanished on the sampling grid"
        )
    new_phi = _invert_rows(cdf, dens, m, u * total, phi)
    return half * np.sin(_theta_of_phi(new_phi, half)[0])


def sample_3d(p: ModelParams, cfg: SamplerConfig) -> np.ndarray:
    """I.i.d. draws from the three-dimensional law, shape (n_samples, 3).

    Each block of ``_ROWS`` rows draws Z from its marginal f_R(.; r, q), then
    Y | Z, which is X | (Y, Z) = (z, z) under ``_given_z``, then X | (Y, Z).
    One Philox stream keyed by the seed feeds every block, so fixed seeds
    reproduce the output array exactly.
    """
    q = p.q
    half = support_halfwidth(q)
    phi = _phi_grid(cfg.grid_points)
    grid_x, base = _density_row(lambda xs: f_n(xs, q), half, phi)
    z_quantile = _density_tables(lambda xs: f_r(xs, p.r, q), q, cfg.grid_points)[1]

    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    out = np.empty((cfg.n_samples, 3))
    for start in range(0, cfg.n_samples, _ROWS):
        rows = out[start : start + _ROWS]
        u = gen.random((3, rows.shape[0]))
        z = half * np.sin(z_quantile(u[0]))
        y = _conditional_draw(grid_x, base, z, z, _given_z(p), phi, half, u[1])
        rows[:, 0] = _conditional_draw(grid_x, base, y, z, p, phi, half, u[2])
        rows[:, 1] = y
        rows[:, 2] = z
    return out


def mc_moment(
    samples: Sequence[float] | np.ndarray, g: Callable[..., np.ndarray]
) -> McEstimate:
    """Sample mean of g with a jackknife-over-batches standard error.

    ``g`` receives one array per sample coordinate (one to three).  The
    standard error comes from leave-one-out recombination of ``_N_BATCHES``
    contiguous batches.  For i.i.d. draws it estimates the plain standard
    error; it needs no variance formula per statistic and stays valid for
    draws correlated within a batch.
    """
    arr = _real_points(samples, "samples")
    if arr.ndim not in (1, 2):
        raise ValueError(f"samples must be 1-D or 2-D, got shape {arr.shape}")
    n = arr.shape[0]
    if n < _N_BATCHES:
        raise InsufficientSamples(
            f"need at least {_N_BATCHES} draws for {_N_BATCHES} batches, got {n}"
        )
    vals = g(arr) if arr.ndim == 1 else g(*(arr[:, i] for i in range(arr.shape[1])))
    vals = _real_points(vals, "values of g")
    if vals.shape != (n,):
        raise ValueError(f"g must map {n} samples to {n} values, got {vals.shape}")
    total = float(np.sum(vals))
    mean = total / n
    batches = np.array_split(vals, _N_BATCHES)
    sizes = np.array([len(b) for b in batches], dtype=float)
    sums = np.array([np.sum(b) for b in batches])
    loo = (total - sums) / (n - sizes)
    loo_bar = float(np.mean(loo))
    var = (_N_BATCHES - 1) / _N_BATCHES * float(np.sum((loo - loo_bar) ** 2))
    return McEstimate(value=mean, std_error=math.sqrt(var), n=n)


def cdf_fn(q: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of the one-dimensional base density, tabulated at ``_CDF_POINTS`` angles."""
    _check_q(q)
    return _density_tables(lambda xs: f_n(xs, q), q, _CDF_POINTS)[0]


def cdf_r(r: float, q: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of the one-coordinate marginal with ratio r, tabulated at ``_CDF_POINTS`` angles."""
    _check_rho(r, "r")
    _check_q(q)
    return _density_tables(lambda xs: f_r(xs, r, q), q, _CDF_POINTS)[0]


def _density_tables(
    density: Callable[[np.ndarray], np.ndarray], q: float, grid_points: int
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """CDF in x and quantile function in theta of a density, both read from
    the running integral of its PCHIP in phi, so one inverts the other."""
    half = support_halfwidth(q)
    phi = _phi_grid(grid_points)
    h = phi[1] - phi[0]
    dens = _density_row(density, half, phi)[1][None, :]
    table, m = _pchip_cdf(dens, h)
    total = table[0, -1]

    def cdf(xs: np.ndarray) -> np.ndarray:
        th = np.arcsin(np.clip(xs / half, -1.0, 1.0))
        ph = _phi_of_theta(th, half)
        k = np.clip(np.searchsorted(phi, ph, side="right") - 1, 0, grid_points - 2)
        rise = _cell_rise(dens, m, 0, k, h)((ph - phi[k]) / h)
        return np.clip((table[0, k] + rise) / total, 0.0, 1.0)

    def quantile(u: np.ndarray) -> np.ndarray:
        phi_u = _invert_rows(table, dens, m, u * total, phi)
        return _theta_of_phi(phi_u, half)[0]

    return (lambda xs: _blockwise(cdf, xs)), (lambda u: _blockwise(quantile, u))


def _blockwise(fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """An elementwise table read fn applied ``_BLOCK`` points at a time into
    one float array of the input's shape, so fn's temporaries (seven cell
    coefficients and the bisection state per point) stay block-sized."""
    xs = _real_points(xs, "points")
    out = np.empty(xs.shape)
    flat_in, flat_out = xs.reshape(-1), out.reshape(-1)
    for start in range(0, flat_in.shape[0], _BLOCK):
        flat_out[start : start + _BLOCK] = fn(flat_in[start : start + _BLOCK])
    return out


def ks_statistic(
    samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Two-sided Kolmogorov-Smirnov distance of 1-D samples from a CDF."""
    if np.ndim(samples) != 1:
        raise ValueError(f"samples must be 1-D, got shape {np.shape(samples)}")
    xs = np.sort(_real_points(samples, "samples"))
    n = xs.shape[0]
    if n == 0:
        raise InsufficientSamples("need at least one sample")
    fv = cdf(xs)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - fv), np.max(fv - (grid - 1.0 / n))))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic critical KS distance at level alpha for n samples.

    Newton's method on the Kolmogorov tail 2 sum_k (-1)^(k-1) e^(-2 k^2 x^2)
    = alpha from its one-term root; relative error below 1e-13 for alpha <= 0.999.
    """
    _check_count(n, "n", 1)
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be a real number in (0, 1), got {alpha!r}")
    k = np.arange(1, _KS_TERMS + 1)
    x = math.sqrt(0.5 * (math.log(2.0) - math.log(alpha)))
    for _ in range(_NEWTON_STEPS):
        terms = (-1.0) ** (k - 1) * np.exp(-2.0 * (k * x) ** 2)
        slope = -8.0 * x * float(np.sum(k * k * terms))
        if slope == 0.0:  # the tail underflowed, where the one-term root is exact
            break
        step = (2.0 * float(np.sum(terms)) - alpha) / slope
        x = min(max(x - step, 0.5 * x), 2.0 * x)
        if abs(step) <= 1e-15 * x:
            break
    return x / math.sqrt(n)

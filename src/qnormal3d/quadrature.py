"""The midpoint rule in a mapped angle over the support interval.

With half-width L = 2/sqrt(1-q), substituting x = L sin(theta) turns
f(x) dx into f(L sin theta) L cos theta dtheta on [-pi/2, pi/2].  The angle
is then mapped once more, theta = arctan(eps tan phi) with
eps = min(1, MAP_SCALE / L), and a level of n nodes puts them at the
midpoints phi_k = -pi/2 + (k + 1/2) pi/n with weights
(pi/n) L cos(theta_k) dtheta/dphi(phi_k).

Why the map: as q -> 1 the densities tend to the standard Gaussian while L
grows like 2/sqrt(1-q), so in theta their bulk narrows to a width of about
1/L and a grid uniform in theta spends most of its nodes on the tails.
Near phi = 0 the map is x ~ MAP_SCALE tan(phi), the usual spectral map for
Gaussian-decaying functions on the line (Boyd, Chebyshev and Fourier
Spectral Methods, ch. 17), so the bulk |x| < MAP_SCALE keeps the same nodes
at every q and the level needed stops growing as q -> 1.  eps is 1 for
every q <= 15/16, where the map is the identity and the rule is the plain
midpoint rule in theta, bit for bit.  The map is an analytic map of the
circle onto itself, so an integrand smooth and periodic in theta stays so
in phi; the grid thins by up to 1/eps at the edge of the support, so an
integrand concentrated there may take more levels, under the same error
control.

Integrand class: one edge factor sqrt(4 - (1-q) x^2) = 2 cos(theta) in
each coordinate, as every density of this package carries, times smooth
functions (polynomials, kernels, conditional densities of another
coordinate).  With theta = pi/2 - e the integrand is then sin^2(e) times
a smooth even function of e at both ends, so it is smooth, even and
periodic in theta (and in phi), and on such functions the midpoint rule
converges exponentially (Trefethen and Weideman, SIAM Review 56, 2014).  With an
even number of edge factors in one coordinate it is odd in e there and
the levels converge algebraically: like n^-4 for a product of two
densities (f_N(x)^2, or an overlap of two densities in x), which
therefore takes more levels, and like n^-2 for a constant, which in
general ends in NonConvergence, as a jump inside the support does.

Error control starts from one panel of QUAD_ORDER nodes, doubles the panel
count per axis and compares the two levels.  A level is accepted when
max|cur - prev| <= tol * max(1, max|cur|): the absolute tolerance for
values of size at most 1 and the relative one above, so a large integral
settles as well as a small one.  The difference is the reported error
estimate.  The tolerances and panel caps per dimension are the module
constants below.

Integrands must accept numpy arrays.  Multi-dimensional integrators pass
open (broadcastable) coordinate axes, so an integrand built from the
density functions in this package evaluates on the tensor grid without
materializing redundant copies.

Memory contract: integrate3d evaluates a generic integrand one x-panel at
a time, so one level of n nodes per axis holds one QUAD_ORDER x n x n
float64 slab (1.0 MB at 64^3, where the densities of the package settle
for q <= 0.9 and, through the angle map, up to q = 0.999; 4.2 MB at 128^3;
16.8 MB at 256^3, the finest level integrate3d tries).  The densities
build that slab as their only slab-sized object: each of their factors
depends on two coordinates, so it is at most n^2-sized.  A cycle
a(x, y) b(y, z) c(z, x) of such factors, as f_3d's product form is, needs
no slab: _integrate_cycle sums a level from three n x n tables and one
matrix product (at most 0.27 MB at 64 nodes for q <= 0.9).  On a 2-D grid
the factors are themselves grid-sized; a kernel holds its running sum and
one term while it runs.

Every weighted sum, matrix products included, is an np.einsum with its
default optimize=False, which runs numpy's own C loops and never BLAS.  A
BLAS GEMM picks its kernel by CPU, so its last digits (and the printed
output) would change with the machine, and its first call pages the
kernel's code into the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence
from .qcore import _check_count, _check_q, support_halfwidth

__all__ = [
    "IntegralResult",
    "integrate1d",
    "integrate2d",
    "integrate3d",
    "gram_matrix",
]

# Midpoint nodes per panel, the convergence tolerance on the change
# between two levels, and the largest panel count per axis tried.
QUAD_ORDER = 32
QUAD_TOL_1D = 1e-10
QUAD_TOL_2D = 1e-8
QUAD_TOL_3D = 1e-6
MAX_PANELS_1D = 256
MAX_PANELS_2D = 64
MAX_PANELS_3D = 8
# Half-width in x that the angle map keeps at the resolution of the plain
# rule: near phi = 0 the map is x ~ MAP_SCALE tan(phi).  Its eps =
# min(1, MAP_SCALE / L) is exactly 1 for every q <= 15/16.
MAP_SCALE = 8.0


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    panels_used: int


def _theta_of_phi(
    phi: np.ndarray, half: float
) -> tuple[np.ndarray, np.ndarray | float]:
    """theta = arctan(eps tan phi) and d theta / d phi = eps / (cos^2 phi +
    eps^2 sin^2 phi) on [-pi/2, pi/2], for half-width L = half; phi itself
    and 1.0 when eps = 1."""
    eps = min(1.0, MAP_SCALE / half)
    if eps == 1.0:
        return phi, 1.0
    c, s = np.cos(phi), eps * np.sin(phi)
    return np.arctan2(s, c), eps / (c * c + s * s)


def _phi_of_theta(theta: np.ndarray, half: float) -> np.ndarray:
    """The inverse map phi = arctan(tan theta / eps); theta itself when eps = 1."""
    eps = min(1.0, MAP_SCALE / half)
    if eps == 1.0:
        return theta
    return np.arctan2(np.sin(theta), eps * np.cos(theta))


def _axis(q: float, panels: int):
    """One axis of QUAD_ORDER * panels midpoint nodes in phi and their
    Jacobian-absorbed weights over the support."""
    _check_q(q)
    half = support_halfwidth(q)
    n = QUAD_ORDER * panels
    step = math.pi / n
    # (k - (n-1)/2) is an exact half-integer, so the nodes are exactly
    # symmetric about 0.
    theta, dtheta = _theta_of_phi((np.arange(n) - 0.5 * (n - 1)) * step, half)
    return half * np.sin(theta), (step * half) * np.cos(theta) * dtheta


def _value_1d(f: Callable, q: float, panels: int) -> float:
    x, w = _axis(q, panels)
    return float(np.sum(np.asarray(f(x)) * w))


def _value_2d(f: Callable, q: float, panels: int) -> float:
    x, w = _axis(q, panels)
    vals = np.asarray(f(x[:, None], x[None, :]))
    return float(np.einsum("ij,i,j->", vals, w, w))


def _value_3d(f: Callable, q: float, panels: int) -> float:
    """One level, summed one x-panel at a time so that only one
    QUAD_ORDER x n x n slab of values exists at once."""
    x, w = _axis(q, panels)
    y, z = x[None, :, None], x[None, None, :]
    total = 0.0
    for s in range(0, len(x), QUAD_ORDER):
        panel = slice(s, s + QUAD_ORDER)
        vals = np.asarray(f(x[panel, None, None], y, z))
        total += float(np.einsum("ijk,i,j,k->", vals, w[panel], w, w))
        del vals  # before the next slab is built
    return total


def _value_cycle(a: Callable, b: Callable, c: Callable, q: float, panels: int) -> float:
    """One level of exp(a(x, y) + b(y, z) + c(z, x)) over the cube from
    n x n tables: with the factor tables A, B, C and the weights w, the
    triple sum is sum_ik w_i M_ik w_k C_ki with M = (A w) @ B.  Both sums
    are einsums, not `@`, so they run in numpy's loops (module docstring)."""
    x, w = _axis(q, panels)
    row, col = x[:, None], x[None, :]
    m = np.einsum("ij,j,jk->ik", np.exp(a(row, col)), w, np.exp(b(row, col)))
    m *= np.exp(c(row, col)).T
    return float(np.einsum("i,ik,k->", w, m, w))


def _refine(value_at, tol: float, max_panels: int) -> IntegralResult:
    """Double the panel count until two levels (scalars or arrays) agree
    within tol scaled by max(1, max|cur|); a level that is not finite raises."""

    def level(panels: int):
        with np.errstate(over="ignore", invalid="ignore"):
            value = value_at(panels)
        if not np.all(np.isfinite(value)):
            raise NonConvergence(f"quadrature level is not finite at {panels} panel(s) per axis")
        return value

    panels = 1
    prev = level(panels)
    while panels * 2 <= max_panels:
        panels *= 2
        cur = level(panels)
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol * max(1.0, float(np.max(np.abs(cur)))):
            return IntegralResult(cur, err, panels)
        prev = cur
    raise NonConvergence(
        f"quadrature did not reach tol={tol} within {max_panels} panels per axis"
    )


def integrate1d(f: Callable, q: float) -> IntegralResult:
    """Integrate f over the support interval with panel-doubling control.

    f should carry one edge factor in x, the module's integrand class; with
    none the levels converge only like n^-2, which at QUAD_TOL_1D in
    general ends in NonConvergence, and with two like n^-4.
    """
    return _refine(lambda p: _value_1d(f, q, p), QUAD_TOL_1D, MAX_PANELS_1D)


def integrate2d(f: Callable, q: float) -> IntegralResult:
    """Integrate f(x, y) over the support square; f should carry one edge
    factor in each coordinate."""
    return _refine(lambda p: _value_2d(f, q, p), QUAD_TOL_2D, MAX_PANELS_2D)


def integrate3d(f: Callable, q: float) -> IntegralResult:
    """Integrate f(x, y, z) over the support cube; f should carry one edge
    factor in each coordinate."""
    return _refine(lambda p: _value_3d(f, q, p), QUAD_TOL_3D, MAX_PANELS_3D)


def _integrate_cycle(a: Callable, b: Callable, c: Callable, q: float) -> IntegralResult:
    """Integrate exp(a(x, y) + b(y, z) + c(z, x)) over the support cube
    under integrate3d's error control, holding only n x n arrays.

    a, b and c return the logs of the three factors on open axes; each
    factor should carry one edge factor in its first coordinate.
    """
    return _refine(lambda p: _value_cycle(a, b, c, q, p), QUAD_TOL_3D, MAX_PANELS_3D)


def gram_matrix(
    poly_values: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    n_max: int,
    q: float,
) -> np.ndarray:
    """Matrix of pairwise integrals of a polynomial family against a weight.

    poly_values(x) must return the stacked values with shape (n_max+1, len(x));
    weight(x) returns the density at the nodes.  The levels are refined as
    for integrate1d, with the largest entry movement as the change between
    two levels.  The result is symmetrized, so G == G.T exactly.
    """
    _check_count(n_max, "n_max")

    def level(panels: int) -> np.ndarray:
        x, w = _axis(q, panels)
        v = np.asarray(poly_values(x))
        if v.shape != (n_max + 1, len(x)):
            raise ValueError("poly_values must return shape (n_max+1, npoints)")
        c = np.asarray(weight(x)) * w
        g = np.einsum("ij,j,kj->ik", v, c, v)
        return 0.5 * (g + g.T)

    return _refine(level, QUAD_TOL_1D, MAX_PANELS_1D).value

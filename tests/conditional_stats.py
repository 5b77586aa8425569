"""The sampler's conditionals checked against the paper's conditional moments.

For n = 1..3 the residuals R_n = H_n(X) - E(H_n(X) | Y, Z) and
S_n = H_n(Y) - E(H_n(Y) | Z) have conditional mean 0, so R_n H_k(Y) H_l(Z)
(k, l <= 2) and S_n H_l(Z) (l <= 2) have mean 0 as well: 36 statistics,
each the batch-jackknife t of ``mc_moment``.  The closed forms share no code
with the sampler's kernels, so they test its conditionals independently.
"""

import numpy as np

from qnormal3d.densities import _given_z
from qnormal3d.moments import cond_exp_hn_x_given_yz
from qnormal3d.polynomials import q_hermite
from qnormal3d.sampler import mc_moment

# Two-sided Bonferroni bound over the 36 t-statistics at overall level 0.001,
# each with 19 degrees of freedom (20 jackknife batches):
# scipy.stats.t.ppf(1 - 0.001 / 72, 19) = 5.4758.
T_BOUND = 5.48


def conditional_moment_t(draws: np.ndarray, p) -> np.ndarray:
    """The 36 t-statistics of the conditional-moment residuals of (X, Y, Z) draws."""
    x, y, z = draws.T
    hx, hy, hz = (q_hermite(3, v, p.q).values for v in (x, y, z))
    tests = []
    for n in range(1, 4):
        r = hx[n] - cond_exp_hn_x_given_yz(n, y, z, p)
        s = hy[n] - cond_exp_hn_x_given_yz(n, z, z, _given_z(p))
        tests += [r * hy[k] * hz[l] for k in range(3) for l in range(3)]
        tests += [s * hz[l] for l in range(3)]
    estimates = [mc_moment(v, lambda col: col) for v in tests]
    return np.array([est.value / est.std_error for est in estimates])

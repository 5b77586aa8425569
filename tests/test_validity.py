"""The package's one validity rule and the CLI exit code of each error.

Every parameter (q, each rho, r) is a real number of absolute value below
1, every degree, size and seed is an integer (numpy's too, never a bool) at
least its lower bound, and every conditioning point lies in the support;
NaN fails both.  Each public entry
below must raise the documented error rather than return NaN or leak a
Python exception, and the CLI must map each error to its documented code.
"""

import math
from functools import partial

import numpy as np
import pytest

from qnormal3d import errors
from qnormal3d import moments as mm
from qnormal3d import polynomials as pl
from qnormal3d import qcore
from qnormal3d.checks import _worst, run_suite
from qnormal3d.cli import EXIT_CODES, main
from qnormal3d.densities import (
    DensityForm,
    MarginalForm,
    ModelParams,
    aw_parameters,
    f_3d,
    f_cn,
    f_n,
    f_r,
    f_x_given_yz,
    f_z,
    omega,
    pm_kernel,
)
from qnormal3d.errors import DomainError
from qnormal3d.qcore import support_halfwidth
from qnormal3d.quadrature import gram_matrix
from qnormal3d.sampler import (
    McEstimate,
    SamplerConfig,
    cdf_fn,
    cdf_r,
    ks_critical,
    ks_statistic,
    mc_moment,
    sample_fn,
)

NAN = math.nan
P = ModelParams(0.3, 0.6, 0.3, 0.5)
DOUBLE_SUM = mm.CondMomentForm.DOUBLE_SUM

# (entry, arguments, error): one row per public entry and invalid input.  The
# ids are positional, so a row that loses its subject is replaced, not deleted.
INVALID = [
    (mm.MomentSpec, (mm.MomentKind.COND_Y_GIVEN_Z, (1,), P, (NAN,)), DomainError),
    (mm.cond_exp_hn_x_given_yz, (2, NAN, 0.1, P, DOUBLE_SUM), DomainError),
    (mm.cond_exp_hn_x_given_yz, (2, 0.1, NAN, P), DomainError),
    (mm.cond_exp_x_given_yz, (NAN, 0.1, P), DomainError),
    (mm.cond_exp_hn_y_given_z, (2, NAN, P), DomainError),
    (mm.cond_exp_y_given_z, (NAN, P), DomainError),
    (mm.cond_exp_y2_given_z, (NAN, P), DomainError),
    (mm.cond_exp_xy_given_z, (NAN, P), DomainError),
    (aw_parameters, (NAN, 0.1, P), DomainError),
    (pm_kernel, (0.1, 0.2, 0.3, 0.5, DensityForm.CLOSED), ValueError),
    (support_halfwidth, (NAN,), ValueError),
]
# var_z and e_h2n_z take (r, q); the moments of X given (Y, Z) read
# (rho12, rho13, q) from ModelParams, which rejects each triple below.  A
# partial among the arguments is built inside the raises block.
for r, q in ((NAN, 0.5), (1.0, 0.5), (0.1, NAN), (0.1, 1.0)):
    INVALID += [(mm.var_z, (r, q), ValueError), (mm.e_h2n_z, (1, r, q), ValueError)]
for rho12, rho13, q in (
    (NAN, 0.2, 0.5), (0.1, NAN, 0.5), (1.0, 1.0, 0.5), (0.1, -1.0, 0.5), (0.1, 0.2, 1.0)
):
    params = partial(ModelParams, rho12, rho13, 0.0, q)
    INVALID += [
        (mm.cond_exp_x_given_yz, (1.0, 1.0, params), ValueError),
        (mm.cond_exp_hn_x_given_yz, (2, 1.0, 1.0, params), ValueError),
        (mm.cond_exp_hn_x_given_yz, (2, 1.0, 1.0, params, DOUBLE_SUM), ValueError),
    ]
# omega is a polynomial, so it checks q and rho but not the support.  Then
# the unknown-form and negative-degree raises that no other test reaches.
INVALID += [
    (omega, (0.1, 0.2, 2.0, 5.0), ValueError),
    (omega, (0.1, 0.2, 2.0, 0.5), ValueError),
    (omega, (0.1, 0.2, 0.5, NAN), ValueError),
    (f_3d, (0.1, 0.2, 0.3, P, MarginalForm.ROGERS), ValueError),
    (f_z, (0.1, 0.3, 0.5, DensityForm.PRODUCT), ValueError),
    (mm.e_h2n_z, (-1, 0.3, 0.5), ValueError),
    (mm.cond_exp_hn_x_given_yz, (-1, 0.1, 0.2, P), ValueError),
    (mm.mixed_moment_h, (-1, 0, P), ValueError),
]


def _f_n_half(x):
    return f_n(x, 0.5)


QHERMITE = pl.FAMILIES["qhermite"]
UNCONDITIONAL = mm.MomentKind.UNCONDITIONAL
# (entry, arguments with the count as a one-argument function, lower bound):
# every degree, size and seed an entry takes.  A float, a bool and a string
# are not integers, and one below the lower bound (-1 for a degree) is out
# of range.  q_binomial and triple_product_integral read a negative index as
# a zero coefficient, and a seed outside [0, 2**64) has its own message, so
# they have no bound here.
COUNTS = [
    (qcore.q_number, lambda n: (n, 0.5), 0),
    (qcore.q_factorial, lambda n: (n, 0.5), 0),
    (qcore.q_pochhammer, lambda j: (0.3, 0.5, j), 0),
    (qcore.q_binomial, lambda n: (n, 1, 0.5), None),
    (qcore.q_binomial, lambda k: (3, k, 0.5), None),
    (pl.q_hermite, lambda n: (n, 0.1, 0.5), 0),
    (pl.asc_poly, lambda n: (n, 0.1, 0.2, 0.3, 0.5), 0),
    (pl.rogers_monic, lambda n: (n, 0.1, 0.3, 0.5), 0),
    (pl.hermite_prob, lambda n: (n, 0.1), 0),
    (pl.triple_product_integral, lambda k: (k, 1, 1, 0.5), None),
    (pl.triple_product_integral, lambda m: (2, m, 1, 0.5), None),
    (pl.triple_product_integral, lambda n: (2, 1, n, 0.5), None),
    (QHERMITE.values, lambda n: (n, 0.1, 0.5), 0),
    (QHERMITE.norms, lambda n: (n, 0.5), 0),
    (gram_matrix, lambda n: (lambda x: QHERMITE.values(n, x, 0.5), _f_n_half, n, 0.5), 0),
    (mm.MomentSpec, lambda d: (UNCONDITIONAL, (d,), P), 0),
    (mm.MomentSpec, lambda d: (UNCONDITIONAL, (1, d), P), 0),
    (mm.e_h2n_z, lambda n: (n, 0.3, 0.5), 0),
    (mm.mixed_moment_h, lambda m: (m, 1, P), 0),
    (mm.mixed_moment_h, lambda n: (1, n, P), 0),
    (mm.cond_exp_hn_x_given_yz, lambda n: (n, 0.1, 0.2, P), 0),
    (SamplerConfig, lambda seed: (seed, 64), None),
    (SamplerConfig, lambda n: (1, n), 1),
    (SamplerConfig, lambda grid: (1, 64, grid), 64),
    (ks_critical, lambda n: (n,), 1),
    (run_suite, lambda seed: ("limits", P, seed), None),
]
for entry, make, least in COUNTS:
    bad = [1.5, True, "2"] + ([] if least is None else [least - 1])
    INVALID += [(entry, make(value), ValueError) for value in bad]
# (entry, arguments with the real as a one-argument function): every q, rho
# and r an entry takes.  A complex number and a string are not reals.
REALS = [
    (ModelParams, lambda rho: (rho, 0.4, 0.5, 0.5)),
    (ModelParams, lambda rho: (0.3, 0.4, rho, 0.5)),
    (ModelParams, lambda q: (0.3, 0.4, 0.5, q)),
    (mm.var_z, lambda r: (r, 0.5)),
    (mm.e_h2n_z, lambda q: (1, 0.3, q)),
    (f_n, lambda q: (0.1, q)),
    (f_cn, lambda rho: (0.1, 0.2, rho, 0.5)),
    (f_r, lambda beta: (0.1, beta, 0.5)),
    (f_z, lambda r: (0.1, r, 0.5)),
    (omega, lambda rho: (0.1, 0.2, rho, 0.5)),
    (pm_kernel, lambda q: (0.1, 0.2, 0.3, q)),
    (support_halfwidth, lambda q: (q,)),
]
for entry, make in REALS:
    INVALID += [(entry, make(value), ValueError) for value in (0.3 + 0j, "0.3")]
# The sample shapes the statistics document: 1-D samples for the KS
# distance, 1-D or 2-D for a Monte Carlo mean, scalar points for the
# Askey-Wilson parameters.
INVALID += [
    (ks_statistic, (np.ones((3, 3)), cdf_fn(0.5)), ValueError),
    (mc_moment, (np.float64(1.0), lambda x: x), ValueError),
    (aw_parameters, (np.array([0.1, 0.2]), 0.1, P), ValueError),
    (aw_parameters, (0.1, np.array([0.1, 0.2]), P), ValueError),
]
# Every evaluation and conditioning point is a real number: a complex point
# lies inside [-L, L] by its modulus, so the support test alone passes it.
# Then alpha, the one real that is a level rather than a parameter.
INVALID += [
    (mm.cond_exp_x_given_yz, (0.3 + 0j, 0.1, P), ValueError),
    (mm.cond_exp_y_given_z, (0.3 + 0j, P), ValueError),
    (mm.MomentSpec, (mm.MomentKind.COND_Y_GIVEN_Z, (1,), P, (0.3 + 0j,)), ValueError),
    (f_n, (0.3 + 0j, 0.5), ValueError),
    (pl.q_hermite, (2, 0.3 + 0j, 0.5), ValueError),
    (pl.asc_poly, (2, 0.1, 0.3 + 0j, 0.3, 0.5), ValueError),
    (f_x_given_yz, (0.1, 0.3 + 0j, 0.1, P), ValueError),
    (mm.cond_exp_hn_x_given_yz, (2, 0.1, 0.3 + 0j, P), ValueError),
    (aw_parameters, (0.3 + 0j, 0.1, P), ValueError),
    (ks_critical, (10, "0.1"), ValueError),
]


def _cdf_fn_half(x):
    return cdf_fn(0.5)(x)


# Samples and table points are real too: numpy would drop an imaginary part
# with a warning and read None as NaN.  Then the documented shape, sign and
# emptiness raises of the statistics, the Gram matrix and the check rows.
INVALID += [
    (mc_moment, (np.full(30, 0.5 + 1j), lambda x: x), ValueError),
    (mc_moment, ([None] * 30, lambda x: x), ValueError),
    (ks_statistic, (np.full(30, 0.5 + 1j), cdf_fn(0.5)), ValueError),
    (_cdf_fn_half, (np.array([0.5 + 1j]),), ValueError),
    (mc_moment, (np.ones(30), lambda x: np.ones(3)), ValueError),
    (McEstimate, (0.0, -1.0, 5), ValueError),
    (ks_statistic, (np.array([]), cdf_fn(0.5)), errors.InsufficientSamples),
    (gram_matrix, (lambda x: np.ones(3), _f_n_half, 2, 0.5), ValueError),
    (_worst, ("x", [], 1.0), ValueError),
]
# What g returns is read like the samples: numpy would drop an imaginary
# part with a warning and read None as NaN.
INVALID += [
    (mc_moment, (np.full(30, 0.5), lambda x: x + 1j), ValueError),
    (mc_moment, (np.full(30, 0.5), lambda x: [None] * 30), ValueError),
]
# The tables check q (and r) before they read the support half-width, which
# is inf at q = 1; the q-Pochhammer logarithm and the triple product take
# the rule too, and the rule's complex and string reals.
INVALID += [
    (cdf_fn, (1.0,), ValueError),
    (cdf_r, (0.3, 1.0), ValueError),
    (qcore.log_q_pochhammer_inf, (0.5, NAN), ValueError),
    (qcore.log_q_pochhammer_inf, (0.5j, 0.5), ValueError),
    (qcore.log_q_pochhammer_inf, (0.5, 1.5), ValueError),
    (pl.triple_product_integral, (1, 1, 2, NAN), ValueError),
    (pl.triple_product_integral, (1, 1, 2, 2.0), ValueError),
]
for entry, make in (
    (qcore.log_q_pochhammer_inf, lambda a: (a, 0.5)),
    (qcore.log_q_pochhammer_inf, lambda q: (0.5, q)),
    (pl.triple_product_integral, lambda q: (1, 1, 2, q)),
):
    INVALID += [(entry, make(value), ValueError) for value in (0.3 + 0j, "0.3")]


@pytest.mark.parametrize(
    "entry, args, error",
    INVALID,
    ids=[f"{fn.__name__}{i}" for i, (fn, _, _) in enumerate(INVALID)],
)
def test_invalid_input_raises_documented_error(entry, args, error):
    with pytest.raises(error):
        entry(*(a() if isinstance(a, partial) else a for a in args))


@pytest.mark.parametrize(
    "entry, make, least", COUNTS, ids=[f"{fn.__name__}{i}" for i, (fn, _, _) in enumerate(COUNTS)]
)
def test_numpy_integer_counts_are_accepted(entry, make, least):
    # Degrees and sizes as np.int64, seeds (the rows whose count is named
    # seed) as np.uint64: the value the same Python integer gives, bit for bit.
    n = 64 if least == 64 else 2
    numpy_int = np.uint64 if make.__code__.co_varnames[0] == "seed" else np.int64
    got, want = entry(*make(numpy_int(n))), entry(*make(n))
    if entry is SamplerConfig:
        got, want = sample_fn(0.5, got), sample_fn(0.5, want)
    elif entry is mm.MomentSpec:
        got, want = mm.closed_form(got), mm.closed_form(want)
    elif entry is run_suite:
        got, want = [r.lhs for r in got], [r.lhs for r in want]
    elif isinstance(got, pl.PolySequence):
        got, want = got.values, want.values
    assert np.array_equal(got, want)


def test_complex_rho_is_named_not_ranged():
    # |0.3+0j| < 1, so the message names the kind of number, not the range.
    with pytest.raises(ValueError, match="rho12 must be a real number"):
        ModelParams(0.3 + 0j, 0.4, 0.5, 0.5)


def test_every_error_has_its_documented_exit_code():
    documented = {
        ValueError: 2,
        errors.DomainError: 2,
        errors.DegenerateConditioning: 2,
        errors.DegenerateRecurrence: 2,
        errors.NonConvergence: 3,
        errors.InsufficientSamples: 4,
    }
    assert set(errors.QNormalError.__subclasses__()) <= set(EXIT_CODES)
    assert EXIT_CODES == documented


@pytest.mark.parametrize(
    "argv",
    [
        "moments --kind cond_y --q 0.5 --rho 0.3,0.6,0.3 --n 2 --z nan".split(),
        "eval fXgYZ --q 0.5 --y 0 --z 2.82842712474619".split(),
        "gram --family rogers --q 0.5 --r 1".split(),
        "gram --family rogers --q 0.5 --r 0.9999999999999999".split(),
        "gram --family qhermite --q 0.5 --nmax -1".split(),
        "moments --kind cond_y --q 0.5 --rho 0.3,0.6,0.3 --n 2 --z 2.82842712474619".split(),
        "moments --kind cond_xy --q 0.5 --m 2 --n 3".split(),
        "eval fN --q 0.5 --form rogers".split(),
        "eval pmKernel --q 0.5 --form closed".split(),
        "limits --q-seq 0.9,1".split(),
        "limits --q-seq 0.9,nan".split(),
        "check poisson-mehler --rho 0.3,0.6,-0.6 --q 0.5 --seed -3".split(),
        "sample --n 0".split(),
        "sample --grid-points 32".split(),
        "moments --kind eh2n_z --q 0.5 --r 0.3 --n -1".split(),
        "moments --kind mixed --q 0.5 --m -1 --n 1".split(),
        "moments --kind cond_x --q 0.5 --n -2".split(),
        "gram --family asc --q 0.5 --nmax -1".split(),
    ],
    ids=[
        "nan-point",
        "degenerate-conditioning",
        "rogers-r-at-bound",
        "degenerate-recurrence",
        "negative-degree",
        "zero-density-point",
        "product-moment-degrees",
        "form-of-a-density-without-routes",
        "form-the-density-lacks",
        "limits-q-at-bound",
        "limits-q-nan",
        "negative-seed",
        "no-draws",
        "too-few-grid-points",
        "negative-half-degree",
        "negative-mixed-degree",
        "negative-conditional-degree",
        "negative-gram-degree",
    ],
)
# A warning is an error here: numpy's warnings would print lines of their own
# on stderr outside pytest, ahead of the one error line.
@pytest.mark.filterwarnings("error")
def test_cli_invalid_input_exits_2_with_one_error_line(argv, capsys):
    assert _exit_code_with_one_error_line(argv, capsys) == 2


def _exit_code_with_one_error_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return code


@pytest.mark.parametrize(
    "argv",
    [
        "moments --kind eh2n_z --q 0.9 --r 0.5 --n 300".split(),
        "gram --family qhermite --q 0.9 --nmax 400".split(),
        "eval fZ --q 0.999 --r 0.9 --form hermite-series --grid -60:60:5".split(),
        "eval fZ --q 0.999 --r 0.06 --form even-series --grid -60:60:5".split(),
        "eval f3D --q 0.999 --form series --rho 0.9,0.9,0.9 --grid -60:60:3".split(),
        "moments --kind mixed --q 0.99 --rho 0.9,0.9,0.9 --m 200 --n 200".split(),
        "moments --kind mixed --q 0.99 --rho 0.3,-0.6,0.5 --m 150 --n 150".split(),
        "eval pmKernel --q 0.999 --rho1 -0.6 --y 60 --grid -60:60:5".split(),
    ],
    ids=[
        "hermite-moment-overflow",
        "gram-overflow",
        "fz-hermite-series-overflow",
        "fz-even-series-overflow",
        "f3d-series-overflow",
        "mixed-moment-overflow",
        "mixed-moment-cancellation",
        "pm-kernel-product-overflow",
    ],
)
# The integrands, series terms, kernel products or closed forms overflow: the
# first level that is not finite ends the refinement, the first non-finite
# envelope ends the series, and a kernel product or closed form past the
# double range raises, each with NonConvergence; numpy prints no warning of
# its own.  A closed form whose
# terms cancel past its rounding bound raises the same way.
@pytest.mark.filterwarnings("error")
def test_cli_quadrature_overflow_exits_3_with_one_error_line(argv, capsys):
    assert _exit_code_with_one_error_line(argv, capsys) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gram --family rogers --q 0.5 --r 1", "|beta| must be < 1"),
        ("limits --q-seq 0.9,nan", "|q| must be < 1"),
        ("check poisson-mehler --rho 0.3,0.6,-0.6 --q 0.5 --seed -3", "seed must fit in 64 bits"),
    ],
    ids=["rogers-r-at-bound", "limits-q-nan", "negative-seed"],
)
def test_invalid_parameter_gets_the_validity_message(argv, message, capsys):
    assert main(argv.split()) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["0.3,0.4", "0.3,x,0.5"], ids=["two-values", "not-a-number"])
def test_rho_error_says_what_rho_needs(rho, capsys):
    # argparse's own exit: usage, then one error line that names the option.
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "f3D", "--q", "0.5", "--rho", rho])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--rho" in err and "three" in err and "_parse_rho" not in err

"""The package's one validity rule and the CLI exit code of each error.

Every parameter (q, each rho, r) has absolute value below 1 and every
conditioning point lies in the support; NaN fails both.  Each public entry
below must raise the documented error rather than return NaN or leak a
Python exception, and the CLI must map each error to its documented code.
"""

import math
from functools import partial

import pytest

from qnormal3d import errors
from qnormal3d import moments as mm
from qnormal3d.cli import EXIT_CODES, main
from qnormal3d.densities import (
    DensityForm,
    MarginalForm,
    ModelParams,
    aw_parameters,
    f_3d,
    f_z,
    omega,
    pm_kernel,
)
from qnormal3d.errors import DomainError
from qnormal3d.qcore import support_halfwidth

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


@pytest.mark.parametrize(
    "entry, args, error",
    INVALID,
    ids=[f"{fn.__name__}{i}" for i, (fn, _, _) in enumerate(INVALID)],
)
def test_invalid_input_raises_documented_error(entry, args, error):
    with pytest.raises(error):
        entry(*(a() if isinstance(a, partial) else a for a in args))


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

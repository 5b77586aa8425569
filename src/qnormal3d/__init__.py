"""Three-dimensional q-Normal distributions.

Densities, orthogonal polynomial families, closed-form moments, a
quadrature engine on the compact support, identity check suites, and an
exact inverse-CDF sampler, with a command line front end.

Submodules import lazily, so ``import qnormal3d`` stays cheap.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "QNormalError": "errors",
    "NonConvergence": "errors",
    "DomainError": "errors",
    "DegenerateRecurrence": "errors",
    "DegenerateConditioning": "errors",
    "InsufficientSamples": "errors",
    # scalar q-series machinery
    "q_number": "qcore",
    "q_factorial": "qcore",
    "q_binomial": "qcore",
    "q_pochhammer": "qcore",
    "support_halfwidth": "qcore",
    # polynomial families
    "PolySequence": "polynomials",
    "q_hermite": "polynomials",
    "asc_poly": "polynomials",
    "rogers_monic": "polynomials",
    "hermite_prob": "polynomials",
    "triple_product_integral": "polynomials",
    # densities
    "DensityForm": "densities",
    "MarginalForm": "densities",
    "ModelParams": "densities",
    "omega": "densities",
    "f_n": "densities",
    "f_cn": "densities",
    "f_r": "densities",
    "pm_kernel": "densities",
    "f_3d": "densities",
    "f_yz": "densities",
    "f_z": "densities",
    "f_x_given_yz": "densities",
    "f_yz_given_x": "densities",
    "aw_parameters": "densities",
    # quadrature
    "IntegralResult": "quadrature",
    "integrate1d": "quadrature",
    "integrate2d": "quadrature",
    "integrate3d": "quadrature",
    "gram_matrix": "quadrature",
    # moments
    "MomentKind": "moments",
    "CondMomentForm": "moments",
    "MomentSpec": "moments",
    "closed_form": "moments",
    "quadrature_oracle": "moments",
    "e_h2n_z": "moments",
    "var_z": "moments",
    "cov_yz": "moments",
    "mixed_moment_h": "moments",
    "cond_exp_hn_x_given_yz": "moments",
    "cond_exp_x_given_yz": "moments",
    "cond_exp_hn_y_given_z": "moments",
    "cond_exp_xy_given_z": "moments",
    # sampler
    "SamplerConfig": "sampler",
    "McEstimate": "sampler",
    "sample_fn": "sampler",
    "sample_3d": "sampler",
    "mc_moment": "sampler",
    "cdf_fn": "sampler",
    "cdf_r": "sampler",
    "ks_statistic": "sampler",
    "ks_critical": "sampler",
    # checks
    "VerificationReport": "checks",
    "run_suite": "checks",
    "SUITES": "checks",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return __all__


if TYPE_CHECKING:  # pragma: no cover
    from .checks import SUITES, VerificationReport, run_suite
    from .densities import (
        DensityForm,
        MarginalForm,
        ModelParams,
        aw_parameters,
        f_3d,
        f_cn,
        f_n,
        f_r,
        f_x_given_yz,
        f_yz,
        f_yz_given_x,
        f_z,
        omega,
        pm_kernel,
    )
    from .errors import (
        DegenerateConditioning,
        DegenerateRecurrence,
        DomainError,
        InsufficientSamples,
        NonConvergence,
        QNormalError,
    )
    from .moments import (
        CondMomentForm,
        MomentKind,
        MomentSpec,
        closed_form,
        cond_exp_hn_x_given_yz,
        cond_exp_hn_y_given_z,
        cond_exp_x_given_yz,
        cond_exp_xy_given_z,
        cov_yz,
        e_h2n_z,
        mixed_moment_h,
        quadrature_oracle,
        var_z,
    )
    from .polynomials import (
        PolySequence,
        asc_poly,
        hermite_prob,
        q_hermite,
        rogers_monic,
        triple_product_integral,
    )
    from .qcore import (
        q_binomial,
        q_factorial,
        q_number,
        q_pochhammer,
        support_halfwidth,
    )
    from .quadrature import (
        IntegralResult,
        gram_matrix,
        integrate1d,
        integrate2d,
        integrate3d,
    )
    from .sampler import (
        McEstimate,
        SamplerConfig,
        cdf_fn,
        cdf_r,
        ks_statistic,
        ks_critical,
        mc_moment,
        sample_3d,
        sample_fn,
    )

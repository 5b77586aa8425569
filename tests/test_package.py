"""The package's lazy export table."""

import ast
from pathlib import Path

import qnormal3d

EXPORTS = {
    "CondMomentForm", "DegenerateConditioning", "DegenerateRecurrence",
    "DensityForm", "DomainError", "InsufficientSamples", "IntegralResult",
    "MarginalForm", "McEstimate", "ModelParams", "MomentKind", "MomentSpec",
    "NonConvergence", "PolySequence", "QNormalError", "SUITES",
    "SamplerConfig", "VerificationReport", "asc_poly", "aw_parameters",
    "cdf_fn", "cdf_r", "closed_form", "cond_exp_hn_x_given_yz",
    "cond_exp_hn_y_given_z", "cond_exp_x_given_yz", "cond_exp_xy_given_z",
    "cov_yz", "e_h2n_z", "f_3d", "f_cn", "f_n", "f_r", "f_x_given_yz",
    "f_yz", "f_yz_given_x", "f_z", "gram_matrix", "hermite_prob",
    "integrate1d", "integrate2d", "integrate3d", "ks_critical",
    "ks_statistic", "mc_moment", "mixed_moment_h", "omega", "pm_kernel",
    "q_binomial", "q_factorial", "q_hermite", "q_number", "q_pochhammer",
    "quadrature_oracle", "rogers_monic", "run_suite", "sample_3d",
    "sample_fn", "support_halfwidth", "triple_product_integral", "var_z",
    "w_poly", "__version__",
}


def test_exports_are_pinned_and_resolve():
    # Pinning the set keeps removed names out of the table; getattr checks
    # that each entry names an object its module really defines.
    assert set(qnormal3d.__all__) == EXPORTS
    for name in qnormal3d.__all__:
        getattr(qnormal3d, name)


def test_type_checking_imports_match_export_table():
    # The lazy table and the imports static tools read are kept by hand;
    # each exported name must be imported from the module the table names.
    tree = ast.parse(Path(qnormal3d.__file__).read_text())
    guard = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    )
    imported = {
        alias.name: node.module
        for node in guard.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == qnormal3d._EXPORTS

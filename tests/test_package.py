"""The package's lazy exports: the union of its modules' ``__all__``."""

import ast
import os
import subprocess
import sys
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
    "__version__",
}


def test_exports_are_pinned_and_resolve():
    # Pinning the set keeps removed names out of the table; getattr checks
    # that each entry names an object its module really defines.
    assert set(qnormal3d.__all__) == EXPORTS
    for name in qnormal3d.__all__:
        getattr(qnormal3d, name)


def test_module_export_lists_partition_the_package_exports():
    # Each name is listed by exactly one module, and the package exports
    # nothing its modules do not list.
    lists = [getattr(qnormal3d, m).__all__ for m in qnormal3d._MODULES]
    union = set().union(*lists)
    assert sum(map(len, lists)) == len(union)
    assert union | {"__version__"} == EXPORTS


def test_type_checking_block_star_imports_each_module():
    tree = ast.parse(Path(qnormal3d.__file__).read_text())
    guard = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    )
    imported = [
        (node.level, node.module, [alias.name for alias in node.names])
        for node in guard.body
    ]
    assert imported == [(1, m, ["*"]) for m in qnormal3d._MODULES]


def _run(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter that imports this tree."""
    src = str(Path(qnormal3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def test_lazy_lookups_and_star_import_in_a_fresh_process():
    script = (
        "import sys, qnormal3d\n"
        "qnormal3d.QNormalError\n"
        "assert not hasattr(qnormal3d, '__wrapped__')\n"
        "assert 'numpy' not in sys.modules\n"
        "ns = {}\n"
        "exec('from qnormal3d import *', ns)\n"
        "print(' '.join(sorted(set(ns) - {'__builtins__'})))\n"
    )
    assert set(_run(script).split()) == EXPORTS


def test_submodule_resolves_without_a_prior_import():
    script = (
        "import sys, qnormal3d\n"
        "assert 'qnormal3d.densities' not in sys.modules\n"
        "assert qnormal3d.densities is sys.modules['qnormal3d.densities']\n"
        "assert qnormal3d.densities.f_3d is qnormal3d.f_3d\n"
    )
    _run(script)

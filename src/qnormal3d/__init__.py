"""Three-dimensional q-Normal distributions.

Densities, orthogonal polynomial families, closed-form moments, a
quadrature engine on the compact support, identity check suites, and an
exact inverse-CDF sampler, with a command line front end.

Submodules import lazily, so ``import qnormal3d`` stays cheap.  The
package exports what each public submodule lists in its ``__all__``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "0.1.0"

# The public submodules, each after the modules it imports.
_MODULES = (
    "errors", "qcore", "densities", "quadrature", "polynomials", "moments", "sampler", "checks"
)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        names = {n for module in _MODULES for n in __getattr__(module).__all__}
        return sorted(names) + ["__version__"]
    if not name.startswith("_"):
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __getattr__("__all__")


if TYPE_CHECKING:  # pragma: no cover
    from .errors import *
    from .qcore import *
    from .densities import *
    from .quadrature import *
    from .polynomials import *
    from .moments import *
    from .sampler import *
    from .checks import *

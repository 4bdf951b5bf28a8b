"""Sparsity-aware LMS adaptive filters and a reproducible Monte-Carlo harness.

The library implements four stochastic-gradient update rules (plain LMS,
leaky LMS, and their shrinkage-constrained counterparts) plus everything
needed to reproduce a sparse-system-identification study: seeded signal
generators, a trial/cell runner whose batched engine reproduces every run
bit for bit, a config-document parser and CSV/SVG emitters.

The filters (:mod:`sparselms.filter_core` and :mod:`sparselms.errors`) load
with the package.  The harness and the writers (``signal_gen``, ``config``,
``experiment`` and ``emit``) load on first use of one of their names, so a
caller of ``step`` alone does not pay for them.  The ``sparselms`` command
(:mod:`sparselms.cli`) is not imported by the package.
"""

import importlib

from . import errors, filter_core
from .errors import *  # noqa: F403
from .filter_core import *  # noqa: F403

__version__ = "0.1.0"

# The harness and the writers, loaded by __getattr__ below.
_ON_FIRST_USE = ("signal_gen", "config", "experiment", "emit")
# The package's __all__ joins these modules' __all__ lists, in this order;
# each module's list is the one list of its public names.
_MODULES = ("errors", "filter_core", *_ON_FIRST_USE)


def __getattr__(name):
    """A module of ``_ON_FIRST_USE``, one of their public names, or ``__all__``,
    loaded on first use (PEP 562); a public name is then cached here."""
    if name in _ON_FIRST_USE:
        return importlib.import_module(f".{name}", __name__)
    modules = (importlib.import_module(f".{m}", __name__) for m in _MODULES)
    if name == "__all__":
        value = [public for module in modules for public in module.__all__]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value

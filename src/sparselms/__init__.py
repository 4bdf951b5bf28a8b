"""Sparsity-aware LMS adaptive filters and a reproducible Monte-Carlo harness.

The library implements four stochastic-gradient update rules (plain LMS,
leaky LMS, and their shrinkage-constrained counterparts) plus everything
needed to reproduce a sparse-system-identification study: seeded signal
generators, a trial/cell runner whose batched engine reproduces every run
bit for bit, a config-document parser and CSV/SVG emitters.

The filters (:mod:`sparselms.filter_core` and :mod:`sparselms.errors`) load
with the package.  The harness and the writers (``signal_gen``, ``config``,
``experiment`` and ``emit``) load on first use of one of their names, so a
caller of ``step`` alone does not pay for them.  ``__getattr__`` below resolves
every public name; the package does not import :mod:`sparselms.cli`.
"""

import importlib

from . import errors, filter_core

__version__ = "0.1.0"

# The package's __all__ joins these modules' __all__ lists, in this order;
# each module's list is the one list of its public names.
_MODULES = ("errors", "filter_core", "signal_gen", "config", "experiment", "emit")


def __getattr__(name):
    """One of ``_MODULES``, their public names or ``__all__``, loaded on first use and
    cached (PEP 562); no public name begins with ``_``, so such a name loads nothing."""
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    owners = _MODULES if name == "__all__" or not name.startswith("_") else ()
    modules = (importlib.import_module(f".{m}", __name__) for m in owners)
    if name == "__all__":
        value = [public for module in modules for public in module.__all__]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    """The package's own names and the public names of each module loaded so far."""
    loaded = (globals()[m] for m in _MODULES if m in globals())
    return sorted({*globals(), *(name for module in loaded for name in module.__all__)})

"""Sparsity-aware LMS adaptive filters and a reproducible Monte-Carlo harness.

The library implements four stochastic-gradient update rules (plain LMS,
leaky LMS, and their shrinkage-constrained counterparts) plus everything
needed to reproduce a sparse-system-identification study: seeded signal
generators, a trial/cell runner whose batched engine reproduces every run
bit for bit, a config-document parser and CSV/SVG emitters.  The
``sparselms`` command (:mod:`sparselms.cli`) is not imported by the package.
"""

from . import errors, filter_core, signal_gen, config, experiment, emit
from .errors import *  # noqa: F403
from .filter_core import *  # noqa: F403
from .signal_gen import *  # noqa: F403
from .config import *  # noqa: F403
from .experiment import *  # noqa: F403
from .emit import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (errors, filter_core, signal_gen, config, experiment, emit)
    for name in module.__all__
]

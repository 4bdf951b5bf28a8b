"""Exception types, the integer check and the numeric error state shared by the package."""

import contextvars
import functools
import numbers

import numpy as np


class ParameterError(ValueError):
    """A scalar parameter violates its documented range."""


class DimensionMismatchError(ValueError):
    """Two vectors that must share a length do not."""


class ConfigError(ValueError):
    """A run-configuration document could not be parsed or validated."""


class DivergenceError(ArithmeticError):
    """A weight update produced a non-finite value.

    Attributes
    ----------
    iteration : int or None
        Update index at which the divergence was detected.
    run : int or None
        Monte-Carlo run index, when raised from a multi-run harness.
    variant : Variant or None
        Update rule of the diverging cell, when raised from a multi-run harness.
    level : int or None
        Nonzero-tap count of the diverging cell, when raised from a
        multi-run harness.
    """

    def __init__(self, message, iteration=None, run=None, variant=None, level=None):
        super().__init__(message)
        self.iteration = iteration
        self.run = run
        self.variant = variant
        self.level = level


def check_integer(name, value):
    """``value`` if it is an integer, numpy's included; else a ParameterError naming it."""
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


# The floating-point error state of step(), the engine and the AR(1) rescale:
# overflow and invalid values are reported by value (DivergenceError, or the
# AR(1) ParameterError), underflow is ignored, divide keeps numpy's default, and
# a caller's np.errstate or np.seterr does not reach inside.  Each call enters
# its own copy, in O(1), as two threads may not enter one context at once.
QUIET = contextvars.Context()
QUIET.run(np.seterr, over="ignore", invalid="ignore", under="ignore")


def quietly(func):
    """``func``, run in its own copy of ``QUIET`` on every call."""
    @functools.wraps(func)
    def run_quietly(*args, **kwargs):
        return QUIET.copy().run(func, *args, **kwargs)
    return run_quietly

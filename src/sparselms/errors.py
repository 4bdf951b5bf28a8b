"""Exception types shared across the package, and the integer check that raises one."""

import numbers


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

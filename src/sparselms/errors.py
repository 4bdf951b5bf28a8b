"""Exception types shared across the package."""


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

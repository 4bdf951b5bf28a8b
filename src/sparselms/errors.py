"""Exception types, every parameter check, and the numeric error state of the package."""

import contextvars
import functools
import math
import numbers

import numpy as np

__all__ = ["ParameterError", "DimensionMismatchError", "ConfigError", "DivergenceError"]

# The most float64 items one numpy array can hold: its size in bytes must fit an intp.
_MAX_FLOATS = np.iinfo(np.intp).max // 8

# How step() and the engine word a run whose weights overflowed.
NON_FINITE = "weights became non-finite"


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


def check_integer(name, value, low=None, high=None):
    """``value`` as an int if it is an integer, numpy's included but no bool, with
    ``low <= value`` and ``value <= high`` for each bound given (``high`` only with
    ``low``); else a ParameterError naming it."""
    if not _is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        raise _out_of_range(name, value, (">=", low), ("<=", high))
    return value


def check_count(name, value, floats_each=1):
    """``value`` as an int if it is an integer >= 1 and ``value`` items of
    ``floats_each`` float64s fit one numpy array; else a ParameterError naming it,
    which words the upper bound only for a value above it."""
    value = check_integer(name, value, 1)
    return check_integer(name, value, 1, _MAX_FLOATS // floats_each)


def check_real(name, value, *, ge=None, gt=None, lt=None):
    """``value`` as a float if it ``_is_real``, with ``value >= ge`` or ``value > gt`` if
    either is given and ``value < lt`` unless ``lt`` is None; else a ParameterError naming
    it.  ``lt=math.inf`` asks for a finite value; nan fails every bound; beyond float64 is +-inf."""
    if not _is_real(value):
        raise not_numbers(name, value, "a real number")
    try:
        real = float(value)
    except OverflowError:
        value = real = math.inf if value > 0 else -math.inf
    if not (
        (ge is None or real >= ge) and (gt is None or real > gt) and (lt is None or real < lt)
    ):
        low = (">=", ge) if gt is None else (">", gt)
        raise _out_of_range(name, value, low, ("<", lt))
    return real


def check_instance(name, value, kind):
    """``value`` if it is a ``kind``; else a ParameterError naming it."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ParameterError(f"{name} must be {article} {kind.__name__}, got {value!r}")
    return value


def _out_of_range(name, value, low, high):
    """The error for ``value`` outside ``low`` and ``high``, each an ``(op, bound)``
    pair; an upper bound of inf reads as "finite", and only it may go with no lower one."""
    (low_op, low), (high_op, high) = low, high
    if high is None:
        rule = f"be {low_op} {low}"
    elif high == math.inf:
        rule = "be finite" if low is None else f"be finite and {low_op} {low}"
    else:
        rule = f"satisfy {low} {low_op.replace('>', '<')} {name} {high_op} {high}"
    return ParameterError(f"{name} must {rule}, got {value}")


def not_numbers(name, value, kind="an array of floats"):
    """The error for ``value`` that is not ``kind``: ragged, not numbers or not iterable."""
    return ParameterError(f"{name} must be {kind}, got {value!r}")


def as_tuple(name, value):
    """``value``'s items as a tuple; the ``not_numbers`` error for a str, bytes or non-iterable."""
    try:
        if not isinstance(value, (str, bytes)):
            return tuple(value)
    except TypeError:
        pass
    raise not_numbers(name, value, "a sequence")


def _is_integer(value):
    """Whether ``value`` is an integer, numpy's included: no bool."""
    return isinstance(value, numbers.Integral) and type(value) is not bool


def _is_real(value):
    """Whether ``value`` is a real number, numpy's included: no bool, string or None;
    a float (numpy's float64 is one) is asked first, as the ABC test is slower."""
    return isinstance(value, float) or isinstance(value, numbers.Real) and type(value) is not bool


def as_floats(name, value):
    """``value`` as a float64 array if numpy reads it as ints or floats, or as objects that
    each ``_is_real``; else the ``not_numbers`` error, as for a str, bool, None, complex or
    int beyond float64.  A float64 array is returned unread; ``[1.0, True]`` is 2 floats."""
    try:
        read = np.asarray(value)
        if read.dtype == float:
            return read
        if read.dtype.kind in "iuf" or (read.dtype == object and all(map(_is_real, read.flat))):
            return read.astype(float)
    except (TypeError, ValueError, OverflowError):  # ragged, or an int beyond float64
        pass
    raise not_numbers(name, value)


def as_vector(name, value, taps=False):
    """``value`` as a 1-d float64 array, of at least one item if it holds ``taps``;
    else a ParameterError naming it and its shape, or the ``not_numbers`` error."""
    value = as_floats(name, value)
    if value.ndim != 1 or (taps and value.size < 1):
        rule = " with at least one tap" if taps else ""
        raise ParameterError(f"{name} must be 1-d{rule}, got shape {value.shape}")
    return value


# The floating-point error state of step(), the engine, the shrinkage term and
# the AR(1) rescale: overflow and invalid values are reported by value
# (DivergenceError, the AR(1) ParameterError, or inf), underflow is ignored,
# divide keeps numpy's default, and a caller's np.errstate or np.seterr does not
# reach inside.  Each call enters its own copy, in O(1), as two threads may not
# enter one context at once.
QUIET = contextvars.Context()
QUIET.run(np.seterr, over="ignore", invalid="ignore", under="ignore")


def quietly(func):
    """``func``, run in its own copy of ``QUIET`` on every call."""
    @functools.wraps(func)
    def run_quietly(*args, **kwargs):
        return QUIET.copy().run(func, *args, **kwargs)
    return run_quietly

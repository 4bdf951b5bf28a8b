"""Weight-update rules of the LMS family, with optional leakage and shrinkage.

:func:`step` is the one-sample API for all four variants; the variant
comes from ``AlgorithmConfig.variant``.  With ``e = d - w . x``:

* ``lms``          -- ``w' = w + mu*e*x``, plain stochastic gradient on the
  squared error,
* ``llms``         -- ``w' = (1 - mu*gamma)*w + mu*e*x``, leaky LMS,
* ``lp_like_lms``  -- ``w' = w + mu*e*x - rho_pl*g(w)``, LMS plus an
  elementwise shrinkage term ``g`` (:func:`pnorm_like_gradient_term`)
  derived from the nonconvex penalty ``sum_i |w_i|**p`` (0 < p < 1),
* ``lp_like_llms`` -- ``w' = (1 +/- mu*gamma)*w + mu*e*x - rho_pl*g(w)``,
  leaky LMS plus the same shrinkage term; the leak sign comes from
  ``leak_sign`` and defaults to PLUS.

:func:`step` is a pure function: it takes a :class:`FilterState` and
returns a new one with the pre-update error, never mutating its inputs.
"""

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import QUIET, DimensionMismatchError, DivergenceError, ParameterError

__all__ = [
    "Variant",
    "LeakSign",
    "AlgorithmConfig",
    "FilterState",
    "pnorm_like",
    "pnorm_like_gradient_term",
    "step",
]


class Variant(enum.Enum):
    """Update-rule selector."""

    LMS = "lms"
    LLMS = "llms"
    LP_LIKE_LMS = "lp_like_lms"
    LP_LIKE_LLMS = "lp_like_llms"


class LeakSign(enum.Enum):
    """Sign of the leak multiplier: PLUS is ``1 + mu*gamma``, MINUS is ``1 - mu*gamma``."""

    PLUS = "plus"
    MINUS = "minus"


_LEAKY = (Variant.LLMS, Variant.LP_LIKE_LLMS)
_SHRINKING = (Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS)

# The variants that read each hyperparameter of AlgorithmConfig; the others ignore it.
_READERS = {
    "mu": tuple(Variant),
    "gamma": _LEAKY,
    "rho_pl": _SHRINKING,
    "epsilon_pl": _SHRINKING,
    "p": _SHRINKING,
    "leak_sign": (Variant.LP_LIKE_LLMS,),
}


@dataclass(frozen=True)
class AlgorithmConfig:
    """Scalar hyperparameters for one update rule.

    Fields not used by the selected variant are ignored by :func:`step`
    (for example ``gamma`` under plain ``lms``) and are not validated.

    Parameters
    ----------
    variant : Variant
        Which update rule the configuration drives.
    mu : float
        Step size, finite and >= 0 (0 freezes the filter; useful for baselines).
    gamma : float
        Leakage factor, in [0, 1) for the leaky variants.
    rho_pl : float
        Shrinkage weight (step size times penalty weight), finite and >= 0.
    epsilon_pl : float
        Denominator regularizer of the shrinkage term, finite and > 0.
    p : float
        Penalty exponent, in (0, 1).
    leak_sign : LeakSign or None
        Leak multiplier sign for ``lp_like_llms``; ``None`` picks the
        per-variant default (PLUS for ``lp_like_llms``, MINUS otherwise).
    """

    variant: Variant
    mu: float = 0.015
    gamma: float = 0.0
    rho_pl: float = 0.0
    epsilon_pl: float = 10.0
    p: float = 0.5
    leak_sign: LeakSign | None = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise ParameterError(f"variant must be a Variant, got {self.variant!r}")
        if not (self.leak_sign is None or isinstance(self.leak_sign, LeakSign)):
            raise ParameterError(f"leak_sign must be a LeakSign or None, got {self.leak_sign!r}")
        if self.leak_sign is None:
            default = LeakSign.PLUS if self.variant in _READERS["leak_sign"] else LeakSign.MINUS
            object.__setattr__(self, "leak_sign", default)
        if not 0.0 <= self.mu < math.inf:
            raise ParameterError(f"mu must be finite and >= 0, got {self.mu}")
        if self.variant in _LEAKY and not 0.0 <= self.gamma < 1.0:
            raise ParameterError(
                f"gamma must satisfy 0 <= gamma < 1 for {self.variant.value}, got {self.gamma}"
            )
        if self.variant in _SHRINKING:
            if not 0.0 < self.p < 1.0:
                raise ParameterError(f"p must satisfy 0 < p < 1, got {self.p}")
            if not 0.0 <= self.rho_pl < math.inf:
                raise ParameterError(f"rho_pl must be finite and >= 0, got {self.rho_pl}")
            if not 0.0 < self.epsilon_pl < math.inf:
                raise ParameterError(
                    f"epsilon_pl must be finite and > 0, got {self.epsilon_pl}"
                )

    # Per-config constants of step() and the engine, computed on first use and
    # cached on the instance; dataclasses.replace builds a new instance, so they follow.
    @cached_property
    def leak_mult(self):
        """Weight multiplier of the leak.

        ``1 - mu*gamma`` for ``llms``; ``1 + mu*gamma`` or ``1 - mu*gamma``, by
        ``leak_sign``, for ``lp_like_llms``; 1 for the variants without leakage.
        """
        if self.variant not in _LEAKY:
            return 1.0
        if self.variant in _READERS["leak_sign"] and self.leak_sign is LeakSign.PLUS:
            return 1.0 + self.mu * self.gamma
        return 1.0 - self.mu * self.gamma

    @cached_property
    def _operands(self):
        """``(mu, leak_mult, shrink)`` as 0-d float64 arrays, which numpy
        applies to an array faster than Python floats.

        ``leak_mult`` is None for a multiplier of 1, as ``1.0 * w`` is ``w``;
        ``shrink`` is ``(rho_pl, p, 1 - p, epsilon_pl)`` for the shrinkage
        variants, else None, with ``1 - p`` a float: numpy takes ``w ** 0.5``
        as a square root, but not with a 0-d exponent.
        """
        leak_mult = None if self.leak_mult == 1.0 else np.array(self.leak_mult)
        shrink = None
        if self.variant in _SHRINKING:
            rho_pl, p, epsilon_pl = (np.array(c) for c in (self.rho_pl, self.p, self.epsilon_pl))
            shrink = (rho_pl, p, 1.0 - self.p, epsilon_pl)
        return np.array(self.mu), leak_mult, shrink


@dataclass(frozen=True)
class FilterState:
    """Current weight estimate plus the number of completed updates."""

    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        try:
            weights = np.asarray(self.weights, dtype=float)
        except (TypeError, ValueError):
            raise _not_numbers("weights", self.weights) from None
        if weights.ndim != 1 or weights.size < 1:
            raise ParameterError(
                f"weights must be 1-d with at least one tap, got shape {weights.shape}"
            )
        if not isinstance(self.iteration, numbers.Integral) or self.iteration < 0:
            raise ParameterError(f"iteration must be an integer >= 0, got {self.iteration!r}")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def zeros(cls, n_taps):
        """All-zero estimate of the given length, iteration counter at 0."""
        if not isinstance(n_taps, numbers.Integral) or n_taps < 1:
            raise ParameterError(f"n_taps must be an integer >= 1, got {n_taps!r}")
        return cls(np.zeros(n_taps), 0)

    @classmethod
    def _next(cls, weights, iteration):
        """step()'s result, built without ``__post_init__``: ``weights`` is a
        fresh 1-d float64 array that step() made."""
        state = object.__new__(cls)
        state.__dict__.update(weights=weights, iteration=iteration)
        return state


def _not_numbers(name, value):
    """The error for ``value`` that numpy cannot read as floats: ragged, or not numbers."""
    return ParameterError(f"{name} must be an array of floats, got {value!r}")


def _check_lengths(w, x):
    if w.shape != x.shape:
        if x.ndim == 1:
            message = f"weights have length {w.shape[0]} but regressor has length {x.shape[0]}"
        else:
            message = f"weights have shape {w.shape} but regressor has shape {x.shape}"
        raise DimensionMismatchError(message)


def pnorm_like(w, p):
    """Nonconvex sparsity penalty ``sum_i |w_i|**p`` with 0 < p < 1.

    Not a norm (the triangle inequality fails for p < 1); 0**p is taken
    as 0, so the zero vector scores 0.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must satisfy 0 < p < 1, got {p}")
    w = np.asarray(w, dtype=float)
    return float(np.sum(np.abs(w) ** p))


def pnorm_like_gradient_term(w, p, epsilon_pl):
    """Regularized shrinkage direction ``p*sgn(w_i) / (epsilon_pl + |w_i|**(1-p))``.

    The regularizer keeps the denominator away from zero; with
    ``epsilon_pl = 0`` the element at ``w_i = 0`` is defined as 0 because
    ``sgn(0) = 0`` wins over the vanishing denominator.

    Returns
    -------
    numpy.ndarray
        Same length as ``w``; every element finite.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must satisfy 0 < p < 1, got {p}")
    if not epsilon_pl >= 0.0:
        raise ParameterError(f"epsilon_pl must satisfy epsilon_pl >= 0, got {epsilon_pl}")
    w = np.asarray(w, dtype=float)
    denom = epsilon_pl + np.abs(w) ** (1.0 - p)
    return np.divide(p * np.sign(w), denom, out=np.zeros_like(w), where=w != 0.0)


def step(state, x, desired, cfg):
    """Advance one sample with the configured rule.

    Leak, gradient correction, then the optional shrinkage, in the engine's
    order; a leak multiplier of 1 is skipped, as ``1.0 * w`` is ``w``.
    Runs in its own copy of ``errors.QUIET``, so overflow is reported as
    DivergenceError whatever error state the caller set.

    Returns
    -------
    (FilterState, float)
        The new state and the pre-update error ``e = desired - w . x``,
        which is the same for every variant.
    """
    return QUIET.copy().run(_step, state, x, desired, cfg)


def _step(state, x, desired, cfg):
    try:  # free on Python 3.11+ unless it raises
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise _not_numbers("regressor", x) from None
    w = state.weights
    if w.shape != x.shape:
        _check_lengths(w, x)
    e = float(desired) - float(w.dot(x))
    # mu*e as Python floats, far cheaper than with a 0-d mu; then the array
    # first, so ndarray.__mul__ runs without float.__mul__'s detour
    new_w = x * (cfg.mu * e)
    _, leak_mult, shrink = cfg._operands
    new_w += w if leak_mult is None else leak_mult * w  # IEEE addition commutes
    if shrink is not None:
        # rho_pl * (p * sgn(w) / (epsilon_pl + |w|**(1-p))), in place; ``1 - p``
        # is a Python float, so ``**= 0.5`` is numpy's square root.  epsilon_pl
        # > 0 (AlgorithmConfig checks it), so sgn(0) = 0 already makes the
        # w_i = 0 element 0
        rho_pl, p, one_minus_p, epsilon_pl = shrink
        s = np.sign(w)
        s *= p
        d = np.abs(w)
        d **= one_minus_p
        d += epsilon_pl
        s /= d
        s *= rho_pl
        new_w -= s
    # a sum is finite only if every term is, in any summation order; finite
    # weights can still overflow the sum, so only a non-finite sum needs the
    # elementwise check.  Summing Python floats is cheaper than a numpy reduce.
    if not math.isfinite(sum(new_w.tolist())) and not np.isfinite(new_w).all():
        raise DivergenceError(
            f"weights became non-finite at iteration {state.iteration}",
            iteration=state.iteration,
        )
    return FilterState._next(new_w, state.iteration + 1), e

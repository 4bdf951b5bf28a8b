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
It and the engine in :mod:`sparselms.experiment` share one update,
``_advance``, so a loop of steps equals the engine's run bit for bit.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NON_FINITE,
    QUIET,
    DimensionMismatchError,
    DivergenceError,
    as_floats,
    as_vector,
    check_count,
    check_instance,
    check_integer,
    check_real,
    quietly,
)

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


# The variants that read each hyperparameter of AlgorithmConfig; the others ignore
# it.  "gamma" names the leaky variants and "rho_pl" the shrinkage ones.
_READERS = {
    "mu": tuple(Variant),
    "gamma": (Variant.LLMS, Variant.LP_LIKE_LLMS),
    **dict.fromkeys(("rho_pl", "epsilon_pl", "p"), (Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS)),
    "leak_sign": (Variant.LP_LIKE_LLMS,),
}

# The range of each real hyperparameter, checked when the variant reads it.
_RANGES = {
    "mu": {"ge": 0, "lt": math.inf},
    "gamma": {"ge": 0, "lt": 1},
    "p": {"gt": 0, "lt": 1},
    "rho_pl": {"ge": 0, "lt": math.inf},
    "epsilon_pl": {"gt": 0, "lt": math.inf},
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
        check_instance("variant", self.variant, Variant)
        if self.leak_sign is None:
            default = LeakSign.PLUS if self.variant in _READERS["leak_sign"] else LeakSign.MINUS
            object.__setattr__(self, "leak_sign", default)
        check_instance("leak_sign", self.leak_sign, LeakSign)
        for name, bounds in _RANGES.items():
            if self.variant in _READERS[name]:
                object.__setattr__(self, name, check_real(name, getattr(self, name), **bounds))

    # Per-config constants of step() and the engine, computed on first use and
    # cached on the instance; dataclasses.replace builds a new instance, so they follow.
    @cached_property
    def leak_mult(self):
        """Weight multiplier of the leak.

        ``1 - mu*gamma`` for ``llms``; ``1 + mu*gamma`` or ``1 - mu*gamma``, by
        ``leak_sign``, for ``lp_like_llms``; 1 for the variants without leakage.
        """
        if self.variant not in _READERS["gamma"]:
            return 1.0
        if self.variant in _READERS["leak_sign"] and self.leak_sign is LeakSign.PLUS:
            return 1.0 + self.mu * self.gamma
        return 1.0 - self.mu * self.gamma

    @cached_property
    def _operands(self):
        """``(leak_mult, shrink)`` of ``_advance``, as 0-d float64 arrays, which numpy
        applies to an array faster than Python floats: ``leak_mult`` is None for a
        multiplier of 1; ``shrink`` is ``(rho_pl, p, 1 - p, epsilon_pl)`` for the
        shrinkage variants, else None, with ``1 - p`` a float, as numpy takes
        ``w ** 0.5`` as a square root, but not with a 0-d exponent."""
        leak_mult = None if self.leak_mult == 1.0 else np.array(self.leak_mult)
        shrink = None
        if self.variant in _READERS["rho_pl"]:
            rho_pl, p, epsilon_pl = (np.array(c) for c in (self.rho_pl, self.p, self.epsilon_pl))
            shrink = (rho_pl, p, 1.0 - self.p, epsilon_pl)
        return leak_mult, shrink


@dataclass(frozen=True)
class FilterState:
    """Current weight estimate plus the number of completed updates."""

    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "weights", as_vector("weights", self.weights, taps=True))
        object.__setattr__(self, "iteration", check_integer("iteration", self.iteration, 0))

    @classmethod
    def zeros(cls, n_taps):
        """All-zero estimate of the given length, iteration counter at 0."""
        return cls(np.zeros(check_count("n_taps", n_taps)), 0)

    @classmethod
    def _next(cls, weights, iteration):
        """step()'s result, built without ``__post_init__``: ``weights`` is a
        fresh 1-d float64 array that step() made."""
        state = object.__new__(cls)
        state.__dict__.update(weights=weights, iteration=iteration)
        return state


def pnorm_like(w, p):
    """Nonconvex sparsity penalty ``sum_i |w_i|**p`` with 0 < p < 1.

    Not a norm (the triangle inequality fails for p < 1); 0**p is taken
    as 0, so the zero vector scores 0.
    """
    p = check_real("p", p, **_RANGES["p"])
    w = as_floats("w", w)
    a = np.ravel(np.abs(w) ** p)  # a scalar is one tap
    return _left_fold(a) if a.size else 0.0


@quietly
def pnorm_like_gradient_term(w, p, epsilon_pl):
    """Regularized shrinkage direction ``p*sgn(w_i) / (epsilon_pl + |w_i|**(1-p))``.

    The regularizer keeps the denominator away from zero; with
    ``epsilon_pl = 0`` the element at ``w_i = 0`` is defined as 0, as
    ``sgn(0) = 0`` wins over the vanishing denominator.  Runs in a copy of
    ``errors.QUIET``, so an overflow is a value, not a warning.

    Returns
    -------
    numpy.ndarray
        Same length as ``w``.  Every element is finite for ``epsilon_pl > 0``;
        with ``epsilon_pl = 0`` an element is ``inf`` where ``p/|w_i|**(1-p)``
        is too large for a float.
    """
    p = check_real("p", p, **_RANGES["p"])
    epsilon_pl = check_real("epsilon_pl", epsilon_pl, ge=0)
    w = as_floats("w", w)
    return np.where(w == 0.0, 0.0, _shrinkage(w, p, 1.0 - p, epsilon_pl))


def _shrinkage(w, p, one_minus_p, epsilon_pl):
    """``p*sgn(w) / (epsilon_pl + |w|**(1-p))`` as a new array; ``one_minus_p`` is
    a Python float, so that ``0.5`` is numpy's square root."""
    s = np.sign(w)
    s *= p
    d = np.abs(w)
    d **= one_minus_p
    d += epsilon_pl
    s /= d
    return s


def _left_fold(a):
    """Sum in tap order, by ``add.accumulate`` or by numpy's ``sum(axis=-2)`` for two runs
    or more, never by BLAS, whose order depends on the CPU: a (taps,) array to a float,
    a (taps x runs) or (block x taps x runs) array over its axis -2."""
    if a.ndim == 1:
        return float(np.add.accumulate(a)[-1])
    if a.shape[-1] > 1:
        return a.sum(axis=-2)
    return np.add.accumulate(a, axis=-2)[..., -1, :]


def _advance(w, x, desired, cfg, out=None):
    """The update rule: ``(w', e)`` for weights and regressors of shape (taps,) with a
    float ``desired``, or (taps x runs) with a (runs,) row.  ``e = desired - w . x``;
    ``w'``, written to ``out`` if given, is ``x*(mu*e)`` plus the leak (``w`` itself
    for a multiplier of 1, as ``1.0 * w`` is ``w``) minus ``rho_pl * _shrinkage(w)``."""
    e = desired - _left_fold(w * x)
    new_w = np.multiply(x, cfg.mu * e, out)
    leak_mult, shrink = cfg._operands
    new_w += w if leak_mult is None else leak_mult * w  # IEEE addition commutes
    if shrink is not None:
        rho_pl, p, one_minus_p, epsilon_pl = shrink
        new_w -= rho_pl * _shrinkage(w, p, one_minus_p, epsilon_pl)  # sgn(0) = 0 and epsilon_pl > 0
    return new_w, e


def step(state, x, desired, cfg):
    """Advance one sample with the configured rule.

    The engine's update, ``_advance``, on one filter.  Runs in its own copy
    of ``errors.QUIET``, so overflow is reported as DivergenceError whatever
    error state the caller set.

    Returns
    -------
    (FilterState, float)
        The new state and the pre-update error ``e = desired - w . x``,
        which is the same for every variant.
    """
    return QUIET.copy().run(_step, state, x, desired, cfg)


def _step(state, x, desired, cfg):
    check_instance("state", state, FilterState)
    check_instance("cfg", cfg, AlgorithmConfig)
    x = as_floats("regressor", x)
    desired = check_real("desired", desired, lt=math.inf)
    w = state.weights
    if w.shape != x.shape:
        what, n, m = ("length", w.size, x.size) if x.ndim == 1 else ("shape", w.shape, x.shape)
        raise DimensionMismatchError(f"weights have {what} {n} but regressor has {what} {m}")
    new_w, e = _advance(w, x, desired, cfg)
    # a sum is finite only if every term is, in any summation order; finite
    # weights can still overflow the sum, so only a non-finite sum needs the
    # elementwise check.  Summing Python floats is cheaper than a numpy reduce.
    if not math.isfinite(sum(new_w.tolist())) and not np.isfinite(new_w).all():
        raise DivergenceError(
            f"{NON_FINITE} at iteration {state.iteration}", iteration=state.iteration
        )
    return FilterState._next(new_w, state.iteration + 1), e

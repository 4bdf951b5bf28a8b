"""Weight-update rules of the LMS family, with optional leakage and shrinkage.

Four variants share a single step interface:

* ``lms``          -- plain stochastic gradient on the squared error,
* ``llms``         -- leaky LMS, multiplicative weight decay ``(1 - mu*gamma)``,
* ``lp_like_lms``  -- LMS plus an elementwise shrinkage term derived from the
  nonconvex penalty ``sum_i |w_i|**p`` (0 < p < 1),
* ``lp_like_llms`` -- leaky LMS plus the same shrinkage term; the leak
  multiplier sign is configurable and defaults to ``(1 + mu*gamma)``.

All steps are pure functions: they take a :class:`FilterState` and return a
new one, never mutating their inputs.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, ParameterError

__all__ = [
    "Variant",
    "LeakSign",
    "AlgorithmConfig",
    "FilterState",
    "predict",
    "instantaneous_error",
    "pnorm_like",
    "pnorm_like_gradient_term",
    "lms_step",
    "llms_step",
    "lp_like_lms_step",
    "lp_like_llms_step",
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
        Step size, >= 0 (0 freezes the filter; useful for baselines).
    gamma : float
        Leakage factor, in [0, 1) for the leaky variants.
    rho_pl : float
        Shrinkage weight (step size times penalty weight), >= 0.
    epsilon_pl : float
        Denominator regularizer of the shrinkage term, > 0.
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
        if self.leak_sign is None:
            default = LeakSign.PLUS if self.variant is Variant.LP_LIKE_LLMS else LeakSign.MINUS
            object.__setattr__(self, "leak_sign", default)
        if not self.mu >= 0.0:
            raise ParameterError(f"mu must satisfy mu >= 0, got {self.mu}")
        if self.variant in _LEAKY and not 0.0 <= self.gamma < 1.0:
            raise ParameterError(
                f"gamma must satisfy 0 <= gamma < 1 for {self.variant.value}, got {self.gamma}"
            )
        if self.variant in _SHRINKING:
            if not 0.0 < self.p < 1.0:
                raise ParameterError(f"p must satisfy 0 < p < 1, got {self.p}")
            if not self.rho_pl >= 0.0:
                raise ParameterError(f"rho_pl must satisfy rho_pl >= 0, got {self.rho_pl}")
            if not self.epsilon_pl > 0.0:
                raise ParameterError(
                    f"epsilon_pl must satisfy epsilon_pl > 0, got {self.epsilon_pl}"
                )

    @property
    def leak_mult(self):
        """Weight multiplier of the leak.

        ``1 - mu*gamma`` for ``llms``; ``1 + mu*gamma`` or ``1 - mu*gamma``, by
        ``leak_sign``, for ``lp_like_llms``; 1 for the variants without leakage.
        """
        if self.variant is Variant.LLMS or (
            self.variant is Variant.LP_LIKE_LLMS and self.leak_sign is LeakSign.MINUS
        ):
            return 1.0 - self.mu * self.gamma
        if self.variant is Variant.LP_LIKE_LLMS:
            return 1.0 + self.mu * self.gamma
        return 1.0


@dataclass(frozen=True)
class FilterState:
    """Current weight estimate plus the number of completed updates."""

    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @classmethod
    def zeros(cls, n_taps):
        """All-zero estimate of the given length, iteration counter at 0."""
        if n_taps < 1:
            raise ParameterError(f"n_taps must be >= 1, got {n_taps}")
        return cls(np.zeros(int(n_taps)), 0)


def _check_lengths(w, x):
    if w.shape != x.shape:
        raise DimensionMismatchError(
            f"weights have length {w.shape[0]} but regressor has length {x.shape[0]}"
        )


def _check_variant(cfg, expected):
    if cfg.variant is not expected:
        raise ParameterError(
            f"config selects variant '{cfg.variant.value}' but this step implements "
            f"'{expected.value}'"
        )


def predict(state, x):
    """Filter output ``w . x`` for the current weights.

    Parameters
    ----------
    state : FilterState
    x : array_like
        Regressor vector, most recent sample first; same length as the weights.

    Returns
    -------
    float
    """
    x = np.asarray(x, dtype=float)
    _check_lengths(state.weights, x)
    return float(np.dot(state.weights, x))


def instantaneous_error(desired, predicted):
    """Error ``desired - predicted`` for one sample."""
    return float(desired) - float(predicted)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        g = p * np.sign(w) / denom
    return np.where(w == 0.0, 0.0, g)


# Overflow on the way to non-finite weights is divergence, which the finite
# check raises as DivergenceError; numpy's warnings for it are noise.  (As a
# decorator, errstate costs about half of a ``with`` block per call.)
@np.errstate(over="ignore", invalid="ignore")
def _advance(state, x, desired, mu, leak_mult, shrink):
    """Shared step body: leak, gradient correction, optional shrinkage.

    Returns the new state and the pre-update error ``desired - w . x``.
    """
    x = np.asarray(x, dtype=float)
    w = state.weights
    _check_lengths(w, x)
    e = instantaneous_error(desired, float(np.dot(w, x)))
    new_w = leak_mult * w + (mu * e) * x
    if shrink is not None:
        rho_pl, p, epsilon_pl = shrink
        # pnorm_like_gradient_term inline: epsilon_pl > 0 (AlgorithmConfig
        # checks it), so sgn(0) = 0 already makes the w_i = 0 element 0
        new_w = new_w - rho_pl * (p * np.sign(w) / (epsilon_pl + np.abs(w) ** (1 - p)))
    if not np.isfinite(new_w).all():
        raise DivergenceError(
            f"weights became non-finite at iteration {state.iteration}",
            iteration=state.iteration,
        )
    return FilterState(new_w, state.iteration + 1), e


def lms_step(state, x, desired, cfg):
    """One plain LMS update: ``w' = w + mu*e*x``."""
    _check_variant(cfg, Variant.LMS)
    return step(state, x, desired, cfg)[0]


def llms_step(state, x, desired, cfg):
    """One leaky LMS update: ``w' = (1 - mu*gamma)*w + mu*e*x``."""
    _check_variant(cfg, Variant.LLMS)
    return step(state, x, desired, cfg)[0]


def lp_like_lms_step(state, x, desired, cfg):
    """One shrinkage-constrained LMS update: ``w' = w + mu*e*x - rho_pl*g(w)``."""
    _check_variant(cfg, Variant.LP_LIKE_LMS)
    return step(state, x, desired, cfg)[0]


def lp_like_llms_step(state, x, desired, cfg):
    """One leaky, shrinkage-constrained update.

    ``w' = (1 +/- mu*gamma)*w + mu*e*x - rho_pl*g(w)`` with the leak sign
    taken from ``cfg.leak_sign`` (PLUS by default).
    """
    _check_variant(cfg, Variant.LP_LIKE_LLMS)
    return step(state, x, desired, cfg)[0]


def step(state, x, desired, cfg):
    """Advance one sample with the configured rule.

    Returns
    -------
    (FilterState, float)
        The new state and the pre-update error ``e = desired - w . x``,
        which is the same for every variant.
    """
    shrink = (cfg.rho_pl, cfg.p, cfg.epsilon_pl) if cfg.variant in _SHRINKING else None
    return _advance(state, x, desired, cfg.mu, cfg.leak_mult, shrink)

"""An outside oracle: the study's steady state against adaptive-filter theory.

Every other check of the study's numbers compares the rules with each other
or with the same rules coded another way.  This one compares them with the
mean-square recursion of LMS under the independence assumption with
Gaussian regressors (Haykin, *Adaptive Filter Theory*; Sayed,
*Fundamentals of Adaptive Filtering*, 2003).

With weight error ``v = w_o - w``, input correlation ``R`` and noise
variance ``s2``, the error covariance ``C`` obeys

    C' = C - mu*(R C + C R) + mu**2 * (2 R C R + R tr(R C)) + mu**2 * s2 * R,

the fourth moment taken as Gaussian.  A random +/-1 system with K of 16
taps nonzero has ``E[w_o w_o^T] = (K/16) I``, so ``C`` starts diagonal in
the eigenbasis of ``R`` and stays diagonal there: the recursion is one
16-vector, and the MSD is its sum.

The study's input is AR(1) with coefficient 0.8 rescaled to unit variance,
so ``R_ij = 0.8**|i-j|``.  Measured on the default study, LMS's steady
state reads 1.006-1.008 of theory at every level, and the study's
standard error is about 1.4%.

At 16/16 every tap is a nonzero +/-1, and the other rules add a bias to
LMS's spread.  To first order the mean weights solve ``mu R (w_o - w) =
kappa sgn(w_o)``: ``kappa`` is the leak, ``+mu*gamma`` for a multiplier of
``1 - mu*gamma`` and ``-mu*gamma`` for ``1 + mu*gamma``, plus the
shrinkage term at ``|w| = 1``, ``rho_pl*p/(epsilon_pl + 1)``.  For one
system the bias is ``||w_o - w||**2 = (kappa/mu)**2 s' R**-2 s`` with
``s = sgn(w_o)``; over the study's independent +/-1 tap signs it averages
to ``(kappa/mu)**2 tr(R**-2)``, with ``tr(R**-2) = 454.1``, so the
prediction holds for the Monte-Carlo mean and not for a single run.
The study reads 1.006, 0.993, 1.002 and 1.005 of this prediction
(lms, llms, lp_like_lms, lp_like_llms).  At levels 1, 4 and 8 the zero taps
sit where the shrinkage is not linear, and the leaky rules read 0.85-0.93
of the LMS recursion's prediction, a gap not yet explained; neither is
checked here.
"""

import numpy as np
import pytest

from sparselms import ExperimentConfig, Variant

# Relative tolerance of the steady-state check: about 2 stderr of the study.
RTOL = 0.03


def correlation(config):
    """The input's correlation matrix, ``R_ij = ar_coeff**|i-j|``."""
    lags = np.arange(config.n_taps)
    return config.ar_coeff ** np.abs(lags[:, None] - lags[None, :])


def lms_theory_msd(level, config):
    """Predicted MSD after each of ``config.iterations`` LMS updates from zero weights."""
    lam = np.linalg.eigvalsh(correlation(config))
    mu = config.schedule[(Variant.LMS, level)].mu
    d = np.full(config.n_taps, level / config.n_taps)
    msd = np.empty(config.iterations)
    for k in range(config.iterations):
        d = (
            d
            - 2 * mu * lam * d
            + mu**2 * (2 * lam**2 * d + lam * lam.dot(d))
            + mu**2 * config.noise_variance * lam
        )
        msd[k] = d.sum()
    return msd


@pytest.mark.parametrize("level", (1, 4, 8, 16))
def test_lms_steady_state_matches_the_gaussian_recursion(study, level):
    summaries, _ = study
    config = ExperimentConfig()
    window = config.steady_state_window
    predicted = lms_theory_msd(level, config)[-window:].mean()
    measured = summaries[(Variant.LMS, level)].mean
    assert measured == pytest.approx(predicted, rel=RTOL)


def test_every_rule_at_full_density_is_lms_plus_its_bias(study):
    summaries, _ = study
    config = ExperimentConfig()
    level = config.n_taps
    spread = lms_theory_msd(level, config)[-config.steady_state_window :].mean()
    R_inv = np.linalg.inv(correlation(config))
    trace = np.trace(R_inv @ R_inv)
    assert trace == pytest.approx(454.1, abs=0.05)
    predicted = {}
    for variant in Variant:
        cfg = config.schedule[(variant, level)]
        kappa = (1.0 - cfg.leak_mult) + cfg.rho_pl * cfg.p / (cfg.epsilon_pl + 1.0)
        predicted[variant] = spread + (kappa / cfg.mu) ** 2 * trace
        assert summaries[(variant, level)].mean == pytest.approx(predicted[variant], rel=RTOL)
    # the default leak sign's -mu*gamma partly cancels the shrinkage term
    order = [Variant.LMS, Variant.LP_LIKE_LLMS, Variant.LP_LIKE_LMS, Variant.LLMS]
    assert sorted(Variant, key=predicted.get) == order
    assert sorted(Variant, key=lambda v: summaries[(v, level)].mean) == order

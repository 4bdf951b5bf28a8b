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
(lms, llms, lp_like_lms, lp_like_llms).

The bias alone is a few percent of the MSD, inside the study's unpaired
stderr for the shrinkage rules.  Every rule sees LMS's realizations run for
run, so each run's tail mean minus LMS's cancels the shared spread (per-run
correlation 0.98, 0.95 and 0.87 for lp_like_llms, lp_like_lms and llms).
The mean of that paired difference reads 0.911, 0.888 and 0.832 of the
bias, with a paired stderr of 0.244, 0.161 and 0.099 of it (unpaired:
1.66, 0.71 and 0.27); each ratio is checked within 3 paired stderr of 1,
each difference above 0 by more than 3 paired stderr, and their
predicted order.  The shortfall below 1 is about the size of the leaky
rules' gap at the sparse levels, below.

At levels 1, 4 and 8 the zero taps sit where the shrinkage is not linear,
and the leaky rules read 0.85-0.93 of the LMS recursion's prediction, a
gap not yet explained; neither is checked here.
"""

import numpy as np
import pytest

from sparselms import ExperimentConfig, Variant

# Relative tolerance of the steady-state check: about 2 stderr of the study.
RTOL = 0.03
# The paired check's bound, in paired stderr, and the widest paired stderr of a
# measured/predicted ratio that lets it fail: the study's are 0.24, 0.16 and 0.10.
Z_BOUND = 3.0
PAIRED_STDERR_MAX = 0.3


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


def full_density_bias(variant, config):
    """Predicted ``(kappa/mu)**2 tr(R**-2)`` of ``variant`` at ``n_taps`` of ``n_taps``."""
    cfg = config.schedule[(variant, config.n_taps)]
    kappa = (1.0 - cfg.leak_mult) + cfg.rho_pl * cfg.p / (cfg.epsilon_pl + 1.0)
    R_inv = np.linalg.inv(correlation(config))
    return (kappa / cfg.mu) ** 2 * np.trace(R_inv @ R_inv)


def test_every_rule_at_full_density_is_lms_plus_its_bias(study):
    summaries, _ = study
    config = ExperimentConfig()
    level = config.n_taps
    spread = lms_theory_msd(level, config)[-config.steady_state_window :].mean()
    R_inv = np.linalg.inv(correlation(config))
    assert np.trace(R_inv @ R_inv) == pytest.approx(454.1, abs=0.05)
    predicted = {}
    for variant in Variant:
        predicted[variant] = spread + full_density_bias(variant, config)
        assert summaries[(variant, level)].mean == pytest.approx(predicted[variant], rel=RTOL)
    # the default leak sign's -mu*gamma partly cancels the shrinkage term
    order = [Variant.LMS, Variant.LP_LIKE_LLMS, Variant.LP_LIKE_LMS, Variant.LLMS]
    assert sorted(Variant, key=predicted.get) == order
    assert sorted(Variant, key=lambda v: summaries[(v, level)].mean) == order


def test_paired_differences_at_full_density_match_the_bias(study):
    # each run's tail mean minus LMS's on the same realizations: the shared
    # spread cancels, which leaves the bias with a stderr small enough to test
    _, curves = study
    config = ExperimentConfig()
    window = config.steady_state_window
    tails = {
        c.variant: c.run_tails[:, -window:].mean(axis=1)
        for c in curves
        if c.sparsity_level == config.n_taps
    }
    excess = {}
    for variant in (Variant.LP_LIKE_LLMS, Variant.LP_LIKE_LMS, Variant.LLMS):
        diff = tails[variant] - tails[Variant.LMS]
        excess[variant] = diff.mean()
        stderr = diff.std(ddof=1) / np.sqrt(diff.size)
        bias = full_density_bias(variant, config)
        assert stderr / bias < PAIRED_STDERR_MAX
        assert abs(excess[variant] / bias - 1.0) < Z_BOUND * stderr / bias
        assert excess[variant] > Z_BOUND * stderr
    order = [Variant.LP_LIKE_LLMS, Variant.LP_LIKE_LMS, Variant.LLMS]
    assert sorted(excess, key=excess.get) == order

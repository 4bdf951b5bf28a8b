"""An outside oracle: the study's LMS steady state against adaptive-filter theory.

Every other check of the study's numbers compares the rules with each other
or with the same rules coded another way.  This one compares LMS with the
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
standard error is about 1.4%.  The leaky rule is left out: on the study's
tap-delay input it reads 0.85-0.99 of the same model's prediction, a gap
not yet explained.
"""

import numpy as np
import pytest

from sparselms import ExperimentConfig, Variant

# Relative tolerance of the steady-state check: about 2 stderr of the study.
RTOL = 0.03


def lms_theory_msd(level, config):
    """Predicted MSD after each of ``config.iterations`` LMS updates from zero weights."""
    lags = np.arange(config.n_taps)
    R = config.ar_coeff ** np.abs(lags[:, None] - lags[None, :])
    lam = np.linalg.eigvalsh(R)
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

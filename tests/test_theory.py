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

The recursion holds in the steady state, not in the transient.  The
study's regressors are a tap-delay line, so consecutive ones share all but
one sample, and the independence assumption fails on such input (Mazo, "On
the independence theory of equalizer convergence", Bell Syst. Tech. J.
58(5), 1979): LMS's mean curve falls well below the recursion in the
transient, while the same update rule fed i.i.d. N(0, R) regressors
follows it throughout.  Both are checked below.

At levels 1, 4 and 8 the zero taps sit where the shrinkage is not linear,
and the leaky rules read 0.85-0.93 of the LMS recursion's prediction;
separate simulations put that gap in the mean weights, by the same
tap-delay mechanism, but no model of it is checked here.

At those levels the l_p-like rules are zero-attracting rules to within a
few percent (Chen, Gu & Hero, "Sparse LMS for system identification",
ICASSP 2009): with ``epsilon_pl = 10`` and ``|w| <~ 1`` the shrinkage's
denominator lies in [10, 11], a sign of nearly constant size.  A twin with
``epsilon_pl = 1e6`` and ``rho_pl`` rescaled to keep the shrinkage at
``|w| = 1`` is ZA to about 1e-6, and on paired runs its steady state lies
a little above the l_p-like rule's; the last check pins that gap.
"""

import dataclasses

import numpy as np
import pytest

from sparselms import ExperimentConfig, Variant, filter_core, gen_cell_realizations, run_experiment

# Relative tolerance of the steady-state check: about 2 stderr of the study.
RTOL = 0.03
# LMS's mean curve over iterations 1000-2000 lies below this share of the
# recursion at every level.
TRANSIENT_GAP = 0.8
# The burst's peak over iterations 3000-7999 exceeds these multiples of the
# steady-state mean and of the curve's largest value there more than
# BURST_WIDTH iterations away.
BURST_OVER_TAIL = 3.0
BURST_OVER_REST = 2.5
BURST_WIDTH = 200
# The paired check's bound, in paired stderr, and the widest paired stderr of a
# measured/predicted ratio that lets it fail: the study's are 0.24, 0.16 and 0.10.
Z_BOUND = 3.0
PAIRED_STDERR_MAX = 0.3
# The ZA twin's steady state over the l_p-like rule's lies in (1, ZA_RATIO_MAX) at
# levels 1, 4 and 8, more than ZA_Z_MIN paired stderr above 1.
ZA_RATIO_MAX = 1.09
ZA_Z_MIN = 8.0
# The i.i.d. control's blocks of iterations, each checked within Z_BOUND
# across-run stderr of the recursion.
IID_BLOCKS = (0, 50, 200, 500, 1000, 1500, 2000)


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


def iid_block_z(mu_scale):
    """LMS at ``mu_scale`` times the study's mu, fed i.i.d. N(0, R) regressors: per
    block of ``IID_BLOCKS``, the mean trace's distance from the recursion in
    across-run stderr.

    100 runs of 2000 iterations drive ``filter_core._advance`` on (taps x runs)
    regressors ``L @ z``, ``L`` the Cholesky factor of R and ``z`` drawn with
    seed 0, with the study's systems and noise at level 4; the desired row is
    the left fold of ``system * x`` plus the noise.
    """
    config = ExperimentConfig(runs=100, iterations=2000)
    level = 4
    n, runs, taps = config.iterations, config.runs, config.n_taps
    cfg = config.schedule[Variant.LMS, level]
    cfg = dataclasses.replace(cfg, mu=cfg.mu * mu_scale)
    systems, _, noises = gen_cell_realizations(
        config.master_seed, runs, taps, level, n,
        config.ar_coeff, config.drive_variance, config.noise_variance,
    )
    sT = systems.T
    L = np.linalg.cholesky(correlation(config))
    rng = np.random.default_rng(0)
    w = np.zeros((taps, runs))
    traces = np.empty((n, runs))
    for k in range(n):
        x = L @ rng.standard_normal((taps, runs))
        w, _ = filter_core._advance(w, x, filter_core._left_fold(sT * x) + noises[:, k], cfg)
        traces[k] = filter_core._left_fold((sT - w) ** 2)
    theory = lms_theory_msd(level, config)
    z = []
    for a, b in zip(IID_BLOCKS, IID_BLOCKS[1:]):
        per_run = traces[a:b].mean(axis=0)
        stderr = per_run.std(ddof=1) / np.sqrt(runs)
        z.append((per_run.mean() - theory[a:b].mean()) / stderr)
    return np.array(z)


def test_lms_on_iid_regressors_follows_the_gaussian_recursion_throughout():
    """An outside oracle for the whole transient, free of the input layout: fed
    i.i.d. regressors, the update rule follows the recursion in every block,
    within ``Z_BOUND`` = 3 across-run stderr.  The largest |z| reads 1.02 here
    (0.49-1.42 over regressor seeds 0-7), a margin of about 2 stderr.  The
    check has the power to see a wrong step size: with mu scaled by 1.1 the
    most negative z reads -11.0 (-9.0 to -13.8 over those seeds), and by 0.9
    the largest reads +7.1 (7.1 to 8.8).
    """
    assert np.abs(iid_block_z(1.0)).max() < Z_BOUND
    assert iid_block_z(1.1).min() < -Z_BOUND
    assert iid_block_z(0.9).max() > Z_BOUND


@pytest.mark.parametrize("level", (1, 4, 8, 16))
def test_lms_transient_lies_below_the_gaussian_recursion(study, level):
    """On tap-delay input LMS converges faster than the independence recursion
    predicts: over iterations 1000-2000 its mean curve reads 0.753, 0.685,
    0.634 and 0.631 of the recursion at levels 1, 4, 8 and 16, below
    ``TRANSIENT_GAP`` by 2.7 across-run stderr at level 1 (0.047 of 0.017)
    and 4.7-6.3 at the others.  Over 7500-8000, the steady-state window, it
    reads 1.006-1.008, which ``test_lms_steady_state_matches_the_gaussian_recursion``
    checks within ``RTOL``.
    """
    _, curves = study
    config = ExperimentConfig()
    lms = next(c for c in curves if c.variant is Variant.LMS and c.sparsity_level == level)
    block = slice(1000, 2000)
    ratio = lms.values[block].mean() / lms_theory_msd(level, config)[block].mean()
    assert ratio < TRANSIENT_GAP


@pytest.mark.parametrize("level", (1, 4, 8, 16))
def test_one_burst_peaks_every_rule_at_one_iteration(study, level):
    """One run of the default study (run 56 at seed 1234) bursts near
    iteration 5,800 and recovers before the steady-state window, so the
    steady-state checks do not see it, but every curve does.

    Over iterations 3000-7999 all four rules peak at one iteration per level
    (5831, 5826, 5820 and 5809 at levels 1, 4, 8 and 16).  The peak reads
    3.33-55.6 times the steady-state mean, above ``BURST_OVER_TAIL`` = 3 by
    11% in the lowest cell (``llms`` at 8; the next are ``lp_like_lms`` at 8,
    6.01, and ``llms`` at 4, 8.26), and 3.02-24.8 times the curve's largest
    value there more than ``BURST_WIDTH`` iterations away, above
    ``BURST_OVER_REST`` = 2.5 by 21% in the lowest (``llms`` at 8 again).
    The suspected cause is LMS's per-sample stability bound,
    ``mu*||x_k||**2 < 2`` (Sayed, 2003), which some runs cross without a
    burst.
    """
    summaries, curves = study
    start = 3000
    peaks = set()
    for curve in (c for c in curves if c.sparsity_level == level):
        late = curve.values[start:]
        k = int(np.argmax(late))
        peaks.add(start + k)
        far = np.abs(np.arange(late.size) - k) > BURST_WIDTH
        assert late[k] > BURST_OVER_TAIL * summaries[curve.variant, level].mean
        assert late[k] > BURST_OVER_REST * late[far].max()
    assert peaks == {{1: 5831, 4: 5826, 8: 5820, 16: 5809}[level]}


def zero_attracting(cfg):
    """``cfg`` with ``epsilon_pl = 1e6`` and the shrinkage at ``|w| = 1`` kept:
    a zero-attracting rule, ``rho_pl * p * sgn(w)`` to about 1e-6."""
    eps = 1e6
    rho_pl = cfg.rho_pl * (eps + 1) / (cfg.epsilon_pl + 1)
    return dataclasses.replace(cfg, epsilon_pl=eps, rho_pl=rho_pl)


def test_lp_like_rules_lie_just_below_their_zero_attracting_twins():
    """At levels 1, 4 and 8, on 50 paired runs of 4000 iterations, the ZA
    twin's steady-state mean reads 1.0716, 1.0344 and 1.0140 of
    ``lp_like_lms``'s and 1.0691, 1.0342 and 1.0176 of ``lp_like_llms``'s:
    the zero taps sit where the l_p-like shrinkage is weaker than ZA's.  Over
    master seeds 1-8 the ratios read 1.0131-1.0736, the highest below
    ``ZA_RATIO_MAX`` = 1.09 by 4.5 paired stderr, and the paired z
    11.6-31.2, above ``ZA_Z_MIN`` = 8; the per-run correlation is at least
    0.998.  The ratio falls as the level rises at every seed.  At the full
    200 x 8000 protocol the ratios read 1.069, 1.032 and 1.016 and 1.066,
    1.035 and 1.018.
    """
    base = ExperimentConfig(runs=50, iterations=4000, sparsity_levels=(1, 4, 8))
    twin = dataclasses.replace(
        base, schedule={k: zero_attracting(cfg) for k, cfg in base.schedule.items()}
    )
    rules = [Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS]
    window = base.steady_state_window
    ratios = {rule: [] for rule in rules}
    for lp, za in zip(run_experiment(base, rules), run_experiment(twin, rules)):
        assert (za.variant, za.sparsity_level) == (lp.variant, lp.sparsity_level)
        lp_tails = lp.run_tails[:, -window:].mean(axis=1)
        za_tails = za.run_tails[:, -window:].mean(axis=1)
        diff = za_tails - lp_tails
        ratio = za_tails.mean() / lp_tails.mean()
        assert 1.0 < ratio < ZA_RATIO_MAX
        assert diff.mean() > ZA_Z_MIN * diff.std(ddof=1) / np.sqrt(diff.size)
        ratios[lp.variant].append(ratio)
    for rule in rules:
        assert ratios[rule] == sorted(ratios[rule], reverse=True)

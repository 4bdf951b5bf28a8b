"""Monte-Carlo harness for sparse-system identification.

Runs (variant x sparsity) cells: each run draws a fresh sparse system,
AR(1) input, and observation noise from its own seeded stream, filters for
a fixed number of iterations, and records the squared weight deviation
``sum((w_true - w_est)**2)`` after every update.  Curves are these traces
averaged pointwise over runs.

All runs of a cell advance together through one engine, which updates a
(runs x taps) weight array one iteration at a time.  Each run only ever
reduces over its own taps, so its trace does not depend, bit for bit, on
which other runs share the batch.

Reproducibility contract: a cell's output is a pure function of
(ExperimentConfig, variant, sparsity level).  Runs use per-run RNG streams
and are reduced in run-index order, so results are bit-identical from one
invocation to the next, and all variants see identical realizations at a
given run index (paired comparisons).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionMismatchError, DivergenceError, ParameterError
from .filter_core import _SHRINKING, AlgorithmConfig, Variant
from .signal_gen import gen_cell_realizations

__all__ = [
    "ExperimentConfig",
    "MsdCurve",
    "SteadyStateSummary",
    "default_schedule",
    "msd",
    "run_trial",
    "run_cell",
    "run_experiment",
    "steady_state",
]

# A single trace sample above this aborts the cell: the step-level finite
# check catches overflow, this catches runaway-but-finite instability.
_TRACE_ABORT = 1e6

# Shrinkage weight per nonzero-tap count, and leakage factor per count.
_RHO_PL = {1: 0.003, 4: 0.002, 8: 0.0015, 16: 0.0001}
_GAMMA = {1: 0.005, 4: 0.005, 8: 0.005, 16: 0.0005}


def default_schedule():
    """Hyperparameters for every (variant, nonzero-count) cell of the default study.

    mu=0.015 throughout; p=0.5 and epsilon_pl=10 for the shrinkage variants;
    rho_pl and gamma vary with the nonzero-tap count (lighter shrinkage and
    leakage as the system becomes denser).
    """
    sched = {}
    for level in (1, 4, 8, 16):
        rho, gam = _RHO_PL[level], _GAMMA[level]
        sched[(Variant.LMS, level)] = AlgorithmConfig(Variant.LMS, mu=0.015)
        sched[(Variant.LLMS, level)] = AlgorithmConfig(Variant.LLMS, mu=0.015, gamma=gam)
        sched[(Variant.LP_LIKE_LMS, level)] = AlgorithmConfig(
            Variant.LP_LIKE_LMS, mu=0.015, rho_pl=rho, epsilon_pl=10.0, p=0.5
        )
        sched[(Variant.LP_LIKE_LLMS, level)] = AlgorithmConfig(
            Variant.LP_LIKE_LLMS, mu=0.015, gamma=gam, rho_pl=rho, epsilon_pl=10.0, p=0.5
        )
    return sched


@dataclass
class ExperimentConfig:
    """Full study description: protocol constants plus the parameter schedule.

    ``schedule`` maps ``(Variant, nonzero-count)`` to an
    :class:`~sparselms.filter_core.AlgorithmConfig`; ``None`` means
    :func:`default_schedule`.
    """

    n_taps: int = 16
    sparsity_levels: tuple = (1, 4, 8, 16)
    iterations: int = 8000
    runs: int = 200
    ar_coeff: float = 0.8
    drive_variance: float = 1e-3
    noise_variance: float = 1e-2
    master_seed: int = 1234
    schedule: dict = None
    steady_state_window: int = 500

    def __post_init__(self):
        if self.schedule is None:
            self.schedule = default_schedule()
        self.sparsity_levels = tuple(int(s) for s in self.sparsity_levels)
        if self.n_taps < 1:
            raise ParameterError(f"n_taps must be >= 1, got {self.n_taps}")
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if self.runs < 1:
            raise ParameterError(f"runs must be >= 1, got {self.runs}")
        if not 1 <= self.steady_state_window <= self.iterations:
            raise ParameterError(
                "steady_state_window must satisfy 1 <= window <= iterations="
                f"{self.iterations}, got {self.steady_state_window}"
            )
        if len(set(self.sparsity_levels)) != len(self.sparsity_levels):
            raise ParameterError(
                f"sparsity levels must not repeat, got {self.sparsity_levels}"
            )
        for s in self.sparsity_levels:
            if not 1 <= s <= self.n_taps:
                raise ParameterError(
                    f"sparsity level must satisfy 1 <= level <= n_taps={self.n_taps}, got {s}"
                )
        if not abs(self.ar_coeff) < 1:
            raise ParameterError(f"ar_coeff must satisfy |ar_coeff| < 1, got {self.ar_coeff}")
        if not self.drive_variance > 0:
            raise ParameterError(f"drive_variance must be > 0, got {self.drive_variance}")
        if not self.noise_variance >= 0:
            raise ParameterError(f"noise_variance must be >= 0, got {self.noise_variance}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ParameterError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}"
            )


@dataclass
class MsdCurve:
    """Per-iteration mean squared deviation for one (variant, sparsity) cell.

    ``run_tails`` holds each run's trailing trace window (runs x window) so
    that :func:`steady_state` can report a standard error across runs.
    """

    variant: Variant
    sparsity_level: int
    n_taps: int
    values: np.ndarray
    runs: int
    run_tails: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.shape[0] < 1:
            raise ParameterError("values must be a nonempty 1-d array")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ParameterError("MSD values must be finite and nonnegative")


@dataclass(frozen=True)
class SteadyStateSummary:
    """Trailing-window MSD mean and its standard error across runs."""

    variant: Variant
    sparsity_level: int
    mean: float
    stderr: float


def msd(true_w, est_w):
    """Squared deviation ``sum((true_w - est_w)**2)`` between weight vectors."""
    true_w = np.asarray(true_w, dtype=float)
    est_w = np.asarray(est_w, dtype=float)
    if true_w.shape != est_w.shape:
        raise DimensionMismatchError(
            f"weight vectors differ in length: {true_w.shape[0]} vs {est_w.shape[0]}"
        )
    d = true_w - est_w
    return float(np.dot(d, d))


def _run_batch(systems, xs, noises, cfg, iterations):
    """Adapt every run of a batch from zero weights, all runs together.

    Row r of ``systems`` (runs x taps), ``xs`` and ``noises`` (runs x at
    least ``iterations``) is one run's realization.  Returns the
    (runs x iterations) squared-deviation traces and, per run, the first
    iteration whose weights went non-finite (-1 if none); a diverged run's
    trace past that iteration is meaningless.
    """
    runs, n_taps = systems.shape
    xpad = np.concatenate([np.zeros((runs, n_taps - 1)), xs[:, :iterations]], axis=1)
    # regressors[r, k] is run r's window x[k], x[k-1], ..., a view: nothing
    # of size runs x iterations x taps is ever materialised
    regressors = sliding_window_view(xpad, n_taps, axis=1)[..., ::-1]
    mu, leak_mult = cfg.mu, cfg.leak_mult
    shrink = cfg.variant in _SHRINKING
    rho_pl, eps_pl, p = cfg.rho_pl, cfg.epsilon_pl, cfg.p
    pm = 1.0 - p
    w = np.zeros((runs, n_taps))
    traces = np.empty((runs, iterations))
    bad = np.full(runs, -1)
    # Only elementwise products and row sums: a batched dot product could
    # change a run's summation order with the batch size.  Overflow here is
    # divergence, which the finite check reports by value.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations):
            xk = regressors[:, k]
            e = noises[:, k] + (systems * xk).sum(axis=1) - (w * xk).sum(axis=1)
            new_w = leak_mult * w + (mu * e)[:, None] * xk
            if shrink:
                g = rho_pl * (p / (eps_pl + np.abs(w) ** pm))
                new_w = new_w - np.sign(w) * g
            w = new_w
            diff = systems - w
            traces[:, k] = (diff * diff).sum(axis=1)
            finite = np.isfinite(w).all(axis=1)
            if not finite.all():
                bad[~finite & (bad < 0)] = k
    return traces, bad


def _check_workers(workers):
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")


def run_trial(system, x, noise, cfg, iterations):
    """One full adaptation from zero weights; returns the deviation trace.

    At iteration k the desired sample is ``system . x_k + noise[k]`` with a
    zero-prehistory regressor; ``trace[k]`` is the squared deviation after
    the k-th update.

    Raises
    ------
    DivergenceError
        If the weights go non-finite, with the offending iteration index.
    """
    system = np.ascontiguousarray(system, dtype=float)
    x = np.ascontiguousarray(x, dtype=float)
    noise = np.ascontiguousarray(noise, dtype=float)
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if x.shape[0] < iterations or noise.shape[0] < iterations:
        raise DimensionMismatchError(
            f"input and noise must provide at least {iterations} samples, "
            f"got {x.shape[0]} and {noise.shape[0]}"
        )
    traces, bad = _run_batch(system[None], x[None], noise[None], cfg, iterations)
    if bad[0] >= 0:
        raise DivergenceError(
            f"weights became non-finite at iteration {bad[0]}", iteration=int(bad[0])
        )
    return traces[0]


def run_cell(variant, sparsity_level, config, workers=None):
    """Average one (variant, sparsity) cell over ``config.runs`` runs.

    Run r's realizations come from ``RngStream(master_seed, r)`` and depend
    only on r, so every variant's cell sees the same systems, inputs, and
    noise.  All runs advance together and traces are summed in run-index
    order.  ``workers`` (None or >= 1) does not change the work or the
    result.
    """
    _check_workers(workers)
    key = (variant, sparsity_level)
    if key not in config.schedule:
        raise ConfigError(
            f"schedule has no entry for ({variant.value}, {sparsity_level}/{config.n_taps})"
        )
    cfg = config.schedule[key]
    n = config.iterations
    length = n + config.n_taps
    tail_w = min(config.steady_state_window, n)

    systems, xs, noises = gen_cell_realizations(
        config.master_seed,
        config.runs,
        config.n_taps,
        sparsity_level,
        length,
        config.ar_coeff,
        config.drive_variance,
        config.noise_variance,
    )
    traces, bad = _run_batch(systems, xs, noises, cfg, n)

    acc = np.zeros(n)
    for r, trace in enumerate(traces):
        if bad[r] >= 0:
            raise DivergenceError(
                f"weights became non-finite at iteration {bad[r]} (run {r})",
                iteration=int(bad[r]),
                run=r,
            )
        if trace.max() > _TRACE_ABORT:
            k = int(np.argmax(trace > _TRACE_ABORT))
            raise DivergenceError(
                f"squared deviation exceeded {_TRACE_ABORT:g} at iteration {k} (run {r})",
                iteration=k,
                run=r,
            )
        acc += trace
    # a copy, so that the curve does not keep the whole trace array alive
    tails = traces[:, -tail_w:].copy()
    return MsdCurve(variant, sparsity_level, config.n_taps, acc / config.runs, config.runs, tails)


def run_experiment(config, variants=None, levels=None, workers=None):
    """Run all requested cells; defaults to every variant at every level."""
    _check_workers(workers)
    if variants is None:
        variants = list(Variant)
    if levels is None:
        levels = list(config.sparsity_levels)
    return [run_cell(v, s, config, workers=workers) for v in variants for s in levels]


def steady_state(curve, window):
    """Mean of the trailing ``window`` curve values, with across-run stderr.

    The standard error is computed from per-run trailing means when the
    curve carries them (and 0.0 otherwise, e.g. for hand-built curves).
    """
    n = curve.values.shape[0]
    if not 1 <= window <= n:
        raise ParameterError(f"window must satisfy 1 <= window <= {n}, got {window}")
    mean = float(curve.values[-window:].mean())
    stderr = 0.0
    tails = curve.run_tails
    if tails is not None and curve.runs > 1 and tails.shape[1] >= window:
        per_run = tails[:, -window:].mean(axis=1)
        stderr = float(per_run.std(ddof=1) / np.sqrt(curve.runs))
    return SteadyStateSummary(curve.variant, curve.sparsity_level, mean, stderr)

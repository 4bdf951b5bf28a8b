"""Monte-Carlo harness for sparse-system identification.

Runs (variant x sparsity) cells: each run draws a fresh sparse system,
AR(1) input, and observation noise from its own seeded stream, filters for
a fixed number of iterations, and records the squared weight deviation
``sum((w_true - w_est)**2)`` after every update.  Curves are these traces
averaged pointwise over runs.

The sparsity level is the unit of work.  A level's realizations and its
desired signal ``noise[k] + system . x_k`` are built once and shared by
every requested variant; each variant's runs then advance together through
one engine, which updates a (runs x taps) weight array one iteration at a
time.  Each run only ever reduces over its own taps, so its trace does not
depend, bit for bit, on which other runs share the batch.  Every requested
cell runs before an error is raised; the error is that of the first failing
cell in variant-major order, the order in which curves are returned.

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


# Iterations per block when the desired signal is formed: each block makes
# a temporary (runs x block x taps) product, so small blocks keep the peak
# memory of a long cell flat.
_DESIRED_BLOCK = 32


def _batch_signal(systems, xs, noises, iterations):
    """Regressors and desired signal of a batch, as the engine reads them.

    Row r of ``systems`` (runs x taps), ``xs`` and ``noises`` (runs x at
    least ``iterations``) is one run's realization.  Returns the
    (runs x iterations x taps) regressor windows ``x[k], x[k-1], ...`` (a
    view: nothing of that size is materialised) and ``noises`` itself,
    whose first ``iterations`` columns are overwritten in place with the
    desired samples ``noise[k] + system . x_k``.
    """
    runs, n_taps = systems.shape
    xpad = np.concatenate([np.zeros((runs, n_taps - 1)), xs[:, :iterations]], axis=1)
    regressors = sliding_window_view(xpad, n_taps, axis=1)[..., ::-1]
    # huge inputs overflow here; the engine reports that as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(0, iterations, _DESIRED_BLOCK):
            hi = min(b + _DESIRED_BLOCK, iterations)
            noises[:, b:hi] += (systems[:, None, :] * regressors[:, b:hi]).sum(axis=2)
    return regressors, noises


def _run_batch(systems, regressors, desired, cfg):
    """Adapt every run of a batch from zero weights, all runs together.

    ``regressors`` and ``desired`` come from :func:`_batch_signal`; row r
    of each, with row r of ``systems``, is one run.  Returns the
    (runs x iterations) squared-deviation traces and, per run, the first
    iteration whose weights went non-finite (-1 if none); a diverged run's
    trace past that iteration is meaningless.
    """
    runs, iterations, n_taps = regressors.shape
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
            e = desired[:, k] - (w * xk).sum(axis=1)
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
    # a copy: the desired signal is formed in it
    noise = np.array(noise, dtype=float)
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if x.shape[0] < iterations or noise.shape[0] < iterations:
        raise DimensionMismatchError(
            f"input and noise must provide at least {iterations} samples, "
            f"got {x.shape[0]} and {noise.shape[0]}"
        )
    regressors, desired = _batch_signal(system[None], x[None], noise[None], iterations)
    traces, bad = _run_batch(system[None], regressors, desired, cfg)
    if bad[0] >= 0:
        raise DivergenceError(
            f"weights became non-finite at iteration {bad[0]}", iteration=int(bad[0])
        )
    return traces[0]


def _run_variant(config, variant, level, systems, regressors, desired):
    """One cell on its level's shared signal: engine, checks, run-order mean."""
    key = (variant, level)
    if key not in config.schedule:
        raise ConfigError(
            f"schedule has no entry for ({variant.value}, {level}/{config.n_taps})"
        )
    traces, bad = _run_batch(systems, regressors, desired, config.schedule[key])
    cell = f"{variant.value} {level}/{config.n_taps}"
    acc = np.zeros(config.iterations)
    for r, trace in enumerate(traces):
        if bad[r] >= 0:
            raise DivergenceError(
                f"weights became non-finite at iteration {bad[r]} (run {r}, {cell})",
                iteration=int(bad[r]),
                run=r,
                variant=variant,
                level=level,
            )
        if trace.max() > _TRACE_ABORT:
            k = int(np.argmax(trace > _TRACE_ABORT))
            raise DivergenceError(
                f"squared deviation exceeded {_TRACE_ABORT:g} at iteration {k} (run {r}, {cell})",
                iteration=k,
                run=r,
                variant=variant,
                level=level,
            )
        acc += trace
    # a copy, so that the curve does not keep the whole trace array alive
    tails = traces[:, -min(config.steady_state_window, config.iterations):].copy()
    return MsdCurve(variant, level, config.n_taps, acc / config.runs, config.runs, tails)


def _run_level(config, variants, level):
    """Run the requested variants at one sparsity level on shared realizations.

    The level's realizations and desired signal are built once and every
    variant's engine reads them.  Returns one outcome per variant, in
    order: its :class:`MsdCurve`, or the ``ConfigError`` or
    ``DivergenceError`` that cell raised, so that the caller decides which
    error to report.
    """
    n = config.iterations
    systems, xs, noises = gen_cell_realizations(
        config.master_seed,
        config.runs,
        config.n_taps,
        level,
        n + config.n_taps,
        config.ar_coeff,
        config.drive_variance,
        config.noise_variance,
    )
    regressors, desired = _batch_signal(systems, xs, noises, n)
    outcomes = []
    for variant in variants:
        try:
            outcomes.append(_run_variant(config, variant, level, systems, regressors, desired))
        except (ConfigError, DivergenceError) as err:
            # without its traceback, whose frames would keep the cell's
            # (runs x iterations) traces alive until the error is raised
            outcomes.append(err.with_traceback(None))
    return outcomes


def _raise_first_error(outcomes):
    """Raise the first error among cell outcomes; else return the curves."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run_cell(variant, sparsity_level, config, workers=None):
    """Average one (variant, sparsity) cell over ``config.runs`` runs.

    This is :func:`run_experiment` for a single cell.  Run r's realizations
    come from ``RngStream(master_seed, r)`` and depend only on r, so every
    variant's cell sees the same systems, inputs, and noise.  All runs
    advance together and traces are summed in run-index order.
    ``workers`` (None or >= 1) does not change the work or the result.

    Raises
    ------
    ConfigError
        If the schedule has no entry for the cell.
    DivergenceError
        At the first diverging run in run-index order, naming the run,
        iteration, variant and level.
    """
    _check_workers(workers)
    return _raise_first_error(_run_level(config, [variant], sparsity_level))[0]


def run_experiment(config, variants=None, levels=None, workers=None):
    """Run all requested cells; defaults to every variant at every level.

    The sparsity level is the unit of work: each level's realizations and
    desired signal are built once and shared by all requested variants,
    and every cell runs before any error is raised.  Curves come back
    variant-major (all levels of the first variant, then the next).  If
    cells fail, the error raised is that of the first failing cell in the
    same variant-major order, which is the cell :func:`run_cell` calls
    made one by one in that order would have stopped at.
    """
    _check_workers(workers)
    # a list: every level iterates it
    variants = list(Variant) if variants is None else list(variants)
    if levels is None:
        levels = list(config.sparsity_levels)
    by_level = [_run_level(config, variants, s) for s in levels]
    return _raise_first_error([outcome for row in zip(*by_level) for outcome in row])


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

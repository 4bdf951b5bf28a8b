"""Monte-Carlo harness for sparse-system identification.

Runs (variant x sparsity) cells: each run draws a fresh sparse system,
AR(1) input, and observation noise from its own seeded stream, filters for
a fixed number of iterations, and records the squared weight deviation
``sum((w_true - w_est)**2)`` after every update.  Curves are these traces
averaged pointwise over runs.

The sparsity level is the unit of work: its realizations and desired
signal are built once and shared by every requested variant.  A request
is checked whole before any level is built; then every requested cell
runs before a divergence is raised, that of the first diverging cell in
variant-major order, the order of the curves.

The engine advances a variant's runs together on (taps x runs) arrays, the
input reversed in time so that each regressor ``x[k], x[k-1], ...`` is a
contiguous block of rows.  Every sum over taps is a left fold in tap order,
as in a scalar loop, so a run's trace is bit-identical in any batch.  Traces
and the finite check come from the weights stored over ``_BLOCK`` iterations.

Reproducibility contract: a cell's output is a pure function of
(ExperimentConfig, variant, sparsity level).  Runs use per-run RNG streams
and are reduced in run-index order, so results are bit-identical from one
invocation to the next, and all variants see identical realizations at a
given run index (paired comparisons).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    ParameterError,
    check_integer,
    quietly,
)
from .filter_core import AlgorithmConfig, Variant
from .signal_gen import gen_cell_realizations

__all__ = [
    "ExperimentConfig",
    "MsdCurve",
    "SteadyStateSummary",
    "default_schedule",
    "msd",
    "run_trial",
    "run_experiment",
    "steady_state",
]

# A single trace sample above this aborts the cell: the step-level finite
# check catches overflow, this catches runaway-but-finite instability.
_TRACE_ABORT = 1e6

# Shrinkage weight per nonzero-tap count, and leakage factor per count.
_RHO_PL = {1: 0.003, 4: 0.002, 8: 0.0015, 16: 0.0001}
_GAMMA = {1: 0.005, 4: 0.005, 8: 0.005, 16: 0.0005}


def _check_level(level, n_taps):
    """``level`` as an int if it is an integer in ``1..n_taps``; else a ParameterError."""
    level = int(check_integer("sparsity level", level))
    if not 1 <= level <= n_taps:
        raise ParameterError(
            f"sparsity level must satisfy 1 <= level <= n_taps={n_taps}, got {level}"
        )
    return level


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
    :class:`~sparselms.filter_core.AlgorithmConfig` of that variant; ``None``
    means :func:`default_schedule`, and ``steady_state_window`` ``None`` means
    ``min(500, iterations)``.
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
    steady_state_window: int = None

    def __post_init__(self):
        if self.schedule is None:
            self.schedule = default_schedule()
        if not isinstance(self.schedule, dict):
            raise ParameterError(f"schedule must be a dict, got {self.schedule!r}")
        for key, entry in self.schedule.items():
            variant, level = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not (isinstance(variant, Variant) and isinstance(level, numbers.Integral)):
                raise ParameterError(f"schedule key must be (Variant, integer level), got {key!r}")
            if not (isinstance(entry, AlgorithmConfig) and entry.variant is variant):
                raise ParameterError(
                    f"schedule entry ({variant.value}, {level}) must be an AlgorithmConfig "
                    f"of variant {variant.value}, got {entry!r}"
                )
        for name in ("n_taps", "iterations", "runs", "master_seed"):
            check_integer(name, getattr(self, name))
        if self.n_taps < 1:
            raise ParameterError(f"n_taps must be >= 1, got {self.n_taps}")
        self.sparsity_levels = tuple(_check_level(s, self.n_taps) for s in self.sparsity_levels)
        if self.steady_state_window is None:
            self.steady_state_window = min(500, self.iterations)
        check_integer("steady_state_window", self.steady_state_window)
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
        if not abs(self.ar_coeff) < 1:
            raise ParameterError(f"ar_coeff must satisfy |ar_coeff| < 1, got {self.ar_coeff}")
        if not 0 < self.drive_variance < math.inf:
            raise ParameterError(
                f"drive_variance must be finite and > 0, got {self.drive_variance}"
            )
        if not 0 <= self.noise_variance < math.inf:
            raise ParameterError(
                f"noise_variance must be finite and >= 0, got {self.noise_variance}"
            )
        if not 0 <= int(self.master_seed) < 2**64:
            raise ParameterError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}"
            )


@dataclass
class MsdCurve:
    """Per-iteration mean squared deviation for one (variant, sparsity) cell.

    ``run_tails`` holds each run's trailing trace window (runs x window), or
    is ``None``, so that :func:`steady_state` can report a standard error
    across runs.
    """

    variant: Variant
    sparsity_level: int
    n_taps: int
    values: np.ndarray
    runs: int
    run_tails: np.ndarray = None

    def __post_init__(self):
        if check_integer("runs", self.runs) < 1:
            raise ParameterError(f"runs must be >= 1, got {self.runs}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.shape[0] < 1:
            raise ParameterError("values must be a nonempty 1-d array")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ParameterError("MSD values must be finite and nonnegative")
        if self.run_tails is not None:
            self.run_tails = np.asarray(self.run_tails, dtype=float)
            if self.run_tails.ndim != 2 or self.run_tails.shape[0] != self.runs:
                raise ParameterError(
                    f"run_tails must be 2-d with runs={self.runs} rows, "
                    f"got shape {self.run_tails.shape}"
                )


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


# Iterations per block of stored weights; blocks of 8 and 16 raised a 200-run cell's peak RSS.
_BLOCK = 4


def _left_fold(a):
    """Left fold over axis -2; numpy's ``sum(axis=-2)`` is one only when the last axis is > 1."""
    if a.shape[-1] > 1:
        return a.sum(axis=-2)
    acc = a[..., 0, :].copy()
    for i in range(1, a.shape[-2]):
        acc += a[..., i, :]
    return acc


@quietly
def _batch_signal(systems, xs, noises, iterations):
    """The engine's ``(xr, systems.T, desired)`` from row-per-run realizations.

    ``xr`` is the input reversed in time, then ``taps - 1`` zeros: iteration
    k's regressor is its rows ``iterations-1-k`` onward.  ``desired[k]`` is
    ``noise[k] + s_0*x[k] + s_1*x[k-1] + ...``, summed in that order.
    """
    runs, n_taps = systems.shape
    xr = np.zeros((iterations + n_taps - 1, runs))
    xr[:iterations] = xs[:, iterations - 1 :: -1].T
    sT = np.ascontiguousarray(systems.T)
    desired = noises[:, :iterations].T.copy()
    for i in range(n_taps):
        desired += sT[i] * xr[i : i + iterations][::-1]
    return xr, sT, desired


@quietly
def _run_batch(xr, sT, desired, cfg):
    """Adapt every run of a batch (a column of each argument) from zero weights.

    Returns the (runs x iterations) squared-deviation traces and, per run,
    the first iteration whose weights went non-finite (-1 if none); a
    diverged run's trace past that iteration is meaningless.
    """
    iterations, runs = desired.shape
    n_taps = sT.shape[0]
    mu, leak_mult, shrink = cfg._operands
    hist = np.empty((_BLOCK, n_taps, runs))
    w = np.zeros((n_taps, runs))
    traces = np.empty((runs, iterations))
    bad = np.full(runs, -1)
    for b in range(0, iterations, _BLOCK):
        n = min(_BLOCK, iterations - b)
        for j in range(n):
            m = iterations - 1 - b - j
            xk = xr[m : m + n_taps]
            e = desired[b + j] - _left_fold(w * xk)
            e *= mu
            new_w = np.multiply(xk, e, hist[j])
            new_w += w if leak_mult is None else leak_mult * w  # 1.0 * w is w, bit for bit
            if shrink is not None:  # rho_pl * (p * sign(w) / (eps_pl + |w|**(1-p)))
                rho_pl, p, one_minus_p, eps_pl = shrink
                s = p * np.sign(w)
                s /= eps_pl + np.abs(w) ** one_minus_p
                s *= rho_pl
                new_w -= s
            w = new_w
        diff = sT - hist[:n]
        diff *= diff
        tr = _left_fold(diff)
        traces[:, b : b + n] = tr.T
        # finite traces imply finite weights; else find each run's first bad iteration
        if not np.isfinite(tr).all():
            finite = np.isfinite(hist[:n]).all(axis=1)
            first = ~finite.all(axis=0) & (bad < 0)
            bad[first] = b + np.argmin(finite[:, first], axis=0)
    return traces, bad


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
    noise = np.asarray(noise, dtype=float)
    if check_integer("iterations", iterations) < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if x.shape[0] < iterations or noise.shape[0] < iterations:
        raise DimensionMismatchError(
            f"input and noise must provide at least {iterations} samples, "
            f"got {x.shape[0]} and {noise.shape[0]}"
        )
    signal = _batch_signal(system[None], x[None], noise[None], iterations)
    traces, bad = _run_batch(*signal, cfg)
    if bad[0] >= 0:
        raise DivergenceError(
            f"weights became non-finite at iteration {bad[0]}", iteration=int(bad[0])
        )
    return traces[0]


def _run_variant(config, cfg, level, signal):
    """One cell on its level's shared signal: engine, checks, run-order mean."""
    variant = cfg.variant
    traces, bad = _run_batch(*signal, cfg)
    failed = (bad >= 0) | (traces.max(axis=1) > _TRACE_ABORT)
    if failed.any():
        r = int(np.argmax(failed))
        if bad[r] >= 0:
            k, what = int(bad[r]), "weights became non-finite"
        else:
            k = int(np.argmax(traces[r] > _TRACE_ABORT))
            what = f"squared deviation exceeded {_TRACE_ABORT:g}"
        cell = f"run {r}, {variant.value} {level}/{config.n_taps}"
        raise DivergenceError(
            f"{what} at iteration {k} ({cell})", iteration=k, run=r, variant=variant, level=level
        )
    # a copy, so that the curve does not keep the whole trace array alive
    tails = traces[:, -config.steady_state_window :].copy()
    mean = _left_fold(traces) / config.runs
    return MsdCurve(variant, level, config.n_taps, mean, config.runs, tails)


def _run_level(config, cfgs, level):
    """Run one sparsity level's cells, one per ``AlgorithmConfig``, on shared realizations.

    The level's realizations and desired signal are built once and every
    cell's engine reads them.  Returns one outcome per cell, in order: its
    :class:`MsdCurve`, or the ``DivergenceError`` it raised, so that the
    caller decides which error to report.
    """
    n = config.iterations
    systems, xs, noises = gen_cell_realizations(
        config.master_seed, config.runs, config.n_taps, level, n + config.n_taps,
        config.ar_coeff, config.drive_variance, config.noise_variance,
    )
    signal = _batch_signal(systems, xs, noises, n)
    del systems, xs, noises  # the engine's time-major copies replace them
    outcomes = []
    for cfg in cfgs:
        try:
            outcomes.append(_run_variant(config, cfg, level, signal))
        except DivergenceError as err:
            # without its traceback, whose frames would keep the cell's
            # (runs x iterations) traces alive until the error is raised
            outcomes.append(err.with_traceback(None))
    return outcomes


def run_experiment(config, variants=None, levels=None):
    """Run the requested cells; defaults to every variant at every configured level.

    This is the one way to run cells, and it checks the whole request
    before it builds any level.  Run r's realizations come from
    ``RngStream(master_seed, r)``, so every variant sees the same systems,
    inputs and noise.  A level's realizations and desired signal are built
    once and shared by its cells; a cell's curve is the same, bit for bit,
    whichever other cells are requested.  Curves come back variant-major
    (all levels of the first variant, then the next).

    Raises
    ------
    ParameterError
        If a variant is not a ``Variant`` or a level not an integer in ``1..n_taps``.
    ConfigError
        Naming the first cell, in variant-major order, without a schedule entry.
    DivergenceError
        Once every cell has run: the first diverging cell's in variant-major
        order, naming its first diverging run and the iteration.
    """
    # a list: every level iterates it
    variants = list(Variant) if variants is None else list(variants)
    for variant in variants:
        if not isinstance(variant, Variant):
            raise ParameterError(f"variants must be Variant members, got {variant!r}")
    if levels is None:
        levels = config.sparsity_levels
    else:
        levels = [_check_level(s, config.n_taps) for s in levels]
    missing = [(v, s) for v in variants for s in levels if (v, s) not in config.schedule]
    if missing:
        v, s = missing[0]
        raise ConfigError(f"schedule has no entry for ({v.value}, {s}/{config.n_taps})")
    by_level = [_run_level(config, [config.schedule[v, s] for v in variants], s) for s in levels]
    outcomes = [outcome for row in zip(*by_level) for outcome in row]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def steady_state(curve, window):
    """Mean of the trailing ``window`` curve values, with across-run stderr.

    The standard error is computed from per-run trailing means when the
    curve carries them (and 0.0 otherwise, e.g. for hand-built curves or a
    single run).  A window wider than the stored per-run tails raises.
    """
    n = curve.values.shape[0]
    check_integer("window", window)
    if not 1 <= window <= n:
        raise ParameterError(f"window must satisfy 1 <= window <= {n}, got {window}")
    mean = float(curve.values[-window:].mean())
    stderr = 0.0
    tails = curve.run_tails
    if tails is not None and curve.runs > 1:
        if tails.shape[1] < window:
            raise ParameterError(
                f"window {window} is wider than the curve's stored run tails, "
                f"{tails.shape[1]} iterations wide"
            )
        per_run = tails[:, -window:].mean(axis=1)
        stderr = float(per_run.std(ddof=1) / np.sqrt(curve.runs))
    return SteadyStateSummary(curve.variant, curve.sparsity_level, mean, stderr)

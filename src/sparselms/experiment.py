"""Monte-Carlo harness for sparse-system identification.

It runs the (variant x sparsity) cells of a study, which
:mod:`sparselms.config` describes: each run draws a fresh sparse system,
AR(1) input, and observation noise from its own seeded stream, filters for
a fixed number of iterations, and records the squared weight deviation
``sum((w_true - w_est)**2)`` after every update.  Curves are these traces
averaged pointwise over runs.

The sparsity level is the unit of work: its realizations and desired
signal are built once and shared by every requested variant.  A request
is checked whole before any level is built.  Cells then run in one order,
levels ascending and at each level the rules in ``Variant`` order, and
the first cell to diverge raises at once: no later cell runs.

The engine advances a variant's runs together on (taps x runs) arrays, the
input reversed in time so that each regressor ``x[k], x[k-1], ...`` is a
contiguous block of rows.  Each update is ``filter_core._advance``, the one
that :func:`~sparselms.filter_core.step` makes, and every sum over taps is
``filter_core._left_fold``, a left fold in tap order, as in a scalar loop; so
a run's trace is bit-identical in any batch and to a loop of steps.  Traces
and the finite check come from the weights stored over ``_BLOCK`` iterations.

So the engine keeps README's reproducibility contract: run r draws from
``RngStream(master_seed, r)`` whichever cells are requested, and traces are
reduced in run-index order, so a cell's output is a pure function of
(ExperimentConfig, variant, sparsity level).
"""

from dataclasses import dataclass

import numpy as np

from . import config as _config
from .errors import (
    NON_FINITE,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    ParameterError,
    as_floats,
    as_tuple,
    as_vector,
    check_count,
    check_instance,
    check_integer,
    quietly,
)
from .filter_core import AlgorithmConfig, Variant, _advance, _left_fold
from .signal_gen import gen_cell_realizations

__all__ = [
    "MsdCurve",
    "SteadyStateSummary",
    "msd",
    "run_trial",
    "run_experiment",
    "steady_state",
]

# A single trace sample above this fails its run: the finite check catches
# overflow, this catches runaway-but-finite instability.
_TRACE_ABORT = 1e6


@dataclass(eq=False)
class MsdCurve:
    """Per-iteration mean squared deviation for one (variant, sparsity) cell.

    ``run_tails`` holds each run's trailing trace window (runs x window, no wider
    than ``values`` and, like it, nonnegative and finite), or is ``None``, so that
    :func:`steady_state` can report a standard error across runs.  A curve
    compares and hashes by identity, as an array has no one truth value.
    """

    variant: Variant
    sparsity_level: int
    n_taps: int
    values: np.ndarray
    runs: int
    run_tails: np.ndarray = None

    def __post_init__(self):
        check_instance("variant", self.variant, Variant)
        self.n_taps = check_count("n_taps", self.n_taps)
        self.sparsity_level = _config._check_level(self.sparsity_level, self.n_taps)
        self.runs = check_count("runs", self.runs)
        self.values = as_floats("values", self.values)
        if self.values.ndim != 1 or self.values.shape[0] < 1:
            raise ParameterError("values must be a nonempty 1-d array")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ParameterError("MSD values must be nonnegative and finite")
        if self.run_tails is not None:
            self.run_tails = tails = as_floats("run_tails", self.run_tails)
            if tails.ndim != 2 or tails.shape[0] != self.runs:
                raise ParameterError(
                    f"run_tails must be 2-d with runs={self.runs} rows, got shape {tails.shape}"
                )
            if tails.shape[1] > self.values.shape[0]:
                raise ParameterError(
                    f"run_tails must be at most len(values) = {self.values.shape[0]} columns "
                    f"wide, got shape {tails.shape}"
                )
            if not np.isfinite(tails).all() or (tails < 0).any():
                raise ParameterError("run_tails must be nonnegative and finite")


@dataclass(frozen=True)
class SteadyStateSummary:
    """Trailing-window MSD mean and its standard error across runs."""

    variant: Variant
    sparsity_level: int
    mean: float
    stderr: float


@quietly
def msd(true_w, est_w):
    """Squared deviation ``sum((true_w - est_w)**2)`` between weight vectors."""
    true_w = as_floats("true_w", true_w)
    est_w = as_floats("est_w", est_w)
    if true_w.ndim > 1 or true_w.shape != est_w.shape:
        raise DimensionMismatchError(
            f"weight vectors must be 1-d of one length, got shapes {true_w.shape} and {est_w.shape}"
        )
    d = np.ravel(true_w - est_w)  # a scalar is one tap
    return _left_fold(d * d) if d.size else 0.0


# Iterations per block of stored weights; blocks of 8 and 16 raised a 200-run
# cell's peak RSS by 0.1 and 1 MB.
_BLOCK = 4


@quietly
def _batch_signal(realizations, iterations):
    """The engine's ``(xr, systems.T, desired)`` from row-per-run realizations.

    ``realizations`` is a list ``[systems, xs, noises]``, which is emptied once
    they are copied, so that the tap loop does not hold a level's realization
    buffer: a level's generation and layout peak at 2 such buffers (a test
    checks 2.1).  ``xr`` is the input reversed in time, then ``taps - 1`` zeros:
    iteration k's regressor is its rows ``iterations-1-k`` onward.
    ``desired[k]`` is ``noise[k] + s_0*x[k] + s_1*x[k-1] + ...``, summed in
    that order.
    """
    systems, xs, noises = realizations
    realizations.clear()
    runs, n_taps = systems.shape
    xr = np.zeros((iterations + n_taps - 1, runs))
    xr[:iterations] = xs[:, iterations - 1 :: -1].T
    sT = np.ascontiguousarray(systems.T)
    desired = noises[:, :iterations].T.copy()
    del systems, xs, noises
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
    hist = np.empty((_BLOCK, n_taps, runs))
    w = np.zeros((n_taps, runs))
    traces = np.empty((runs, iterations))
    bad = np.full(runs, -1)
    for b in range(0, iterations, _BLOCK):
        n = min(_BLOCK, iterations - b)
        for j in range(n):
            m = iterations - 1 - b - j
            w, _ = _advance(w, xr[m : m + n_taps], desired[b + j], cfg, hist[j])
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
        If the run fails by the cells' rule (see :func:`_check_runs`), with the
        offending iteration index.
    """
    system = as_vector("system", system, taps=True)
    x = as_vector("x", x)
    noise = as_vector("noise", noise)
    check_instance("cfg", cfg, AlgorithmConfig)
    check_count("iterations", iterations)
    if x.shape[0] < iterations or noise.shape[0] < iterations:
        raise DimensionMismatchError(
            f"input and noise must provide at least {iterations} samples, "
            f"got {x.shape[0]} and {noise.shape[0]}"
        )
    signal = _batch_signal([system[None], x[None], noise[None]], iterations)
    traces, bad = _run_batch(*signal, cfg)
    _check_runs(traces, bad)
    return traces[0]


def _check_runs(traces, bad, variant=None, level=None, n_taps=None):
    """Raise the DivergenceError of a batch's first failed run, if any.

    A run fails where its weights go non-finite (``bad``, from ``_run_batch``)
    or, if they never do, where its trace first exceeds ``_TRACE_ABORT``.  With
    a ``variant``, the error names the run and its cell, of ``level``/``n_taps``.
    """
    failed = (bad >= 0) | (traces.max(axis=1) > _TRACE_ABORT)
    if not failed.any():
        return
    r = int(np.argmax(failed))
    if bad[r] >= 0:
        k, what = int(bad[r]), NON_FINITE
    else:
        k = int(np.argmax(traces[r] > _TRACE_ABORT))
        what = f"squared deviation exceeded {_TRACE_ABORT:g}"
    if variant is None:
        raise DivergenceError(f"{what} at iteration {k}", iteration=k)
    raise DivergenceError(
        f"{what} at iteration {k} (run {r}, {variant.value} {level}/{n_taps})",
        iteration=k, run=r, variant=variant, level=level,
    )


def _run_variant(config, cfg, level, signal):
    """One cell on its level's shared signal: engine, checks, run-order mean."""
    traces, bad = _run_batch(*signal, cfg)
    _check_runs(traces, bad, cfg.variant, level, config.n_taps)
    # a copy, so that the curve does not keep the whole trace array alive
    tails = traces[:, -config.steady_state_window :].copy()
    mean = _left_fold(traces) / config.runs
    return MsdCurve(cfg.variant, level, config.n_taps, mean, config.runs, tails)


def _run_level(config, cfgs, level):
    """Run one sparsity level's cells, one per ``AlgorithmConfig``, on shared realizations.

    The level's realizations and desired signal are built once and every
    cell's engine reads them.  Returns the cells' curves in order; the first
    cell that diverges raises, and no later cell runs.
    """
    n = config.iterations
    realizations = list(gen_cell_realizations(
        config.master_seed, config.runs, config.n_taps, level, n + config.n_taps,
        config.ar_coeff, config.drive_variance, config.noise_variance,
    ))
    signal = _batch_signal(realizations, n)
    return [_run_variant(config, cfg, level, signal) for cfg in cfgs]


def run_experiment(config, variants=None, levels=None):
    """Run the requested cells; defaults to every variant at every configured level.

    This is the one way to run cells, and it checks the whole request
    before it builds any level.  Cells run in one order, whatever the order
    of ``variants`` and ``levels``: levels ascending, and at each level the
    rules in ``Variant`` order.  Run r's realizations come from
    ``RngStream(master_seed, r)``, so every variant sees the same systems,
    inputs and noise.  A level's realizations and desired signal are built
    once and shared by its cells; a cell's curve is the same, bit for bit,
    whichever other cells are requested.  Curves come back in the CSV's
    order: by rule in ``Variant`` order, then by level ascending.

    Raises
    ------
    ParameterError
        If a variant is not a ``Variant``, a level not an integer in
        ``1..n_taps``, or a variant or level is requested twice.
    ConfigError
        Naming the first cell, in run order, without a schedule entry.
    DivergenceError
        From the first cell, in run order, that diverges, naming its first
        diverging run and the iteration; no later cell runs.
    """
    check_instance("config", config, _config.ExperimentConfig)
    variants = tuple(Variant) if variants is None else as_tuple("variants", variants)
    for variant in variants:
        check_instance("variants", variant, Variant)
    if len(set(variants)) != len(variants):
        raise ParameterError(f"variants must not repeat, got {tuple(v.value for v in variants)}")
    levels = config.sparsity_levels if levels is None else levels
    levels = sorted(_config._check_levels("levels", levels, config.n_taps))
    variants = [v for v in Variant if v in variants]
    missing = [(v, s) for s in levels for v in variants if (v, s) not in config.schedule]
    if missing:
        v, s = missing[0]
        raise ConfigError(f"schedule has no entry for ({v.value}, {s}/{config.n_taps})")
    levels = levels if variants else ()  # else each level is drawn for no cell
    by_level = [_run_level(config, [config.schedule[v, s] for v in variants], s) for s in levels]
    return [curve for row in zip(*by_level) for curve in row]


@quietly
def steady_state(curve, window):
    """Mean of the trailing ``window`` curve values, with across-run stderr.

    The standard error is computed from per-run trailing means when the
    curve carries them (and 0.0 otherwise, e.g. for hand-built curves or a
    single run).  A window wider than the stored per-run tails raises.
    """
    n = check_instance("curve", curve, MsdCurve).values.shape[0]
    check_integer("window", window, 1, n)
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

"""The one copy of each reference that the tests compare the package against.

``run_inputs`` draws one run as a cell draws it, ``step_trial`` runs a trial
as a loop of the one-sample ``step``, ``left_fold`` sums in order, and
``run_python`` runs a child interpreter.  The guards each have one copy too:
``raising`` calls under a raising error state, ``traced_peak`` measures a
call's memory, and ``curve_bytes`` is what two studies' curves compare by.
"""

import subprocess
import sys
import tracemalloc

import numpy as np

from sparselms import (
    DivergenceError,
    FilterState,
    RngStream,
    gen_ar1_input,
    gen_gaussian_noise,
    gen_sparse_system,
    msd,
    regressor_at,
    step,
)


def run_inputs(seed, run=0, level=4, length=216, n_taps=16):
    """Run ``run``'s ``(system, x, noise)``, drawn from ``RngStream(seed, run)`` by the
    single-run generators at the study's AR(1) 0.8, drive 1e-3 and noise 1e-2."""
    stream = RngStream(seed, run)
    system = gen_sparse_system(n_taps, level, stream)
    x = gen_ar1_input(length, 0.8, 1e-3, stream)
    noise = gen_gaussian_noise(length, 1e-2, stream)
    return system, x, noise


def step_trial(system, x, noise, cfg, iterations):
    """The trial as a loop of ``step`` calls from zero weights; returns (trace, bad).

    The desired sample is summed as the engine sums it: ``noise[k]`` first,
    then ``system[i] * x[k-i]`` in tap order.  ``trace[k]`` is ``msd`` after
    update k; ``bad`` is the iteration whose step diverged, -1 if none.
    """
    n_taps = len(system)
    state = FilterState.zeros(n_taps)
    trace = np.empty(iterations)
    for k in range(iterations):
        xk = regressor_at(x[:iterations], k, n_taps)
        d = float(noise[k])
        for s_i, x_i in zip(system.tolist(), xk.tolist()):
            d += s_i * x_i
        try:
            state, _ = step(state, xk, d, cfg)
        except DivergenceError as err:
            return trace, err.iteration
        trace[k] = msd(system, state.weights)
    return trace, -1


def left_fold(values):
    """``values[0] + values[1] + ...``, added left to right: a list of floats to
    a float, or an array's rows to a row."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def run_python(*args, env):
    """A child Python run with ``args`` in ``env``, its output captured as text."""
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def raising(f, *args):
    """``f(*args)`` under ``np.errstate(all="raise")``; checks that the state is kept."""
    with np.errstate(all="raise"):
        state = np.geterr()
        try:
            return f(*args)
        finally:
            assert np.geterr() == state


def traced_peak(f, *args):
    """The ``tracemalloc`` peak in bytes of a second ``f(*args)``; the first call
    leaves numpy's lazy imports out of it."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def curve_bytes(curves):
    """Each curve's ``(variant, level, values bytes, run_tails bytes)``."""
    return [(c.variant, c.sparsity_level, c.values.tobytes(), c.run_tails.tobytes())
            for c in curves]

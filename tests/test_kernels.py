"""The run-batched numpy engine against a scalar reference loop.

``scalar_trial`` is the plain-Python form of one trial (tap by tap, one
scalar at a time).  It shares no code with ``experiment._run_batch`` or with
``filter_core.step``, so agreement with it checks the engine's arithmetic,
not just its consistency with itself.  The engine and ``step`` sum over taps
in the same left-to-right order, so all three agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    AlgorithmConfig,
    DivergenceError,
    FilterState,
    LeakSign,
    RngStream,
    Variant,
    default_schedule,
    step,
)
from sparselms.experiment import _batch_signal, _left_fold, _run_batch
from sparselms.signal_gen import (
    gen_ar1_input,
    gen_cell_realizations,
    gen_gaussian_noise,
    gen_sparse_system,
    regressor_at,
)


def array_pow(x, e):
    """``x ** e`` for one float, rounded as numpy's array power rounds it.

    numpy takes an array to the power 0.5 with a correctly rounded square
    root, and to other powers with its own (possibly SIMD) loop; Python's
    ``x ** e`` calls libm ``pow``, whose last bit differs from both on some
    inputs.
    """
    if e == 0.5:
        return math.sqrt(x)
    return float((np.array([x]) ** e)[0])


def scalar_trial(system, x, noise, cfg, iterations):
    """One trial from zero weights, scalar form; returns (trace, bad).

    ``trace[k]`` is ``sum((system - w)**2)`` after update ``k``; ``bad`` is
    the first iteration whose weights went non-finite, -1 if none.
    """
    n_taps = len(system)
    xpad = [0.0] * (n_taps - 1) + [float(v) for v in x[:iterations]]
    w = [0.0] * n_taps
    shrink = cfg.variant in (Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS)
    mu, leak_mult = cfg.mu, cfg.leak_mult
    rho_pl, eps_pl, p = cfg.rho_pl, cfg.epsilon_pl, cfg.p
    pm = 1.0 - p
    trace = np.empty(iterations)
    for k in range(iterations):
        base = k + n_taps - 1
        y = 0.0
        d = float(noise[k])
        for i in range(n_taps):
            xi = xpad[base - i]
            y += w[i] * xi
            d += float(system[i]) * xi
        mu_e = mu * (d - y)
        dev = 0.0
        ok = True
        for i in range(n_taps):
            wi = w[i]
            nw = leak_mult * wi + mu_e * xpad[base - i]
            if shrink:
                if wi > 0.0:
                    nw -= rho_pl * (p / (eps_pl + array_pow(wi, pm)))
                elif wi < 0.0:
                    nw += rho_pl * (p / (eps_pl + array_pow(-wi, pm)))
            w[i] = nw
            diff = float(system[i]) - nw
            dev += diff * diff
            ok = ok and math.isfinite(nw)
        trace[k] = dev
        if not ok:
            return trace, k
    return trace, -1


def engine(systems, xs, noises, cfg, iterations):
    return _run_batch(*_batch_signal(systems, xs, noises, iterations), cfg)


def numpy_trial(system, x, noise, cfg, iterations):
    traces, bad = engine(system[None], x[None], noise[None], cfg, iterations)
    return traces[0], int(bad[0])


def make_trial_inputs(seed, n_taps=16, iterations=400):
    stream = RngStream(seed)
    system = gen_sparse_system(n_taps, 4, stream)
    x = gen_ar1_input(iterations + n_taps, 0.8, 1e-3, stream)
    noise = gen_gaussian_noise(iterations + n_taps, 1e-2, stream)
    return system, x, noise


def assert_rows_equal_scalar(traces, bad, rows, refs):
    """Each engine row equals its scalar trial: divergence iteration and trace up to it."""
    for r, (ref, ref_bad) in enumerate(refs):
        assert bad[r] == ref_bad, f"row {rows[r]}"
        stop = traces.shape[1] if ref_bad < 0 else ref_bad + 1
        np.testing.assert_array_equal(traces[r, :stop], ref[:stop], err_msg=f"row {rows[r]}")


@pytest.mark.parametrize("variant", list(Variant))
def test_backend_parity(variant):
    # identical arithmetic, so every row at every batch width equals its
    # scalar trial bit for bit: batch neighbours must not leak in
    cfg = default_schedule()[(variant, 4)]
    rows = [make_trial_inputs(seed) for seed in range(99, 116)]
    refs = [scalar_trial(*row, cfg, 400) for row in rows]
    assert all(ref_bad == -1 for _, ref_bad in refs)
    for width in (1, 2, 5, 17):
        systems, xs, noises = (np.stack(parts) for parts in zip(*rows[:width]))
        traces, bad = engine(systems, xs, noises, cfg, 400)
        assert_rows_equal_scalar(traces, bad, list(range(width)), refs[:width])


@pytest.mark.parametrize("trial", [numpy_trial, scalar_trial], ids=["numpy", "scalar"])
def test_backend_is_bit_deterministic(trial):
    system, x, noise = make_trial_inputs(101)
    cfg = default_schedule()[(Variant.LP_LIKE_LLMS, 4)]
    a, bad_a = trial(system, x, noise, cfg, 400)
    b, bad_b = trial(system, x, noise, cfg, 400)
    assert bad_a == bad_b == -1
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("level", [1, 16])
def test_protocol_rows_equal_scalar_over_all_iterations(level):
    # rows 0 and 199 of the default study's cells at this level, over all
    # 8000 iterations (a row's trace does not depend on its batch)
    n = 8000
    systems, xs, noises = gen_cell_realizations(1234, 200, 16, level, n + 16, 0.8, 1e-3, 1e-2)
    rows = [0, 199]
    for variant in Variant:
        cfg = default_schedule()[(variant, level)]
        traces, bad = engine(systems[rows], xs[rows], noises[rows], cfg, n)
        refs = [scalar_trial(systems[r], xs[r], noises[r], cfg, n) for r in rows]
        assert_rows_equal_scalar(traces, bad, rows, refs)


def left_fold(a):
    acc = a[0].copy()
    for row in a[1:]:
        acc += row
    return acc


@pytest.mark.parametrize("width", [1, 2, 3, 5, 17, 200])
def test_numpy_axis0_sum_is_a_left_fold(width):
    # The engine's tap sums rely on numpy reducing a C-contiguous
    # (taps x runs) array over axis 0 one row after another for two runs or
    # more, and on add.accumulate for one; if a numpy release changes that
    # order, this fails instead of the CSV drifting.
    rng = np.random.default_rng(width)
    a = rng.standard_normal((16, width)) * 10.0 ** rng.uniform(-8, 8, (16, width))
    assert not np.array_equal(left_fold(a), left_fold(a[::-1]))  # the data shows the order
    np.testing.assert_array_equal(_left_fold(a), left_fold(a))
    # the per-block traces fold a (block x taps x runs) array the same way
    b = rng.standard_normal((8, 16, width)) * 10.0 ** rng.uniform(-8, 8, (8, 16, width))
    np.testing.assert_array_equal(_left_fold(b), left_fold(b.transpose(1, 0, 2)))
    if width > 1:  # at width 1 numpy's sum is not a left fold
        np.testing.assert_array_equal(np.sum(a, axis=0), left_fold(a))
        np.testing.assert_array_equal(np.sum(b, axis=1), left_fold(b.transpose(1, 0, 2)))


@pytest.mark.parametrize("variant", [Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS])
def test_shrinkage_of_a_zero_weight_is_zero_even_if_its_size_overflows(variant):
    # rho_pl * p / epsilon_pl overflows here; sign(0) = 0 must still win, as
    # in step, instead of 0 * inf turning a zero weight into NaN
    cfg = AlgorithmConfig(variant, mu=0.015, gamma=0.005, rho_pl=1.0, epsilon_pl=1e-310)
    system, x, noise = make_trial_inputs(5, iterations=40)
    trace, bad = numpy_trial(system, x, noise, cfg, 40)
    ref, ref_bad = scalar_trial(system, x, noise, cfg, 40)
    assert bad == ref_bad == -1
    np.testing.assert_array_equal(trace, ref)


def step_trial(system, x, noise, cfg, iterations):
    """The trial as a loop of ``filter_core.step`` calls; returns (trace, bad).

    The desired sample and the trace are summed as the engine sums them:
    ``noise[k]`` first, then ``system[i] * x[k-i]`` in tap order, and the
    squared deviations as a left fold in tap order.
    """
    n_taps = len(system)
    state = FilterState.zeros(n_taps)
    trace = np.empty(iterations)
    # the deviation of huge but finite weights overflows, as in the engine
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations):
            xk = regressor_at(x[:iterations], k, n_taps)
            d = float(noise[k])
            for s_i, x_i in zip(system.tolist(), xk.tolist()):
                d += s_i * x_i
            try:
                state, _ = step(state, xk, d, cfg)
            except DivergenceError as err:
                return trace, err.iteration
            dev = system - state.weights
            trace[k] = np.add.accumulate(dev * dev)[-1]
    return trace, -1


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    # log-uniform step sizes, from negligible through the edge of stability
    # (about 0.1 for 16 taps) to far past it, where about half the runs
    # overflow part way through
    log_mu=st.floats(-4.0, 8.0),
    gamma=st.floats(0.0, 0.99),
    # Small epsilon_pl and large rho_pl make the shrinkage chatter about w = 0
    # with a slope that magnifies any rounding difference (about 3x per
    # iteration at epsilon_pl = rho_pl = 1/32); the step loop rounds as the
    # engine does, so the two agree there too.  The default study uses
    # epsilon_pl = 10, rho_pl <= 0.003.
    rho_pl=st.floats(0.0, 0.05),
    epsilon_pl=st.floats(0.5, 20.0),
    p=st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
    leak_sign=st.sampled_from(list(LeakSign)),
    seed=st.integers(0, 2**32 - 1),
    n_taps=st.integers(1, 20),
    iterations=st.integers(1, 120),
    width=st.integers(1, 6),
)
def test_engine_matches_references(
    variant, log_mu, gamma, rho_pl, epsilon_pl, p, leak_sign, seed, n_taps, iterations, width
):
    cfg = AlgorithmConfig(
        variant,
        mu=10.0**log_mu,
        gamma=gamma,
        rho_pl=rho_pl,
        epsilon_pl=epsilon_pl,
        p=p,
        leak_sign=leak_sign,
    )
    level = 1 + seed % n_taps
    systems, xs, noises = gen_cell_realizations(
        seed, width, n_taps, level, iterations + n_taps, 0.8, 1e-3, 1e-2
    )
    traces, bad = engine(systems, xs, noises, cfg, iterations)
    rows = list(range(width))
    refs = [scalar_trial(systems[r], xs[r], noises[r], cfg, iterations) for r in rows]
    assert_rows_equal_scalar(traces, bad, rows, refs)
    for r in rows:
        ref, ref_bad = step_trial(systems[r], xs[r], noises[r], cfg, iterations)
        assert ref_bad == bad[r], f"row {r}"
        stop = iterations if ref_bad < 0 else ref_bad
        np.testing.assert_array_equal(traces[r, :stop], ref[:stop], err_msg=f"row {r}")

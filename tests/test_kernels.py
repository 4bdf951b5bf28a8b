"""The run-batched numpy engine against a scalar reference loop.

``scalar_trial`` is the plain-Python form of one trial (tap by tap, one
scalar at a time).  It shares no code with ``experiment._run_batch`` or with
``filter_core.step``, so agreement with it checks the engine's arithmetic,
not just its consistency with itself.
"""

import math

import numpy as np
import pytest

from sparselms import RngStream, Variant, default_schedule
from sparselms.experiment import _run_batch
from sparselms.signal_gen import gen_ar1_input, gen_gaussian_noise, gen_sparse_system


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
                    nw -= rho_pl * (p / (eps_pl + wi**pm))
                elif wi < 0.0:
                    nw += rho_pl * (p / (eps_pl + (-wi) ** pm))
            w[i] = nw
            diff = float(system[i]) - nw
            dev += diff * diff
            ok = ok and math.isfinite(nw)
        trace[k] = dev
        if not ok:
            return trace, k
    return trace, -1


def numpy_trial(system, x, noise, cfg, iterations):
    traces, bad = _run_batch(system[None], x[None], noise[None], cfg, iterations)
    return traces[0], int(bad[0])


def make_trial_inputs(seed, n_taps=16, iterations=400):
    stream = RngStream(seed)
    system = gen_sparse_system(n_taps, 4, stream)
    x = gen_ar1_input(iterations + n_taps, 0.8, 1e-3, stream)
    noise = gen_gaussian_noise(iterations + n_taps, 1e-2, stream)
    return system, x, noise


@pytest.mark.parametrize("variant", list(Variant))
def test_backend_parity(variant):
    # identical arithmetic up to the summation order of the regressor
    # products; the middle row of a three-run batch is compared, so the
    # batch neighbours must not leak into it
    cfg = default_schedule()[(variant, 4)]
    rows = [make_trial_inputs(seed) for seed in (99, 100, 102)]
    systems, xs, noises = (np.stack(parts) for parts in zip(*rows))
    traces, bad = _run_batch(systems, xs, noises, cfg, 400)
    ref, ref_bad = scalar_trial(*rows[1], cfg, 400)
    assert ref_bad == -1 and bad[1] == -1
    np.testing.assert_allclose(traces[1], ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("trial", [numpy_trial, scalar_trial], ids=["numpy", "scalar"])
def test_backend_is_bit_deterministic(trial):
    system, x, noise = make_trial_inputs(101)
    cfg = default_schedule()[(Variant.LP_LIKE_LLMS, 4)]
    a, bad_a = trial(system, x, noise, cfg, 400)
    b, bad_b = trial(system, x, noise, cfg, 400)
    assert bad_a == bad_b == -1
    np.testing.assert_array_equal(a, b)


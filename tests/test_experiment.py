import ast
import dataclasses
import functools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparselms
from sparselms import experiment
from sparselms import (
    AlgorithmConfig,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    ExperimentConfig,
    FilterState,
    LeakSign,
    MsdCurve,
    ParameterError,
    RngStream,
    Variant,
    default_schedule,
    emit_csv,
    emit_plot,
    gen_ar1_input,
    gen_cell_realizations,
    gen_gaussian_noise,
    gen_sparse_system,
    msd,
    parse_config,
    pnorm_like,
    pnorm_like_gradient_term,
    regressor_at,
    run_experiment,
    run_trial,
    steady_state,
    step,
)


def small_config(**kw):
    kw.setdefault("runs", 3)
    kw.setdefault("iterations", 200)
    kw.setdefault("steady_state_window", 50)
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------- msd


def test_msd_identical_vectors():
    w = np.random.default_rng(0).standard_normal(16)
    assert msd(w, w) == 0.0


def test_msd_unit_tap_against_zero():
    w = np.zeros(16)
    w[0] = 1.0
    assert msd(w, np.zeros(16)) == 1.0


def test_msd_matches_fsum_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        ref = math.fsum((ai - bi) ** 2 for ai, bi in zip(a, b))
        assert msd(a, b) == pytest.approx(ref, rel=1e-12)


def test_msd_is_a_left_fold_of_the_squares():
    # summed in tap order, as the engine sums its traces, not by BLAS
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 16, 33):
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        b = rng.standard_normal(n)
        ref = 0.0
        for ai, bi in zip(a.tolist(), b.tolist()):
            ref += (ai - bi) * (ai - bi)
        assert msd(a, b) == ref


def test_msd_of_empty_vectors_is_zero():
    assert msd([], []) == 0.0


def test_msd_of_scalars_is_their_squared_difference():
    assert msd(3.0, 1.0) == 4.0


def test_msd_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        msd(np.zeros(4), np.zeros(5))
    # a scalar against a vector, and 2-d weights, fail by name too
    with pytest.raises(DimensionMismatchError, match=r"got shapes \(\) and \(1,\)"):
        msd(3.0, [1.0])
    with pytest.raises(DimensionMismatchError, match=r"got shapes \(2, 2\) and \(2, 2\)"):
        msd(np.ones((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------- run_trial


def trial_inputs(seed, level=4, n_taps=16, length=216):
    stream = RngStream(seed)
    system = gen_sparse_system(n_taps, level, stream)
    x = gen_ar1_input(length, 0.8, 1e-3, stream)
    noise = gen_gaussian_noise(length, 1e-2, stream)
    return system, x, noise


def test_run_trial_frozen_filter_is_constant():
    system, x, noise = trial_inputs(2)
    for variant in Variant:
        cfg = AlgorithmConfig(variant, mu=0.0, gamma=0.0, rho_pl=0.0)
        trace = run_trial(system, x, noise, cfg, 200)
        np.testing.assert_array_equal(trace, np.full(200, msd(system, np.zeros(16))))


def test_run_trial_is_bit_deterministic():
    system, x, noise = trial_inputs(3)
    cfg = default_schedule()[(Variant.LP_LIKE_LLMS, 4)]
    trace = run_trial(system, x, noise, cfg, 200)
    np.testing.assert_array_equal(trace, run_trial(system, x, noise, cfg, 200))
    # and strided views of the same samples give the same bits
    strided = [np.repeat(a, 2)[::2] for a in (system, x, noise)]
    assert not any(a.flags.c_contiguous for a in strided)
    np.testing.assert_array_equal(trace, run_trial(*strided, cfg, 200))


@pytest.mark.parametrize("variant", list(Variant))
def test_run_trial_matches_stepwise_reference(variant):
    # the batched engine must equal the one-sample step API bit for bit; this
    # loop forms the desired sample as the engine does, noise[k] first and then
    # s_i * x[k-i] in tap order, and msd folds the squares as the engine does
    cfg = default_schedule()[(variant, 4)]
    for seed, n in ((4, 200), (100, 400)):
        system, x, noise = trial_inputs(seed, length=n + 16)
        trace = run_trial(system, x, noise, cfg, n)
        state = FilterState.zeros(16)
        ref = np.empty(n)
        for k in range(n):
            xk = regressor_at(x[:n], k, 16)
            d = float(noise[k])
            for s_i, x_i in zip(system.tolist(), xk.tolist()):
                d += s_i * x_i
            state, _ = step(state, xk, d, cfg)
            ref[k] = msd(system, state.weights)
        np.testing.assert_array_equal(trace, ref)


def test_run_trial_noiseless_lms_converges():
    stream = RngStream(5)
    system = gen_sparse_system(16, 4, stream)
    x = gen_ar1_input(8000, 0.0, 1.0, stream)
    cfg = AlgorithmConfig(Variant.LMS, mu=0.05)
    trace = run_trial(system, x, np.zeros(8000), cfg, 8000)
    assert trace[-1] < 1e-3


def test_run_trial_rejects_short_signals():
    system, x, noise = trial_inputs(6)
    cfg = AlgorithmConfig(Variant.LMS, mu=0.01)
    with pytest.raises(DimensionMismatchError):
        run_trial(system, x[:100], noise, cfg, 200)
    with pytest.raises(DimensionMismatchError):
        run_trial(system, x, noise[:100], cfg, 200)
    with pytest.raises(ParameterError, match="iterations must be an integer, got 5.5"):
        run_trial(system, x, noise, cfg, 5.5)


def test_run_trial_divergence_carries_iteration():
    system, x, noise = trial_inputs(7)
    cfg = AlgorithmConfig(Variant.LMS, mu=1e200)
    with pytest.raises(DivergenceError) as exc:
        run_trial(system, x, noise, cfg, 200)
    assert exc.value.iteration is not None and exc.value.iteration >= 0


# -------------------------------------------------------------------- cells


def test_variants_must_be_variant_members():
    # a name is no Variant; it raised a bare AttributeError before
    with pytest.raises(ParameterError, match="variants must be a Variant, got 'lms'"):
        run_experiment(small_config(), ["lms"], [1])
    with pytest.raises(ParameterError, match="got 'llms'"):
        run_experiment(small_config(), ["llms"], [1])[0]


def test_run_cell_single_run_equals_trial():
    config = small_config(runs=1)
    curve = run_experiment(config, [Variant.LMS], [4])[0]
    stream = RngStream(config.master_seed, 0)
    system = gen_sparse_system(16, 4, stream)
    x = gen_ar1_input(216, 0.8, 1e-3, stream)
    noise = gen_gaussian_noise(216, 1e-2, stream)
    trace = run_trial(system, x, noise, config.schedule[(Variant.LMS, 4)], 200)
    np.testing.assert_array_equal(curve.values, trace)
    assert curve.runs == 1 and curve.sparsity_level == 4 and curve.n_taps == 16


@pytest.mark.parametrize("variant", list(Variant))
def test_run_cell_rows_equal_run_trial(variant):
    # a run's trace must not depend on the other runs in its batch
    config = small_config(runs=7)
    cfg = config.schedule[(variant, 4)]
    curve = run_experiment(config, [variant], [4])[0]
    acc = np.zeros(200)
    for r in range(7):
        stream = RngStream(config.master_seed, r)
        system = gen_sparse_system(16, 4, stream)
        x = gen_ar1_input(216, 0.8, 1e-3, stream)
        noise = gen_gaussian_noise(216, 1e-2, stream)
        trace = run_trial(system, x, noise, cfg, 200)
        np.testing.assert_array_equal(curve.run_tails[r], trace[-50:])
        acc += trace
    np.testing.assert_array_equal(curve.values, acc / 7)


def test_run_cell_frozen_filter_curve_is_nonzero_count():
    sched = {(Variant.LMS, 2): AlgorithmConfig(Variant.LMS, mu=0.0)}
    config = small_config(runs=4, sparsity_levels=(2,), schedule=sched)
    curve = run_experiment(config, [Variant.LMS], [2])[0]
    np.testing.assert_array_equal(curve.values, np.full(200, 2.0))


def test_run_cell_mean_is_exact_run_average():
    config = small_config(runs=5)
    curve = run_experiment(config, [Variant.LP_LIKE_LMS], [1])[0]
    acc = np.zeros(200)
    for r in range(5):
        stream = RngStream(config.master_seed, r)
        system = gen_sparse_system(16, 1, stream)
        x = gen_ar1_input(216, 0.8, 1e-3, stream)
        noise = gen_gaussian_noise(216, 1e-2, stream)
        acc += run_trial(system, x, noise, config.schedule[(Variant.LP_LIKE_LMS, 1)], 200)
    np.testing.assert_array_equal(curve.values, acc / 5)


def test_run_cell_pairs_realizations_across_variants():
    # with frozen filters the curves depend only on the drawn systems,
    # which must match run-for-run between variants
    sched = {
        (Variant.LMS, 3): AlgorithmConfig(Variant.LMS, mu=0.0),
        (Variant.LLMS, 3): AlgorithmConfig(Variant.LLMS, mu=0.0, gamma=0.0),
    }
    config = small_config(runs=6, sparsity_levels=(3,), schedule=sched)
    a = run_experiment(config, [Variant.LMS], [3])[0]
    b = run_experiment(config, [Variant.LLMS], [3])[0]
    np.testing.assert_array_equal(a.values, b.values)


def test_run_cell_missing_schedule_entry():
    config = small_config()
    with pytest.raises(ConfigError, match="schedule"):
        run_experiment(config, [Variant.LMS], [5])[0]


def test_run_cell_divergence_names_run():
    sched = {(Variant.LMS, 4): AlgorithmConfig(Variant.LMS, mu=1e200)}
    config = small_config(runs=2, schedule=sched)
    with pytest.raises(DivergenceError) as exc:
        run_experiment(config, [Variant.LMS], [4])[0]
    assert exc.value.run == 0
    assert "run 0" in str(exc.value)


def test_run_cell_reports_first_diverging_run_in_run_order(monkeypatch):
    # row 0 converges; rows 1 and 2 diverge, row 2 earlier (larger input)
    amplitude = {0: 0.1, 1: 10.0, 2: 100.0}

    def crafted_cell(master_seed, runs, n_taps, n_nonzero, length, *_signal_params):
        systems = np.ones((runs, n_taps))
        xs = np.array([np.full(length, amplitude[r]) for r in range(runs)])
        return systems, xs, np.zeros((runs, length))

    monkeypatch.setattr(experiment, "gen_cell_realizations", crafted_cell)
    cfg = AlgorithmConfig(Variant.LMS, mu=1.0)
    config = small_config(
        runs=3, n_taps=4, sparsity_levels=(4,), schedule={(Variant.LMS, 4): cfg}
    )

    def step_divergence(a):
        x = np.full(200, a)
        state = FilterState.zeros(4)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(200):
                xk = regressor_at(x, k, 4)
                try:
                    state, _ = step(state, xk, float(np.sum(xk)), cfg)
                except DivergenceError as err:
                    return err.iteration
        return None

    assert step_divergence(amplitude[0]) is None
    k1, k2 = step_divergence(amplitude[1]), step_divergence(amplitude[2])
    assert k1 is not None and k2 is not None and k2 < k1
    with pytest.raises(DivergenceError) as exc:
        run_experiment(config, [Variant.LMS], [4])[0]
    assert exc.value.run == 1
    assert exc.value.iteration == k1
    assert str(exc.value) == f"weights became non-finite at iteration {k1} (run 1, lms 4/4)"
    assert exc.value.variant is Variant.LMS and exc.value.level == 4


# anti-leak with the constraint off amplifies the weights geometrically
RUNAWAY = AlgorithmConfig(
    Variant.LP_LIKE_LLMS, mu=0.1, gamma=0.9, rho_pl=0.0, leak_sign=LeakSign.PLUS
)


def test_run_cell_aborts_on_runaway_but_finite_trace():
    config = small_config(runs=1, iterations=2000, schedule={(Variant.LP_LIKE_LLMS, 4): RUNAWAY})
    with pytest.raises(DivergenceError, match="exceeded"):
        run_experiment(config, [Variant.LP_LIKE_LLMS], [4])[0]


def test_run_trial_fails_where_its_cell_does():
    # run_trial once returned this run's trace, climbing to 5.8e250, where the cell raised
    config = small_config(runs=1, iterations=2000, schedule={(Variant.LP_LIKE_LLMS, 4): RUNAWAY})
    with pytest.raises(DivergenceError) as cell:
        run_experiment(config, [Variant.LP_LIKE_LLMS], [4])
    system, x, noise = trial_inputs(config.master_seed, 4, 16, 2016)
    with pytest.raises(DivergenceError) as trial:
        run_trial(system, x, noise, RUNAWAY, 2000)
    assert cell.value.iteration == trial.value.iteration == 84
    assert str(trial.value) == "squared deviation exceeded 1e+06 at iteration 84"
    assert str(cell.value) == f"{trial.value} (run 0, lp_like_llms 4/16)"
    assert (trial.value.run, trial.value.variant, trial.value.level) == (None, None, None)


def test_run_experiment_covers_requested_cells():
    config = small_config(runs=2, sparsity_levels=(1, 4))
    curves = run_experiment(config)
    assert [(c.variant, c.sparsity_level) for c in curves] == [
        (v, s) for v in Variant for s in (1, 4)
    ]


@pytest.mark.parametrize(
    "variants", [None, [Variant.LP_LIKE_LLMS, Variant.LMS]], ids=["all", "subset"]
)
def test_run_experiment_cells_equal_run_cell(variants):
    # cells share their level's realizations and desired signal; each must
    # still equal the cell run alone, bit for bit
    config = small_config(runs=4, sparsity_levels=(1, 4))
    curves = run_experiment(config, variants)
    expected = [(v, s) for v in (variants or Variant) for s in (1, 4)]
    assert [(c.variant, c.sparsity_level) for c in curves] == expected
    for curve, (v, s) in zip(curves, expected):
        alone = run_experiment(config, [v], [s])[0]
        np.testing.assert_array_equal(curve.values, alone.values)
        np.testing.assert_array_equal(curve.run_tails, alone.run_tails)


def count_level_builds(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[3])
        return gen_cell_realizations(*args)

    monkeypatch.setattr(experiment, "gen_cell_realizations", counted)
    return calls


def test_run_experiment_builds_each_level_once(monkeypatch):
    calls = count_level_builds(monkeypatch)
    config = small_config(runs=2, sparsity_levels=(1, 4, 8))
    curves = run_experiment(config)
    assert len(curves) == 12
    assert calls == [1, 4, 8]


def test_a_request_of_no_cell_builds_no_level(monkeypatch):
    # every level of the study was drawn for zero cells, a second's work thrown away
    calls = count_level_builds(monkeypatch)
    assert run_experiment(ExperimentConfig(), variants=[]) == []
    assert calls == []


def test_a_level_drops_its_realizations_before_the_tap_loop():
    # xr and desired are copied out of the realization buffer, which is then
    # freed, so the tap loop's product temporary does not add to it
    config = small_config(runs=50, iterations=4000, sparsity_levels=(4,))
    buffer = 50 * 2 * (4000 + 16) * 8  # every run's drive and noise, in float64 bytes
    experiment._run_level(config, [], 4)  # leaves numpy's lazy imports out of the peak
    tracemalloc.start()
    try:
        experiment._run_level(config, [], 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * buffer


def test_missing_schedule_entry_fails_before_any_level_is_built(monkeypatch):
    # the missing entry is the request's last cell, variant-major
    calls = count_level_builds(monkeypatch)
    sched = default_schedule()
    del sched[(Variant.LP_LIKE_LLMS, 8)]
    config = small_config(runs=2, sparsity_levels=(1, 8), schedule=sched)
    with pytest.raises(ConfigError) as exc:
        run_experiment(config)
    assert str(exc.value) == "schedule has no entry for (lp_like_llms, 8/16)"
    assert calls == []


def test_first_missing_schedule_entry_is_reported_in_variant_major_order():
    sched = default_schedule()
    del sched[(Variant.LLMS, 1)], sched[(Variant.LMS, 8)]
    config = small_config(runs=2, sparsity_levels=(1, 8), schedule=sched)
    with pytest.raises(ConfigError, match=r"\(lms, 8/16\)"):
        run_experiment(config)


@pytest.mark.parametrize(
    "levels, message",
    [
        ((1, 4, 20), "sparsity level must satisfy 1 <= sparsity level <= 16, got 20"),
        ((0,), "sparsity level must satisfy 1 <= sparsity level <= 16, got 0"),
        ((1.5,), "sparsity level must be an integer, got 1.5"),
        (("1",), "sparsity level must be an integer, got '1'"),
    ],
    ids=["above-taps", "zero", "float", "str"],
)
def test_bad_level_fails_before_any_level_is_built(monkeypatch, levels, message):
    calls = count_level_builds(monkeypatch)
    with pytest.raises(ParameterError) as exc:
        run_experiment(small_config(runs=2), [Variant.LMS], levels)
    assert str(exc.value) == message
    assert calls == []


@pytest.mark.parametrize(
    "variants, levels, message",
    [
        ([Variant.LMS, Variant.LMS], [1], "variants must not repeat, got ('lms', 'lms')"),
        ([Variant.LMS], [1, 1], "sparsity levels must not repeat, got (1, 1)"),
        (None, [4, 1, np.int64(4)], "sparsity levels must not repeat, got (4, 1, 4)"),
        (
            [Variant.LLMS, Variant.LMS, Variant.LLMS], [1, 1],
            "variants must not repeat, got ('llms', 'lms', 'llms')",
        ),
    ],
    ids=["variant", "level", "numpy-level", "variant-first"],
)
def test_repeated_cell_fails_before_any_level_is_built(monkeypatch, variants, levels, message):
    # a repeat built its level twice and returned duplicate curves
    calls = count_level_builds(monkeypatch)
    with pytest.raises(ParameterError) as exc:
        run_experiment(small_config(runs=2), variants, levels)
    assert str(exc.value) == message
    assert calls == []


def test_numpy_integer_levels_are_ints():
    config = small_config(runs=2, iterations=20, steady_state_window=5)
    [curve] = run_experiment(config, [Variant.LMS], [np.int64(4)])
    assert type(curve.sparsity_level) is int
    assert curve.sparsity_level == 4
    # a schedule passed in is kept as given: a numpy integer key serves its level
    schedule = {(Variant.LMS, np.int64(1)): AlgorithmConfig(Variant.LMS)}
    keyed = dataclasses.replace(config, sparsity_levels=(1,), schedule=schedule)
    [curve] = run_experiment(keyed, [Variant.LMS])
    assert curve.sparsity_level == 1


def test_run_experiment_raises_first_diverging_cell_in_variant_major_order():
    # (lms, 8) comes first variant-major; level by level, (llms, 1) runs first
    sched = default_schedule()
    sched[(Variant.LMS, 8)] = AlgorithmConfig(Variant.LMS, mu=1e200)
    sched[(Variant.LLMS, 1)] = AlgorithmConfig(Variant.LLMS, mu=1e200, gamma=0.005)
    config = small_config(runs=2, sparsity_levels=(1, 8), schedule=sched)
    with pytest.raises(DivergenceError) as alone:
        run_experiment(config, [Variant.LMS], [8])[0]
    with pytest.raises(DivergenceError) as exc:
        run_experiment(config)
    err, ref = exc.value, alone.value
    assert (err.variant, err.level) == (ref.variant, ref.level) == (Variant.LMS, 8)
    assert (err.run, err.iteration) == (ref.run, ref.iteration)
    assert str(err) == str(ref)
    assert str(err).endswith(f"(run {ref.run}, lms 8/16)")


def test_noiseless_steady_state_is_much_lower_than_noisy():
    noisy = small_config(runs=3, iterations=4000, steady_state_window=500)
    quiet = small_config(
        runs=3, iterations=4000, steady_state_window=500, noise_variance=0.0
    )
    m_noisy = steady_state(run_experiment(noisy, [Variant.LMS], [4])[0], 500).mean
    m_quiet = steady_state(run_experiment(quiet, [Variant.LMS], [4])[0], 500).mean
    assert m_quiet * 10 < m_noisy


# ------------------------------------------------------------- steady_state


def flat_curve(value, n=100):
    return MsdCurve(Variant.LMS, 1, 16, np.full(n, value), runs=1)


def test_steady_state_constant_curve():
    for window in (1, 10, 100):
        s = steady_state(flat_curve(0.25), window)
        assert s.mean == 0.25
        assert s.stderr == 0.0


def test_steady_state_ramp():
    curve = MsdCurve(Variant.LMS, 1, 16, np.arange(1000) / 1000.0, runs=1)
    s = steady_state(curve, 100)
    assert s.mean == pytest.approx(0.9495, rel=1e-12)


def test_steady_state_full_window():
    curve = flat_curve(2.0, n=64)
    curve.values = np.linspace(0.0, 1.0, 64)
    assert steady_state(curve, 64).mean == pytest.approx(curve.values.mean(), rel=1e-15)


def test_steady_state_window_validation():
    with pytest.raises(ParameterError, match="window"):
        steady_state(flat_curve(1.0), 0)
    with pytest.raises(ParameterError, match="window"):
        steady_state(flat_curve(1.0), 101)
    with pytest.raises(ParameterError, match="window must be an integer, got 2.5"):
        steady_state(flat_curve(1.0), 2.5)
    assert steady_state(flat_curve(1.0), np.int64(10)).mean == 1.0
    # a window wider than the stored run tails has no across-run stderr
    config = small_config(runs=5, iterations=300, steady_state_window=100)
    curve = run_experiment(config, [Variant.LMS], [4])[0]
    assert steady_state(curve, 100).stderr > 0.0
    with pytest.raises(ParameterError, match="window 250 .* 100 iterations wide"):
        steady_state(curve, 250)
    # a single run has no spread to report, whatever the window
    single = small_config(runs=1, iterations=300, steady_state_window=100)
    assert steady_state(run_experiment(single, [Variant.LMS], [4])[0], 250).stderr == 0.0


def test_steady_state_stderr_across_runs():
    tails = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    curve = MsdCurve(Variant.LMS, 1, 16, np.full(10, 2.0), runs=3, run_tails=tails)
    s = steady_state(curve, 2)
    assert s.mean == 2.0
    assert s.stderr == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1) / np.sqrt(3))


def test_steady_state_stderr_shrinks_with_run_count():
    few = small_config(runs=50, iterations=300, steady_state_window=100)
    many = small_config(runs=100, iterations=300, steady_state_window=100)
    se_few = steady_state(run_experiment(few, [Variant.LMS], [4])[0], 100).stderr
    se_many = steady_state(run_experiment(many, [Variant.LMS], [4])[0], 100).stderr
    ratio = se_few / se_many
    assert math.sqrt(2) * 0.8 <= ratio <= math.sqrt(2) * 1.2


# --------------------------------------------------------- default schedule


def test_default_schedule_covers_grid():
    sched = default_schedule()
    assert set(sched) == {(v, s) for v in Variant for s in (1, 4, 8, 16)}
    assert all(cfg.mu == 0.015 for cfg in sched.values())


def test_default_schedule_shrinkage_weights():
    sched = default_schedule()
    expected = {1: 0.003, 4: 0.002, 8: 0.0015, 16: 0.0001}
    for level, rho in expected.items():
        for variant in (Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS):
            cfg = sched[(variant, level)]
            assert cfg.rho_pl == rho
            assert cfg.epsilon_pl == 10.0
            assert cfg.p == 0.5


def test_default_schedule_leak_factors():
    sched = default_schedule()
    for variant in (Variant.LLMS, Variant.LP_LIKE_LLMS):
        for level in (1, 4, 8):
            assert sched[(variant, level)].gamma == 0.005
        assert sched[(variant, 16)].gamma == 0.0005
    assert sched[(Variant.LP_LIKE_LLMS, 1)].leak_sign is LeakSign.PLUS
    assert sched[(Variant.LLMS, 1)].leak_sign is LeakSign.MINUS


# The default study as README and the paper give it: per cell, its
# (mu, gamma, rho_pl, epsilon_pl, p, leak_sign).
PAPER_SCHEDULE = {
    (Variant.LMS, 1): (0.015, 0.0, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LMS, 4): (0.015, 0.0, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LMS, 8): (0.015, 0.0, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LMS, 16): (0.015, 0.0, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LLMS, 1): (0.015, 0.005, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LLMS, 4): (0.015, 0.005, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LLMS, 8): (0.015, 0.005, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LLMS, 16): (0.015, 0.0005, 0.0, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LP_LIKE_LMS, 1): (0.015, 0.0, 0.003, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LP_LIKE_LMS, 4): (0.015, 0.0, 0.002, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LP_LIKE_LMS, 8): (0.015, 0.0, 0.0015, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LP_LIKE_LMS, 16): (0.015, 0.0, 0.0001, 10.0, 0.5, LeakSign.MINUS),
    (Variant.LP_LIKE_LLMS, 1): (0.015, 0.005, 0.003, 10.0, 0.5, LeakSign.PLUS),
    (Variant.LP_LIKE_LLMS, 4): (0.015, 0.005, 0.002, 10.0, 0.5, LeakSign.PLUS),
    (Variant.LP_LIKE_LLMS, 8): (0.015, 0.005, 0.0015, 10.0, 0.5, LeakSign.PLUS),
    (Variant.LP_LIKE_LLMS, 16): (0.015, 0.0005, 0.0001, 10.0, 0.5, LeakSign.PLUS),
}


def test_default_schedule_is_the_papers_table():
    expected = {key: AlgorithmConfig(key[0], *row) for key, row in PAPER_SCHEDULE.items()}
    assert default_schedule() == expected


def test_a_copy_of_a_study_without_a_schedule_runs_its_own_levels():
    # dataclasses.replace passed on the schedule built for the original's
    # levels, and the copy failed in run_experiment with no entry for level 2
    copy = dataclasses.replace(ExperimentConfig(runs=2, iterations=10), sparsity_levels=(2,))
    direct = ExperimentConfig(sparsity_levels=(2,), runs=2, iterations=10)
    assert copy.schedule == direct.schedule
    curves, expected = run_experiment(copy), run_experiment(direct)
    assert len(curves) == 4
    for got, want in zip(curves, expected):
        assert (got.variant, got.sparsity_level) == (want.variant, want.sparsity_level)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.run_tails.tobytes() == want.run_tails.tobytes()
    # an entry edited in place is the copy's too
    original = ExperimentConfig(runs=2, iterations=10)
    original.schedule[Variant.LMS, 1] = AlgorithmConfig(Variant.LMS, mu=0.02)
    assert dataclasses.replace(original, runs=3).schedule == original.schedule
    # a schedule passed in, the default one included, is the copy's as given
    given = ExperimentConfig(runs=2, iterations=10, schedule=default_schedule())
    with pytest.raises(ConfigError, match=r"no entry for \(lms, 2/16\)"):
        run_experiment(dataclasses.replace(given, sparsity_levels=(2,)))


def test_a_study_without_a_schedule_runs_its_own_levels_as_a_document_does():
    # level 2 is not in the paper's table; the study had no entry for it and
    # failed in run_experiment, though the same document ran
    config = ExperimentConfig(sparsity_levels=(2,), runs=3, iterations=50)
    document = parse_config("sparsity_levels = 2", runs=3, iterations=50)
    assert config.schedule == {**default_schedule(), **document.schedule}
    curves, expected = run_experiment(config), run_experiment(document)
    assert len(curves) == 4
    for got, want in zip(curves, expected):
        assert (got.variant, got.sparsity_level) == (want.variant, want.sparsity_level)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.run_tails.tobytes() == want.run_tails.tobytes()


# ---------------------------------------------------------------- validation


LMS = AlgorithmConfig(Variant.LMS)
RAGGED = [[1.0], [1.0, 2.0]]
SAMPLES = np.zeros(30)
FLOATS = "must be an array of floats, got"
REAL = "must be a real number, got"
RNG = "must be an RngStream or a numpy Generator, got"
NO_FILE = Path("no-such-directory", "curves")  # an emitter that checked nothing fails to open it


@pytest.mark.parametrize(
    "func, args, message",
    [
        (step, (FilterState.zeros(2), [1.0], "abc", LMS), f"desired {REAL} 'abc'"),
        (step, (FilterState.zeros(2), [1.0], None, LMS), f"desired {REAL} None"),
        (step, (FilterState.zeros(2), [1.0], [1.0], LMS), f"desired {REAL} [1.0]"),
        (run_trial, ("abc", SAMPLES, SAMPLES, LMS, 20), f"system {FLOATS} 'abc'"),
        (run_trial, (RAGGED, SAMPLES, SAMPLES, LMS, 20), f"system {FLOATS} {RAGGED}"),
        (run_trial, ([1.0], "abc", SAMPLES, LMS, 20), f"x {FLOATS} 'abc'"),
        (run_trial, ([1.0], RAGGED, SAMPLES, LMS, 20), f"x {FLOATS} {RAGGED}"),
        (run_trial, ([1.0], SAMPLES, "abc", LMS, 20), f"noise {FLOATS} 'abc'"),
        (run_trial, ([1.0], SAMPLES, RAGGED, LMS, 20), f"noise {FLOATS} {RAGGED}"),
        (regressor_at, (["a", "b"], 0, 2), f"x {FLOATS} ['a', 'b']"),
        # vectors of the wrong shape: numpy's ValueError or an IndexError before, or,
        # for a scalar system, a one-tap filter
        (run_trial, ([[1.0], [0.5]], SAMPLES, SAMPLES, LMS, 20),
         "system must be 1-d with at least one tap, got shape (2, 1)"),
        (run_trial, ([], SAMPLES, SAMPLES, LMS, 20),
         "system must be 1-d with at least one tap, got shape (0,)"),
        (run_trial, (1.0, SAMPLES, SAMPLES, LMS, 20),
         "system must be 1-d with at least one tap, got shape ()"),
        (run_trial, ([1.0], SAMPLES[None], SAMPLES, LMS, 20), "x must be 1-d, got shape (1, 30)"),
        (run_trial, ([1.0], SAMPLES, SAMPLES[None], LMS, 20),
         "noise must be 1-d, got shape (1, 30)"),
        (regressor_at, ([[1.0, 2.0]], 0, 2), "x must be 1-d, got shape (1, 2)"),
        (regressor_at, (1.0, 0, 2), "x must be 1-d, got shape ()"),
        (msd, (["a"], [1.0]), f"true_w {FLOATS} ['a']"),
        (msd, ([1.0], ["a"]), f"est_w {FLOATS} ['a']"),
        (pnorm_like, (["a"], 0.5), f"w {FLOATS} ['a']"),
        (pnorm_like_gradient_term, (RAGGED, 0.5, 1.0), f"w {FLOATS} {RAGGED}"),
        (functools.partial(AlgorithmConfig, mu="abc"), (Variant.LMS,), f"mu {REAL} 'abc'"),
        (functools.partial(AlgorithmConfig, gamma=None), (Variant.LLMS,), f"gamma {REAL} None"),
        (functools.partial(AlgorithmConfig, p="0.5"), (Variant.LP_LIKE_LMS,), f"p {REAL} '0.5'"),
        (functools.partial(ExperimentConfig, ar_coeff="x"), (), f"ar_coeff {REAL} 'x'"),
        (
            functools.partial(ExperimentConfig, drive_variance="1"), (),
            f"drive_variance {REAL} '1'",
        ),
        (
            functools.partial(ExperimentConfig, noise_variance=None), (),
            f"noise_variance {REAL} None",
        ),
        (pnorm_like, ([1.0], "a"), f"p {REAL} 'a'"),
        (pnorm_like_gradient_term, ([1.0], 0.5, "a"), f"epsilon_pl {REAL} 'a'"),
        (gen_ar1_input, (10, "a", 1.0, RngStream(1)), f"coeff {REAL} 'a'"),
        (gen_gaussian_noise, (10, None, RngStream(1)), f"variance {REAL} None"),
        (
            gen_cell_realizations, (1, 2, 4, 1, 10, 0.8, 1e-3, "x"),
            f"noise_variance {REAL} 'x'",
        ),
        # a bool, a complex number and a 0-d array are no real numbers either
        (functools.partial(AlgorithmConfig, mu=True), (Variant.LMS,), f"mu {REAL} True"),
        (functools.partial(ExperimentConfig, ar_coeff=0.5j), (), f"ar_coeff {REAL} 0.5j"),
        (pnorm_like, ([1.0], np.array(0.5)), f"p {REAL} array(0.5)"),
        # containers that are not iterable
        (
            functools.partial(ExperimentConfig, sparsity_levels=None), (),
            "sparsity_levels must be a sequence, got None",
        ),
        (
            functools.partial(ExperimentConfig, sparsity_levels=1), (),
            "sparsity_levels must be a sequence, got 1",
        ),
        (
            run_experiment, (small_config(), Variant.LMS, [1]),
            "variants must be a sequence, got <Variant.LMS: 'lms'>",
        ),
        (run_experiment, (small_config(), [Variant.LMS], 1), "levels must be a sequence, got 1"),
        # a str or bytes is no sequence of values: its characters or bytes were read as items
        (run_experiment, (small_config(), "lms"), "variants must be a sequence, got 'lms'"),
        (emit_csv, ("ab", NO_FILE), "curves must be a sequence, got 'ab'"),
        (
            functools.partial(ExperimentConfig, sparsity_levels=b"\x01"), (),
            "sparsity_levels must be a sequence, got b'\\x01'",
        ),
        # arguments of the wrong type: an AttributeError on their first use before
        (step, (FilterState.zeros(2), [1.0], 1.0, "lms"),
         "cfg must be an AlgorithmConfig, got 'lms'"),
        (step, ([0, 0], [1.0, 1.0], 1.0, LMS), "state must be a FilterState, got [0, 0]"),
        (run_trial, ([1.0], SAMPLES, SAMPLES, "lms", 10),
         "cfg must be an AlgorithmConfig, got 'lms'"),
        (run_experiment, (None,), "config must be an ExperimentConfig, got None"),
        (steady_state, ([1, 2, 3], 2), "curve must be a MsdCurve, got [1, 2, 3]"),
        (emit_csv, (["x"], NO_FILE), "curves[0] must be a MsdCurve, got 'x'"),
        (emit_plot, (["x"], NO_FILE), "curves[0] must be a MsdCurve, got 'x'"),
        # numpy's ValueError, and AttributeError or TypeError on a document not a str
        (MsdCurve, (Variant.LMS, 1, 16, "abc", 1), f"values {FLOATS} 'abc'"),
        (MsdCurve, (Variant.LMS, 1, 16, [1.0], 1, "x"), f"run_tails {FLOATS} 'x'"),
        (parse_config, (None,), "text must be a str, got None"),
        (parse_config, (123,), "text must be a str, got 123"),
        (parse_config, (b"runs = 2",), "text must be a str, got b'runs = 2'"),
        # None, alone or as an item: numpy read it as nan before, which came out
        # as an MSD of nan, a nan weight or a divergence
        (msd, (None, None), f"true_w {FLOATS} None"),
        (FilterState, ([None, 1.0],), f"weights {FLOATS} [None, 1.0]"),
        (step, (FilterState.zeros(2), [None, 1.0], 1.0, LMS), f"regressor {FLOATS} [None, 1.0]"),
        (regressor_at, ([None, 1.0], 1, 2), f"x {FLOATS} [None, 1.0]"),
        # a random stream of the wrong type: an AttributeError on its first use before
        (gen_sparse_system, (16, 1, 5), f"rng {RNG} 5"),
        (gen_ar1_input, (10, 0.8, 1.0, "seed"), f"rng {RNG} 'seed'"),
        (gen_gaussian_noise, (10, 1.0, None), f"rng {RNG} None"),
        # numbers by the rule of check_real alone: a numeric string and a bool were
        # parsed or cast, a complex array lost its imaginary part with a ComplexWarning,
        # and an int beyond float64 raised a bare OverflowError
        (msd, (["1.5"], [0.0]), f"true_w {FLOATS} ['1.5']"),
        (msd, (np.array([True]), [0.0]), f"true_w {FLOATS} array([ True])"),
        (msd, (np.array([1 + 1j]), [0.0]), f"true_w {FLOATS} array([1.+1.j])"),
        (msd, ([10**400], [0.0]), f"true_w {FLOATS} [{10**400}]"),
        (FilterState, (np.array(["1.0"]),), f"weights {FLOATS} array(['1.0'], dtype='<U3')"),
        (step, (FilterState.zeros(2), ["1", True], 1.0, LMS), f"regressor {FLOATS} ['1', True]"),
        (step, (FilterState.zeros(2), [1.0, 1.0], "2", LMS), f"desired {REAL} '2'"),
        (step, (FilterState.zeros(2), [1.0, 1.0], True, LMS), f"desired {REAL} True"),
        (step, (FilterState.zeros(2), [1.0, 1.0], 10**400, LMS), "desired must be finite, got inf"),
        # a non-finite desired fails by name for every numeric type; a float nan was
        # a DivergenceError before, and an np.float32 nan a ParameterError
        (step, (FilterState.zeros(2), [1.0, 1.0], math.nan, LMS),
         "desired must be finite, got nan"),
        (step, (FilterState.zeros(2), [1.0, 1.0], np.float32("nan"), LMS),
         "desired must be finite, got nan"),
        # a 0-d array is no real number, as for every scalar parameter
        (step, (FilterState.zeros(2), [1.0, 1.0], np.array(1.0), LMS), f"desired {REAL} array(1.)"),
        (run_trial, ([1.0], SAMPLES, [10**400, 0.0], LMS, 2), f"noise {FLOATS} [{10**400}, 0.0]"),
        # the master seed is read by its own name, once: the first run's stream named it seed
        (
            gen_cell_realizations, (-1, 2, 16, 1, 10, 0.8, 1e-3, 1e-2),
            f"master_seed must satisfy 0 <= master_seed <= {2**64 - 1}, got -1",
        ),
        (
            gen_cell_realizations, (2**64, 2, 16, 1, 10, 0.8, 1e-3, 1e-2),
            f"master_seed must satisfy 0 <= master_seed <= {2**64 - 1}, got {2**64}",
        ),
        (
            gen_cell_realizations, (True, 2, 16, 1, 10, 0.8, 1e-3, 1e-2),
            "master_seed must be an integer, got True",
        ),
    ],
    ids=[
        "step-desired-str", "step-desired-none", "step-desired-list",
        "run_trial-system-str", "run_trial-system-ragged", "run_trial-x-str",
        "run_trial-x-ragged", "run_trial-noise-str", "run_trial-noise-ragged",
        "regressor_at", "run_trial-system-2d", "run_trial-system-empty",
        "run_trial-system-scalar", "run_trial-x-2d", "run_trial-noise-2d",
        "regressor_at-x-2d", "regressor_at-x-scalar", "msd-true_w", "msd-est_w", "pnorm_like",
        "pnorm_like_gradient_term", "config-mu", "config-gamma", "config-p", "experiment-ar_coeff",
        "experiment-drive_variance", "experiment-noise_variance", "pnorm_like-p",
        "pnorm_like_gradient_term-epsilon_pl", "gen_ar1_input-coeff",
        "gen_gaussian_noise-variance", "gen_cell_realizations-noise_variance",
        "config-mu-bool", "experiment-ar_coeff-complex", "pnorm_like-p-array",
        "experiment-levels-none", "experiment-levels-int", "run_experiment-variants",
        "run_experiment-levels", "run_experiment-variants-str", "emit_csv-curves-str",
        "experiment-levels-bytes", "step-cfg", "step-state", "run_trial-cfg",
        "run_experiment-config", "steady_state-curve", "emit_csv-curves", "emit_plot-curves",
        "msd_curve-values", "msd_curve-run_tails", "parse_config-none", "parse_config-int",
        "parse_config-bytes", "msd-none", "FilterState-none", "step-regressor-none",
        "regressor_at-none", "gen_sparse_system-rng", "gen_ar1_input-rng",
        "gen_gaussian_noise-rng", "msd-str", "msd-bool", "msd-complex", "msd-overflow",
        "FilterState-str", "step-regressor-str-bool", "step-desired-numeric-str",
        "step-desired-bool", "step-desired-overflow", "step-desired-nan",
        "step-desired-float32-nan", "step-desired-0d", "run_trial-noise-overflow",
        "gen_cell_realizations-master_seed-negative", "gen_cell_realizations-master_seed-2**64",
        "gen_cell_realizations-master_seed-bool",
    ],
)
def test_non_numeric_input_fails_by_name(func, args, message):
    # each raised a bare ValueError or TypeError before (numpy's, float()'s, a
    # comparison's or iter()'s), or was taken as a number: a bool as 0 or 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning is no named failure
        with pytest.raises(ParameterError) as exc:
            func(*args)
    assert str(exc.value) == message


def test_reals_are_read_as_floats():
    # a Python int of 2**64 passed the checks, then became an object array in numpy
    cfg = AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=2**64, gamma=0, rho_pl=np.float32(0.5))
    assert [type(v) for v in (cfg.mu, cfg.gamma, cfg.rho_pl)] == [float] * 3
    leak_mult, shrink = cfg._operands
    assert leak_mult is None  # a multiplier of 1, with gamma = 0
    assert [np.asarray(c).dtype for c in shrink] == [np.float64] * 4
    assert ExperimentConfig(noise_variance=1, ar_coeff=np.float64(0.5)).noise_variance == 1.0
    noise = gen_gaussian_noise(10, 2**64, RngStream(1))
    np.testing.assert_array_equal(noise, gen_gaussian_noise(10, float(2**64), RngStream(1)))
    # an int beyond int64 is an object to numpy, and each such item is a real number
    assert msd([2**70], [0.0]) == 1.393796574908164e+42
    # a bool that numpy has already read as a float is one: the rule's one limit
    assert msd([1.0, True], [0.0, 0.0]) == 2.0
    # a number beyond float64's range is infinite, and fails the "finite" rule by name
    for make, message in [
        (lambda: AlgorithmConfig(Variant.LMS, mu=10**400), "mu must be finite and >= 0, got inf"),
        (
            lambda: ExperimentConfig(drive_variance=-(10**400)),
            "drive_variance must be finite and > 0, got -inf",
        ),
        (
            lambda: gen_gaussian_noise(10, 10**400, RngStream(1)),
            "variance must be finite and >= 0, got inf",
        ),
    ]:
        with pytest.raises(ParameterError) as exc:
            make()
        assert str(exc.value) == message


def test_validated_integers_are_stored_as_ints():
    # a numpy integer passed the checks and was kept as given, so every later
    # iteration and a divergence's iteration were numpy integers, which json refuses
    state = FilterState([0.0], np.int64(7))
    after, _ = step(state, [1.0], 1.0, LMS)
    with pytest.raises(DivergenceError) as exc:
        step(state, [1e300], 1e300, LMS)
    curve = MsdCurve(Variant.LMS, np.int64(1), np.int64(16), [1.0], np.int64(3))
    numbers = [state.iteration, after.iteration, exc.value.iteration]
    numbers += [curve.sparsity_level, curve.n_taps, curve.runs]
    assert [type(n) for n in numbers] == [int] * 6
    assert json.dumps(numbers) == "[7, 8, 7, 1, 16, 3]"


@pytest.mark.parametrize(
    "func, message",
    [
        (lambda: FilterState.zeros(2**64), f"n_taps must satisfy 1 <= n_taps <= {2**60 - 1}"),
        (
            lambda: gen_sparse_system(2**64 - 1, 1, RngStream(1)),
            f"n_taps must satisfy 1 <= n_taps <= {2**60 - 1}",
        ),
        (
            lambda: gen_cell_realizations(1, 2, 2**64 - 1, 1, 10, 0.8, 1.0, 1.0),
            f"n_taps must satisfy 1 <= n_taps <= {2**60 - 1}",
        ),
        (lambda: ExperimentConfig(runs=2**63 - 1), f"runs must satisfy 1 <= runs <= {2**60 - 1}"),
        # each count fits, but not a level's (runs x 2*(iterations + n_taps)) buffer
        (
            lambda: ExperimentConfig(runs=2**40, iterations=2**40),
            f"runs must satisfy 1 <= runs <= {(2**60 - 1) // (2**41 + 32)}",
        ),
        # each count fits, but not their (runs x 2*length) buffer
        (
            lambda: gen_cell_realizations(1, 2**40, 16, 1, 2**40, 0.8, 1.0, 1.0),
            f"runs must satisfy 1 <= runs <= {(2**60 - 1) // 2**41}",
        ),
        (
            lambda: gen_cell_realizations(1, 1, 16, 1, 2**59, 0.8, 1.0, 1.0),
            f"length must satisfy 1 <= length <= {(2**60 - 1) // 2}",
        ),
        # a curve's and a trial's counts were integers >= 1 alone
        (
            lambda: MsdCurve(Variant.LMS, 1, 2**70, [1.0], 1),
            f"n_taps must satisfy 1 <= n_taps <= {2**60 - 1}",
        ),
        (
            lambda: MsdCurve(Variant.LMS, 1, 16, [1.0], 2**70),
            f"runs must satisfy 1 <= runs <= {2**60 - 1}",
        ),
        (
            lambda: run_trial([1.0], SAMPLES, SAMPLES, LMS, 2**70),
            f"iterations must satisfy 1 <= iterations <= {2**60 - 1}",
        ),
    ],
    ids=["zeros", "gen_sparse_system", "gen_cell_realizations-taps", "config-runs",
         "config-buffer", "gen_cell_realizations-buffer", "gen_cell_realizations-length",
         "msd_curve-taps", "msd_curve-runs", "run_trial-iterations"],
)
def test_count_too_large_for_numpy_fails_by_name(func, message):
    # numpy refuses each size before it allocates; its bare ValueError or
    # OverflowError came through before
    with pytest.raises(ParameterError) as exc:
        func()
    assert str(exc.value).startswith(f"{message}, got ")


CELL = {
    "master_seed": 1, "runs": 2, "n_taps": 4, "n_nonzero": 1, "length": 10, "coeff": 0.8,
    "drive_variance": 1e-3, "noise_variance": 1e-2,
}


def study_reads(field):
    return field, lambda value: small_config(**{field: value})


def cell_reads(name):
    return name, lambda value: gen_cell_realizations(**{**CELL, name: value})


@pytest.mark.parametrize(
    "inside, edges, readers",
    [
        (0.5, [0, 1, math.nan], [
            ("p", lambda p: AlgorithmConfig(Variant.LP_LIKE_LMS, p=p)),
            ("p", lambda p: pnorm_like([1.0], p)),
            ("p", lambda p: pnorm_like_gradient_term([1.0], p, 1.0)),
        ]),
        (-0.99, [-1, 1], [
            study_reads("ar_coeff"),
            ("coeff", lambda a: gen_ar1_input(10, a, 1e-3, RngStream(1))),
            cell_reads("coeff"),
        ]),
        (1e-300, [0, math.inf], [
            study_reads("drive_variance"),
            ("drive_variance", lambda v: gen_ar1_input(10, 0.8, v, RngStream(1))),
            cell_reads("drive_variance"),
        ]),
        (0, [-1e-300, math.inf], [
            study_reads("noise_variance"),
            ("variance", lambda v: gen_gaussian_noise(10, v, RngStream(1))),
            cell_reads("noise_variance"),
        ]),
        (2**64 - 1, [-1, 2**64], [
            study_reads("master_seed"), ("seed", RngStream), cell_reads("master_seed"),
        ]),
    ],
    ids=["p", "coeff", "drive_variance", "noise_variance", "seed"],
)
def test_every_reader_of_a_shared_range_refuses_the_same_edges(inside, edges, readers):
    # each range is written once, in filter_core._RANGES or signal_gen._RANGES; every
    # reader refuses its edges in one wording, under the reader's own name
    for value in edges:
        rules = set()
        for name, read in readers:
            with pytest.raises(ParameterError) as exc:
                read(value)
            rules.add(re.sub(rf"\b{name}\b", "x", str(exc.value)))
        assert len(rules) == 1, rules
    for _, read in readers:
        read(inside)


def test_config_bounds_a_levels_buffer():
    # runs 2**40 and iterations 2**40 each fit numpy alone; before, only
    # gen_cell_realizations refused them, with a bound the config never stated
    bound = (2**60 - 1) // (2 * (2**40 + 16))
    with pytest.raises(ParameterError) as exc:
        ExperimentConfig(runs=bound + 1, iterations=2**40)
    assert str(exc.value) == (
        f"runs must satisfy 1 <= runs <= {bound}, got {bound + 1}, as runs x "
        f"2*(iterations + n_taps) = runs x 2*{2**40 + 16} float64s must fit one numpy array"
    )
    assert ExperimentConfig(runs=bound, iterations=2**40).runs == bound  # nothing is allocated
    # iterations fits numpy alone, but not even one run's buffer: iterations is named
    with pytest.raises(ParameterError) as exc:
        ExperimentConfig(runs=1, iterations=2**60 - 1)
    assert str(exc.value) == (
        f"iterations + n_taps must satisfy 1 <= iterations + n_taps <= {(2**60 - 1) // 2}, "
        f"got {2**60 + 15}"
    )


def test_experiment_config_defaults():
    config = ExperimentConfig()
    assert config.n_taps == 16
    assert config.sparsity_levels == (1, 4, 8, 16)
    assert config.iterations == 8000
    assert config.runs == 200
    assert config.ar_coeff == 0.8
    assert config.drive_variance == 1e-3
    assert config.noise_variance == 1e-2
    assert config.steady_state_window == 500


@pytest.mark.parametrize(
    "kw",
    [
        {"n_taps": 0},
        {"iterations": 0},
        {"runs": 0},
        {"steady_state_window": 0},
        {"iterations": 100, "steady_state_window": 101},
        {"sparsity_levels": (0,)},
        {"sparsity_levels": (17,)},
        {"ar_coeff": 1.0},
        {"drive_variance": 0.0},
        {"noise_variance": -1e-3},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"drive_variance": math.inf},
        {"noise_variance": math.inf},
        {"runs": math.inf},
        {"runs": 2.5},
        {"sparsity_levels": (1.5,)},
        {"master_seed": math.inf},
        {"master_seed": math.nan},
    ],
)
def test_experiment_config_validation(kw):
    with pytest.raises(ParameterError):
        ExperimentConfig(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"n_taps": 16.0}, "n_taps must be an integer, got 16.0"),
        ({"iterations": math.inf}, "iterations must be an integer, got inf"),
        ({"runs": 2.5}, "runs must be an integer, got 2.5"),
        ({"master_seed": math.nan}, "master_seed must be an integer, got nan"),
        ({"steady_state_window": 50.0}, "steady_state_window must be an integer, got 50.0"),
        ({"sparsity_levels": (1, 1.5)}, "sparsity level must be an integer, got 1.5"),
        # a bool ran as one run before
        ({"runs": True, "iterations": 10}, "runs must be an integer, got True"),
    ],
)
def test_non_integer_field_is_named(kw, message):
    with pytest.raises(ParameterError) as exc:
        ExperimentConfig(**kw)
    assert str(exc.value) == message


def test_numpy_integers_are_integers():
    config = ExperimentConfig(
        n_taps=np.int64(16), sparsity_levels=(np.int32(1), np.uint8(4)),
        iterations=np.int64(300), runs=np.int16(2), master_seed=np.uint64(2**64 - 1),
        steady_state_window=np.int64(100),
    )
    assert config.sparsity_levels == (1, 4)
    assert type(config.sparsity_levels[0]) is int


def test_unset_window_is_min_of_500_and_iterations():
    assert ExperimentConfig().steady_state_window == 500
    assert ExperimentConfig(iterations=100).steady_state_window == 100
    assert ExperimentConfig(iterations=700).steady_state_window == 500
    assert ExperimentConfig(iterations=100, steady_state_window=30).steady_state_window == 30
    # a config carries its resolved window: a copy with fewer iterations must fit it
    config = ExperimentConfig(iterations=300)
    assert dataclasses.replace(config, runs=3).steady_state_window == 300
    with pytest.raises(ParameterError) as exc:
        dataclasses.replace(config, iterations=200)
    assert str(exc.value) == (
        "steady_state_window must satisfy 1 <= steady_state_window <= 200, got 300"
    )


@pytest.mark.parametrize(
    "schedule, message",
    [
        (
            {(Variant.LMS, 1): AlgorithmConfig(Variant.LLMS, gamma=0.9)},
            "schedule entry (lms, 1) must be an AlgorithmConfig of variant lms, got ",
        ),
        (
            {(Variant.LMS, 1): {"mu": 0.01}},
            "schedule entry (lms, 1) must be an AlgorithmConfig of variant lms, got {'mu': 0.01}",
        ),
        (
            {("lms", 1): AlgorithmConfig(Variant.LMS)},
            "schedule key must be (Variant, integer level), got ('lms', 1)",
        ),
        (
            {(Variant.LMS, 1.0): AlgorithmConfig(Variant.LMS)},
            "schedule key must be (Variant, integer level), got (<Variant.LMS: 'lms'>, 1.0)",
        ),
        (
            {(Variant.LMS, True): AlgorithmConfig(Variant.LMS)},
            "schedule key must be (Variant, integer level), got (<Variant.LMS: 'lms'>, True)",
        ),
        (
            {Variant.LMS: AlgorithmConfig(Variant.LMS)},
            "schedule key must be (Variant, integer level), got <Variant.LMS: 'lms'>",
        ),
        ([AlgorithmConfig(Variant.LMS)], "schedule must be a dict, got ["),
        ([], "schedule must be a dict, got []"),
    ],
    ids=[
        "other-variant", "not-a-config", "name-key", "float-level", "bool-level", "bare-variant",
        "list", "empty-list",
    ],
)
def test_schedule_entries_are_checked(schedule, message):
    # an entry of another variant used to run that rule under this label
    with pytest.raises(ParameterError) as exc:
        small_config(sparsity_levels=(1,), schedule=schedule)
    assert str(exc.value).startswith(message)


def test_msd_curve_run_tails_have_one_row_per_run():
    values = np.full(10, 2.0)
    for tails in (np.ones((5, 2)), np.ones((2, 2)), np.ones(3), np.ones((3, 2, 1))):
        with pytest.raises(ParameterError, match=r"run_tails must be 2-d with runs=3 rows"):
            MsdCurve(Variant.LMS, 1, 16, values, runs=3, run_tails=tails)
    curve = MsdCurve(Variant.LMS, 1, 16, values, runs=3, run_tails=[[1.0], [2.0], [3.0]])
    assert curve.run_tails.shape == (3, 1)
    assert MsdCurve(Variant.LMS, 1, 16, values, runs=3).run_tails is None
    # tails read by the rule of values: each was taken, and steady_state reported a
    # stderr from them
    short = [1.0, 2.0]
    for tails, message in [
        ([[1, 1, 1], [1, 1, 1]], "run_tails must be at most len(values) = 2 columns wide, "
                                 "got shape (2, 3)"),
        ([[1, 1], [1, -5]], "run_tails must be nonnegative and finite"),
        ([[math.nan, 1], [1, 1]], "run_tails must be nonnegative and finite"),
        ([[math.inf, 1], [1, 1]], "run_tails must be nonnegative and finite"),
    ]:
        with pytest.raises(ParameterError) as exc:
            MsdCurve(Variant.LMS, 1, 16, short, 2, tails)
        assert str(exc.value) == message
    assert MsdCurve(Variant.LMS, 1, 16, short, 2, [[0, 1], [1, 1]]).run_tails.shape == (2, 2)


@pytest.mark.parametrize(
    "runs, message",
    [(0, "runs must be >= 1, got 0"), (-2, "runs must be >= 1, got -2"),
     (2.5, "runs must be an integer, got 2.5"), ("3", "runs must be an integer, got '3'")],
)
def test_msd_curve_runs_is_an_integer_of_at_least_one(runs, message):
    # a hand-built curve with runs=2.5 used to give steady_state a stderr of 0.0
    with pytest.raises(ParameterError, match=re.escape(message)):
        MsdCurve(Variant.LMS, 1, 16, np.full(3, 1.0), runs=runs)
    assert MsdCurve(Variant.LMS, 1, 16, np.full(3, 1.0), runs=np.int64(2)).runs == 2


@pytest.mark.parametrize(
    "variant, level, n_taps, message",
    [
        ("lms", 1, 16, "variant must be a Variant, got 'lms'"),
        (Variant.LMS, "1", 16, "sparsity level must be an integer, got '1'"),
        (Variant.LMS, 20, 16, "sparsity level must satisfy 1 <= sparsity level <= 16, got 20"),
        (Variant.LMS, 1, 0, "n_taps must be >= 1, got 0"),
    ],
    ids=["variant-name", "level-str", "level-above-taps", "no-taps"],
)
def test_msd_curve_checks_its_cell(variant, level, n_taps, message):
    # emit_csv wrote these as they were, or raised a bare KeyError for "lms"
    with pytest.raises(ParameterError) as exc:
        MsdCurve(variant, level, n_taps, [1.0, 0.5], runs=1)
    assert str(exc.value) == message


def test_only_the_owner_words_a_range_rule():
    # errors.check_integer and errors.check_real word every range rule, once
    package = Path(sparselms.__file__).parent
    rule = re.compile("must be >=|must be finite|must be an integer|must satisfy")
    worded = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ParameterError")
        and rule.search(ast.unparse(node))
    ]
    assert worded == []


def test_msd_curve_rejects_bad_values():
    with pytest.raises(ParameterError):
        MsdCurve(Variant.LMS, 1, 16, np.array([1.0, -0.5]), runs=1)
    with pytest.raises(ParameterError):
        MsdCurve(Variant.LMS, 1, 16, np.array([1.0, np.nan]), runs=1)
    for values in ([[1.0, 0.5]], []):
        with pytest.raises(ParameterError) as exc:
            MsdCurve(Variant.LMS, 1, 16, values, runs=1)
        assert str(exc.value) == "values must be a nonempty 1-d array"

import math

import numpy as np
import pytest

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
    gen_ar1_input,
    gen_cell_realizations,
    gen_gaussian_noise,
    gen_sparse_system,
    msd,
    regressor_at,
    run_cell,
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


def test_msd_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        msd(np.zeros(4), np.zeros(5))


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
    np.testing.assert_array_equal(
        run_trial(system, x, noise, cfg, 200), run_trial(system, x, noise, cfg, 200)
    )


@pytest.mark.parametrize("variant", list(Variant))
def test_run_trial_matches_stepwise_reference(variant):
    # the batched engine must agree with the one-sample step API; the two
    # differ only in the summation order of the regressor products
    cfg = default_schedule()[(variant, 4)]
    for seed, n, rtol, atol in ((4, 200, 1e-10, 1e-15), (100, 400, 1e-12, 0.0)):
        system, x, noise = trial_inputs(seed, length=n + 16)
        trace = run_trial(system, x, noise, cfg, n)
        state = FilterState.zeros(16)
        ref = np.empty(n)
        for k in range(n):
            xk = regressor_at(x[:n], k, 16)
            d = float(np.dot(system, xk)) + noise[k]
            state, _ = step(state, xk, d, cfg)
            ref[k] = msd(system, state.weights)
        np.testing.assert_allclose(trace, ref, rtol=rtol, atol=atol)


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


def test_run_trial_divergence_carries_iteration():
    system, x, noise = trial_inputs(7)
    cfg = AlgorithmConfig(Variant.LMS, mu=1e200)
    with pytest.raises(DivergenceError) as exc:
        run_trial(system, x, noise, cfg, 200)
    assert exc.value.iteration is not None and exc.value.iteration >= 0


# ----------------------------------------------------------------- run_cell


def test_run_cell_single_run_equals_trial():
    config = small_config(runs=1)
    curve = run_cell(Variant.LMS, 4, config)
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
    curve = run_cell(variant, 4, config)
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
    curve = run_cell(Variant.LMS, 2, config)
    np.testing.assert_array_equal(curve.values, np.full(200, 2.0))


def test_run_cell_mean_is_exact_run_average():
    config = small_config(runs=5)
    curve = run_cell(Variant.LP_LIKE_LMS, 1, config)
    acc = np.zeros(200)
    for r in range(5):
        stream = RngStream(config.master_seed, r)
        system = gen_sparse_system(16, 1, stream)
        x = gen_ar1_input(216, 0.8, 1e-3, stream)
        noise = gen_gaussian_noise(216, 1e-2, stream)
        acc += run_trial(system, x, noise, config.schedule[(Variant.LP_LIKE_LMS, 1)], 200)
    np.testing.assert_array_equal(curve.values, acc / 5)


def test_run_cell_worker_count_is_bit_invariant():
    config = small_config(runs=8)
    serial = run_cell(Variant.LP_LIKE_LLMS, 4, config, workers=None)
    threaded = run_cell(Variant.LP_LIKE_LLMS, 4, config, workers=4)
    np.testing.assert_array_equal(serial.values, threaded.values)
    np.testing.assert_array_equal(serial.run_tails, threaded.run_tails)


def test_run_cell_pairs_realizations_across_variants():
    # with frozen filters the curves depend only on the drawn systems,
    # which must match run-for-run between variants
    sched = {
        (Variant.LMS, 3): AlgorithmConfig(Variant.LMS, mu=0.0),
        (Variant.LLMS, 3): AlgorithmConfig(Variant.LLMS, mu=0.0, gamma=0.0),
    }
    config = small_config(runs=6, sparsity_levels=(3,), schedule=sched)
    a = run_cell(Variant.LMS, 3, config)
    b = run_cell(Variant.LLMS, 3, config)
    np.testing.assert_array_equal(a.values, b.values)


def test_run_cell_missing_schedule_entry():
    config = small_config()
    with pytest.raises(ConfigError, match="schedule"):
        run_cell(Variant.LMS, 5, config)


def test_run_cell_divergence_names_run():
    sched = {(Variant.LMS, 4): AlgorithmConfig(Variant.LMS, mu=1e200)}
    config = small_config(runs=2, schedule=sched)
    with pytest.raises(DivergenceError) as exc:
        run_cell(Variant.LMS, 4, config)
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
        run_cell(Variant.LMS, 4, config)
    assert exc.value.run == 1
    assert exc.value.iteration == k1
    assert str(exc.value) == f"weights became non-finite at iteration {k1} (run 1, lms 4/4)"
    assert exc.value.variant is Variant.LMS and exc.value.level == 4


def test_run_cell_aborts_on_runaway_but_finite_trace():
    # anti-leak with the constraint off amplifies the weights geometrically
    sched = {
        (Variant.LP_LIKE_LLMS, 4): AlgorithmConfig(
            Variant.LP_LIKE_LLMS, mu=0.1, gamma=0.9, rho_pl=0.0, leak_sign=LeakSign.PLUS
        )
    }
    config = small_config(runs=1, iterations=2000, schedule=sched)
    with pytest.raises(DivergenceError, match="exceeded"):
        run_cell(Variant.LP_LIKE_LLMS, 4, config)


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
        alone = run_cell(v, s, config)
        np.testing.assert_array_equal(curve.values, alone.values)
        np.testing.assert_array_equal(curve.run_tails, alone.run_tails)


def test_run_experiment_builds_each_level_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[3])
        return gen_cell_realizations(*args)

    monkeypatch.setattr(experiment, "gen_cell_realizations", counted)
    config = small_config(runs=2, sparsity_levels=(1, 4, 8))
    curves = run_experiment(config)
    assert len(curves) == 12
    assert calls == [1, 4, 8]


def test_run_experiment_raises_first_diverging_cell_in_variant_major_order():
    # (lms, 8) comes first variant-major; level by level, (llms, 1) runs first
    sched = default_schedule()
    sched[(Variant.LMS, 8)] = AlgorithmConfig(Variant.LMS, mu=1e200)
    sched[(Variant.LLMS, 1)] = AlgorithmConfig(Variant.LLMS, mu=1e200, gamma=0.005)
    config = small_config(runs=2, sparsity_levels=(1, 8), schedule=sched)
    with pytest.raises(DivergenceError) as alone:
        run_cell(Variant.LMS, 8, config)
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
    m_noisy = steady_state(run_cell(Variant.LMS, 4, noisy), 500).mean
    m_quiet = steady_state(run_cell(Variant.LMS, 4, quiet), 500).mean
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


def test_steady_state_stderr_across_runs():
    tails = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    curve = MsdCurve(Variant.LMS, 1, 16, np.full(10, 2.0), runs=3, run_tails=tails)
    s = steady_state(curve, 2)
    assert s.mean == 2.0
    assert s.stderr == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1) / np.sqrt(3))


def test_steady_state_stderr_shrinks_with_run_count():
    few = small_config(runs=50, iterations=300, steady_state_window=100)
    many = small_config(runs=100, iterations=300, steady_state_window=100)
    se_few = steady_state(run_cell(Variant.LMS, 4, few), 100).stderr
    se_many = steady_state(run_cell(Variant.LMS, 4, many), 100).stderr
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


# ---------------------------------------------------------------- validation


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
    ],
)
def test_experiment_config_validation(kw):
    with pytest.raises(ParameterError):
        ExperimentConfig(**kw)


def test_msd_curve_rejects_bad_values():
    with pytest.raises(ParameterError):
        MsdCurve(Variant.LMS, 1, 16, np.array([1.0, -0.5]), runs=1)
    with pytest.raises(ParameterError):
        MsdCurve(Variant.LMS, 1, 16, np.array([1.0, np.nan]), runs=1)

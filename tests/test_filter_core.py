import warnings

import numpy as np
import pytest

from sparselms import (
    AlgorithmConfig,
    DimensionMismatchError,
    DivergenceError,
    FilterState,
    LeakSign,
    ParameterError,
    Variant,
    instantaneous_error,
    llms_step,
    lms_step,
    lp_like_llms_step,
    lp_like_lms_step,
    pnorm_like,
    pnorm_like_gradient_term,
    predict,
    step,
)

STEPS = {
    Variant.LMS: lms_step,
    Variant.LLMS: llms_step,
    Variant.LP_LIKE_LMS: lp_like_lms_step,
    Variant.LP_LIKE_LLMS: lp_like_llms_step,
}


def random_cfg(variant, rng, leak_sign=None):
    return AlgorithmConfig(
        variant,
        mu=rng.uniform(0.001, 0.1),
        gamma=rng.uniform(0.0005, 0.5),
        rho_pl=rng.uniform(0.0, 0.01),
        epsilon_pl=rng.uniform(0.1, 20.0),
        p=rng.uniform(0.05, 0.95),
        leak_sign=leak_sign,
    )


# ---------------------------------------------------------------- predict


def test_predict_zero_weights():
    assert predict(FilterState.zeros(3), [5.0, -2.0, 1.0]) == 0.0


def test_predict_unit_selector():
    assert predict(FilterState([1.0, 0.0]), [3.0, 7.0]) == 3.0


def test_predict_symmetry_cancellation():
    assert predict(FilterState([0.5, -0.5]), [2.0, 2.0]) == 0.0


def test_predict_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        predict(FilterState.zeros(3), [1.0, 2.0])


def test_instantaneous_error():
    assert instantaneous_error(1.0, 1.0) == 0.0
    assert instantaneous_error(1.0, 0.0) == 1.0
    assert instantaneous_error(-2.5, 0.5) == -3.0


# ------------------------------------------------------------- pnorm_like


def test_pnorm_like_unit_taps():
    assert pnorm_like([1.0, -1.0, 0.0, 0.0], 0.5) == 2.0


def test_pnorm_like_zero_vector():
    assert pnorm_like(np.zeros(7), 0.3) == 0.0


def test_pnorm_like_fractional():
    assert pnorm_like([0.25], 0.5) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_pnorm_like_p_range(p):
    with pytest.raises(ParameterError, match="0 < p < 1"):
        pnorm_like([1.0], p)


def test_gradient_term_unit_tap_eps0():
    np.testing.assert_allclose(pnorm_like_gradient_term([1.0], 0.5, 0.0), [0.5])


def test_gradient_term_zero_taps():
    np.testing.assert_array_equal(pnorm_like_gradient_term([0.0, 0.0], 0.5, 10.0), [0.0, 0.0])
    # zero element stays zero even without the regularizer
    g = pnorm_like_gradient_term([0.0, 4.0], 0.5, 0.0)
    assert g[0] == 0.0 and np.isfinite(g).all()


def test_gradient_term_negative_tap():
    g = pnorm_like_gradient_term([-0.25], 0.5, 10.0)
    np.testing.assert_allclose(g, [-0.5 / 10.5], rtol=1e-15)


def test_gradient_term_matches_finite_differences(fd_gradient):
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(1, 12)
        w = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        p = rng.uniform(0.05, 0.95)
        g = pnorm_like_gradient_term(w, p, 0.0)
        fd = fd_gradient(lambda v: pnorm_like(v, p), w)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-12)


def test_gradient_term_shrinks_toward_zero():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(64)
    g = pnorm_like_gradient_term(w, 0.5, 10.0)
    nz = w != 0
    assert np.all(np.sign(g[nz]) == np.sign(w[nz]))


# ------------------------------------------------------------ step rules


def test_lms_step_example():
    cfg = AlgorithmConfig(Variant.LMS, mu=0.015)
    out = lms_step(FilterState.zeros(2), [1.0, 2.0], 1.0, cfg)
    np.testing.assert_allclose(out.weights, [0.015, 0.030], rtol=1e-15)
    assert out.iteration == 1


def test_lms_step_zero_error_fixed_point():
    cfg = AlgorithmConfig(Variant.LMS, mu=0.05)
    w = np.array([0.3, -0.7])
    x = np.array([2.0, 1.0])
    d = float(np.dot(w, x))
    out = lms_step(FilterState(w), x, d, cfg)
    np.testing.assert_array_equal(out.weights, w)


def test_llms_step_pure_leak():
    cfg = AlgorithmConfig(Variant.LLMS, mu=0.015, gamma=0.005)
    out = llms_step(FilterState([1.0, 0.0]), [0.0, 0.0], 0.0, cfg)
    np.testing.assert_allclose(out.weights, [0.999925, 0.0], rtol=1e-15)


def test_lp_like_lms_step_pure_shrink():
    cfg = AlgorithmConfig(Variant.LP_LIKE_LMS, mu=0.015, rho_pl=0.003, p=0.5, epsilon_pl=10.0)
    out = lp_like_lms_step(FilterState([1.0]), [0.0], 0.0, cfg)
    np.testing.assert_allclose(out.weights, [1.0 - 0.003 * 0.5 / 11.0], rtol=1e-15)


def test_lp_like_llms_step_plus_leak():
    cfg = AlgorithmConfig(
        Variant.LP_LIKE_LLMS, mu=0.015, gamma=0.005, rho_pl=0.003, p=0.5, epsilon_pl=10.0
    )
    assert cfg.leak_sign is LeakSign.PLUS
    out = lp_like_llms_step(FilterState([1.0, 0.0]), [0.0, 0.0], 0.0, cfg)
    np.testing.assert_allclose(out.weights, [1.000075 - 0.003 * 0.5 / 11.0, 0.0], rtol=1e-15)


def test_lp_like_llms_step_minus_leak():
    cfg = AlgorithmConfig(
        Variant.LP_LIKE_LLMS,
        mu=0.015,
        gamma=0.005,
        rho_pl=0.0,
        p=0.5,
        epsilon_pl=10.0,
        leak_sign=LeakSign.MINUS,
    )
    out = lp_like_llms_step(FilterState([1.0, 0.0]), [0.0, 0.0], 0.0, cfg)
    np.testing.assert_allclose(out.weights, [0.999925, 0.0], rtol=1e-15)


def test_zero_fixed_point_all_variants():
    rng = np.random.default_rng(0)
    for variant, fn in STEPS.items():
        cfg = random_cfg(variant, rng)
        out = fn(FilterState.zeros(4), np.zeros(4), 0.0, cfg)
        np.testing.assert_array_equal(out.weights, np.zeros(4))


def test_step_wrong_variant_rejected():
    cfg = AlgorithmConfig(Variant.LMS, mu=0.01)
    with pytest.raises(ParameterError, match="variant"):
        llms_step(FilterState.zeros(2), [1.0, 1.0], 0.0, cfg)


def test_step_divergence_reports_iteration():
    cfg = AlgorithmConfig(Variant.LMS, mu=1e300)
    state = FilterState(np.array([1e300]), iteration=7)
    with pytest.raises(DivergenceError) as exc:
        lms_step(state, np.array([1e8]), 1e300, cfg)
    assert exc.value.iteration == 7


@pytest.mark.parametrize("variant", list(Variant))
def test_step_divergence_raises_without_warnings(variant):
    # overflow on the way to divergence must not escape as a RuntimeWarning
    cfg = AlgorithmConfig(variant, mu=1e200, gamma=0.5, rho_pl=0.003)
    x = np.full(4, 1e100)
    state = FilterState.zeros(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            for _ in range(10):
                state, _ = step(state, x, 1e100, cfg)
    assert exc.value.iteration == state.iteration


@pytest.mark.parametrize("variant", [Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS])
def test_step_shrinkage_is_gradient_term(variant):
    # with a zero regressor the update is the leak plus the shrinkage alone
    cfg = AlgorithmConfig(variant, mu=0.015, gamma=0.0, rho_pl=0.003, epsilon_pl=0.5, p=0.3)
    w = np.array([0.0, -0.0, 2.5, -0.75, 1e-300, -1e300])
    out = step(FilterState(w), np.zeros(6), 0.0, cfg)[0]
    expected = w - 0.003 * pnorm_like_gradient_term(w, 0.3, 0.5)
    np.testing.assert_array_equal(out.weights, expected)


# -------------------------------------------------------------- dispatch


@pytest.mark.parametrize("variant", list(Variant))
def test_step_dispatch_matches_specific(variant):
    rng = np.random.default_rng(11)
    cfg = random_cfg(variant, rng)
    state = FilterState(rng.standard_normal(6))
    x = rng.standard_normal(6)
    d = rng.standard_normal()
    new_state, err = step(state, x, d, cfg)
    direct = STEPS[variant](state, x, d, cfg)
    np.testing.assert_array_equal(new_state.weights, direct.weights)
    assert new_state.iteration == direct.iteration == 1
    assert err == instantaneous_error(d, predict(state, x))


@pytest.mark.parametrize("variant", list(Variant))
def test_step_error_is_variant_independent(variant):
    cfg = random_cfg(variant, np.random.default_rng(5))
    _, err = step(FilterState.zeros(2), [1.0, 1.0], 3.0, cfg)
    assert err == 3.0


def test_step_is_deterministic():
    rng = np.random.default_rng(9)
    cfg = random_cfg(Variant.LP_LIKE_LLMS, rng)
    state = FilterState(rng.standard_normal(8))
    x = rng.standard_normal(8)
    a = step(state, x, 0.7, cfg)[0].weights
    b = step(state, x, 0.7, cfg)[0].weights
    np.testing.assert_array_equal(a, b)


def test_odd_symmetry_in_weights_and_desired():
    # flipping the sign of the state and the desired sample (regressor held
    # fixed) flips every update term, hence the updated weights
    rng = np.random.default_rng(21)
    for variant, fn in STEPS.items():
        for _ in range(50):
            cfg = random_cfg(variant, rng)
            w = rng.standard_normal(5)
            x = rng.standard_normal(5)
            d = rng.standard_normal()
            pos = fn(FilterState(w), x, d, cfg)
            neg = fn(FilterState(-w), x, -d, cfg)
            np.testing.assert_allclose(neg.weights, -pos.weights, rtol=1e-12, atol=1e-15)


# ----------------------------------------------------- collapse identities


def test_collapse_rho_zero_is_lms():
    rng = np.random.default_rng(31)
    for _ in range(100):
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        a = lp_like_lms_step(
            FilterState(w),
            x,
            d,
            AlgorithmConfig(Variant.LP_LIKE_LMS, mu=mu, rho_pl=0.0, p=0.5, epsilon_pl=10.0),
        )
        b = lms_step(FilterState(w), x, d, AlgorithmConfig(Variant.LMS, mu=mu))
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)


def test_collapse_gamma_zero_is_lms():
    rng = np.random.default_rng(32)
    for _ in range(100):
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        a = llms_step(FilterState(w), x, d, AlgorithmConfig(Variant.LLMS, mu=mu, gamma=0.0))
        b = lms_step(FilterState(w), x, d, AlgorithmConfig(Variant.LMS, mu=mu))
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)


def test_collapse_minus_leak_rho_zero_is_llms():
    rng = np.random.default_rng(33)
    for _ in range(100):
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        gamma = rng.uniform(0.001, 0.9)
        a = lp_like_llms_step(
            FilterState(w),
            x,
            d,
            AlgorithmConfig(
                Variant.LP_LIKE_LLMS,
                mu=mu,
                gamma=gamma,
                rho_pl=0.0,
                p=0.5,
                epsilon_pl=10.0,
                leak_sign=LeakSign.MINUS,
            ),
        )
        b = llms_step(FilterState(w), x, d, AlgorithmConfig(Variant.LLMS, mu=mu, gamma=gamma))
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)


# -------------------------------------------------------- finite differences


def test_lms_update_matches_cost_gradient(fd_gradient):
    rng = np.random.default_rng(41)
    for _ in range(50):
        w = rng.standard_normal(8)
        x = rng.standard_normal(8)
        d = rng.standard_normal()
        mu = 0.01
        out = lms_step(FilterState(w), x, d, AlgorithmConfig(Variant.LMS, mu=mu))
        grad = fd_gradient(lambda v: 0.5 * (d - np.dot(v, x)) ** 2, w)
        np.testing.assert_allclose(out.weights - w, -mu * grad, rtol=1e-6, atol=1e-9)


def test_llms_update_matches_cost_gradient(fd_gradient):
    # quadratic penalty enters the cost scaled so its gradient is gamma*w
    rng = np.random.default_rng(43)
    for _ in range(50):
        w = rng.standard_normal(8)
        x = rng.standard_normal(8)
        d = rng.standard_normal()
        mu, gamma = 0.01, 0.3
        cfg = AlgorithmConfig(Variant.LLMS, mu=mu, gamma=gamma)
        out = llms_step(FilterState(w), x, d, cfg)
        cost = lambda v: 0.5 * (d - np.dot(v, x)) ** 2 + 0.5 * gamma * np.dot(v, v)
        np.testing.assert_allclose(
            out.weights - w, -mu * fd_gradient(cost, w), rtol=1e-6, atol=1e-9
        )


# -------------------------------------------------------------- validation


def test_config_rejects_negative_mu():
    with pytest.raises(ParameterError, match="mu"):
        AlgorithmConfig(Variant.LMS, mu=-0.01)


def test_config_accepts_mu_zero():
    assert AlgorithmConfig(Variant.LMS, mu=0.0).mu == 0.0


@pytest.mark.parametrize("gamma", [-0.1, 1.0, 2.0])
def test_config_rejects_bad_gamma(gamma):
    with pytest.raises(ParameterError, match="gamma"):
        AlgorithmConfig(Variant.LLMS, mu=0.01, gamma=gamma)


def test_config_gamma_unchecked_for_plain_lms():
    # fields irrelevant to the variant are ignored, not validated
    assert AlgorithmConfig(Variant.LMS, mu=0.01, gamma=5.0).gamma == 5.0


def test_config_rejects_bad_p():
    with pytest.raises(ParameterError, match="0 < p < 1"):
        AlgorithmConfig(Variant.LP_LIKE_LMS, mu=0.01, p=1.5)


def test_config_rejects_bad_rho():
    with pytest.raises(ParameterError, match="rho_pl"):
        AlgorithmConfig(Variant.LP_LIKE_LMS, mu=0.01, rho_pl=-1e-3)


def test_config_rejects_bad_epsilon():
    with pytest.raises(ParameterError, match="epsilon_pl"):
        AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=0.01, gamma=0.1, epsilon_pl=0.0)


def test_leak_sign_defaults():
    assert AlgorithmConfig(Variant.LP_LIKE_LLMS, gamma=0.1).leak_sign is LeakSign.PLUS
    assert AlgorithmConfig(Variant.LLMS, gamma=0.1).leak_sign is LeakSign.MINUS
    assert AlgorithmConfig(Variant.LMS).leak_sign is LeakSign.MINUS
    explicit = AlgorithmConfig(Variant.LP_LIKE_LLMS, gamma=0.1, leak_sign=LeakSign.MINUS)
    assert explicit.leak_sign is LeakSign.MINUS


def test_filter_state_zeros_validation():
    with pytest.raises(ParameterError):
        FilterState.zeros(0)
    s = FilterState.zeros(4)
    assert s.iteration == 0
    np.testing.assert_array_equal(s.weights, np.zeros(4))

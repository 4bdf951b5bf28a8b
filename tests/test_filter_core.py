"""The update rules through ``step``: worked examples, gradients, degenerate
parameters, the state ``step`` returns, its errors for malformed input, and
every regressor form stepping to the same bits.

Portability: ``LOOP_SHA256`` and ``SQRT_LOOP_SHA256`` store the digest of a
2000-step loop per rule.  The three p = 0.3 shrinkage loops store one digest
per numpy power loop, AVX-512 and the other x86-64 loops (SSE and AVX2 give
the same bits), and ``POWER_CANARY`` picks the set.  A test runs the stored
loops and a small study in child processes under
``OPENBLAS_CORETYPE=Haswell`` (on a CPU with AVX2) and with numpy's AVX-512
targets off (``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``),
and requires the study's bytes of an in-process run and each loop's stored
digest for the power loop the child runs.  Tier-1 passes with those targets
off as with them on.
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import pickle
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from oracles import left_fold, raising
from sparselms import (
    AlgorithmConfig,
    DimensionMismatchError,
    DivergenceError,
    ExperimentConfig,
    FilterState,
    LeakSign,
    MsdCurve,
    ParameterError,
    Variant,
    pnorm_like,
    pnorm_like_gradient_term,
    run_experiment,
    step,
)
from sparselms.cli import main


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


# ------------------------------------------------------------- pnorm_like


def test_pnorm_like_unit_taps():
    assert pnorm_like([1.0, -1.0, 0.0, 0.0], 0.5) == 2.0


def test_pnorm_like_zero_vector():
    assert pnorm_like(np.zeros(7), 0.3) == 0.0


def test_pnorm_like_fractional():
    assert pnorm_like([0.25], 0.5) == pytest.approx(0.5, rel=1e-15)


def test_pnorm_like_is_a_left_fold_of_the_powers():
    # summed in tap order, as msd and the engine sum, not pairwise as np.sum
    rng = np.random.default_rng(2)
    w = rng.standard_normal(16) * 10.0 ** rng.uniform(-8, 8, 16)
    powers = (np.abs(w) ** 0.5).tolist()
    assert float(np.sum(powers)) != left_fold(powers)
    assert pnorm_like(w, 0.5) == left_fold(powers)
    assert pnorm_like(w.reshape(4, 4), 0.5) == left_fold(powers)
    assert pnorm_like(0.25, 0.5) == 0.5
    assert pnorm_like([], 0.5) == 0.0


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
    out = step(FilterState.zeros(2), [1.0, 2.0], 1.0, cfg)[0]
    np.testing.assert_allclose(out.weights, [0.015, 0.030], rtol=1e-15)
    assert out.iteration == 1


def test_lms_step_zero_error_fixed_point():
    cfg = AlgorithmConfig(Variant.LMS, mu=0.05)
    w = np.array([0.3, -0.7])
    x = np.array([2.0, 1.0])
    d = float(np.dot(w, x))
    out = step(FilterState(w), x, d, cfg)[0]
    np.testing.assert_array_equal(out.weights, w)


def test_llms_step_pure_leak():
    cfg = AlgorithmConfig(Variant.LLMS, mu=0.015, gamma=0.005)
    out = step(FilterState([1.0, 0.0]), [0.0, 0.0], 0.0, cfg)[0]
    np.testing.assert_allclose(out.weights, [0.999925, 0.0], rtol=1e-15)


def test_lp_like_lms_step_pure_shrink():
    cfg = AlgorithmConfig(Variant.LP_LIKE_LMS, mu=0.015, rho_pl=0.003, p=0.5, epsilon_pl=10.0)
    out = step(FilterState([1.0]), [0.0], 0.0, cfg)[0]
    np.testing.assert_allclose(out.weights, [1.0 - 0.003 * 0.5 / 11.0], rtol=1e-15)


def test_lp_like_llms_step_plus_leak():
    cfg = AlgorithmConfig(
        Variant.LP_LIKE_LLMS, mu=0.015, gamma=0.005, rho_pl=0.003, p=0.5, epsilon_pl=10.0
    )
    assert cfg.leak_sign is LeakSign.PLUS
    out = step(FilterState([1.0, 0.0]), [0.0, 0.0], 0.0, cfg)[0]
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
    out = step(FilterState([1.0, 0.0]), [0.0, 0.0], 0.0, cfg)[0]
    np.testing.assert_allclose(out.weights, [0.999925, 0.0], rtol=1e-15)


def test_zero_fixed_point_all_variants():
    rng = np.random.default_rng(0)
    for variant in Variant:
        cfg = random_cfg(variant, rng)
        out = step(FilterState.zeros(4), np.zeros(4), 0.0, cfg)[0]
        np.testing.assert_array_equal(out.weights, np.zeros(4))


def test_step_divergence_reports_iteration():
    cfg = AlgorithmConfig(Variant.LMS, mu=1e300)
    state = FilterState(np.array([1e300]), iteration=7)
    with pytest.raises(DivergenceError) as exc:
        step(state, np.array([1e8]), 1e300, cfg)
    assert exc.value.iteration == 7


@pytest.mark.parametrize("variant", list(Variant))
def test_step_divergence_raises_without_warnings(variant):
    # overflow on the way to divergence must not escape as a RuntimeWarning
    cfg = AlgorithmConfig(variant, mu=1e200, gamma=0.5, rho_pl=0.003)
    x = np.full(4, 1e100)
    state = FilterState.zeros(4)
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


@pytest.mark.parametrize("variant", [Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS])
def test_step_shrinkage_at_p_half_is_a_square_root(variant):
    # numpy takes |w|**0.5 as a square root; a small epsilon_pl lets its last
    # bit reach the weights, which epsilon_pl = 10 mostly rounds away
    cfg = AlgorithmConfig(variant, mu=0.015, gamma=0.0, rho_pl=0.5, epsilon_pl=1e-3, p=0.5)
    w = np.random.default_rng(8).standard_normal(4096) * 10.0 ** np.arange(-8, 8, 1 / 256)
    out = step(FilterState(w), np.zeros(w.size), 0.0, cfg)[0]
    expected = w - 0.5 * (0.5 * np.sign(w) / (1e-3 + np.sqrt(np.abs(w))))
    np.testing.assert_array_equal(out.weights, expected)


@pytest.mark.parametrize("variant", list(Variant))
def test_step_error_is_variant_independent(variant):
    cfg = random_cfg(variant, np.random.default_rng(5))
    _, err = step(FilterState.zeros(2), [1.0, 1.0], 3.0, cfg)
    assert err == 3.0
    # the pre-update error e = d - w . x, from nonzero weights, with w . x
    # summed left to right as the engine sums it; products of mixed
    # magnitudes, so that the summation order shows in the last bits
    rng = np.random.default_rng(11)
    state = FilterState(rng.standard_normal(16) * 10.0 ** rng.uniform(-8, 8, 16))
    x = rng.standard_normal(16)
    d = rng.standard_normal()
    products = (state.weights * x).tolist()
    assert left_fold(products) != left_fold(products[::-1])
    _, err = step(state, x, d, cfg)
    assert err == float(d) - left_fold(products)


# At p = 0.3 the shrinkage takes |w|**0.7 through numpy's SIMD power loop,
# whose last bit differs between its AVX-512 loop and its other x86-64 loops;
# x ** 0.7 on this canary tells them apart.
POWER_CANARY = float.fromhex("0x1.582f121aaf5fap-2")
POWER_LOOPS = {"0x1.dd5b6805b4ba3p-2": "avx512", "0x1.dd5b6805b4ba4p-2": "x86-64"}


def power_loop():
    """The name of the power loop numpy runs, read from the canary's bits."""
    bits = float((np.array([POWER_CANARY]) ** 0.7)[0]).hex()
    if bits not in POWER_LOOPS:
        pytest.fail(f"{POWER_CANARY.hex()} ** 0.7 is {bits}, the bits of no stored power loop")
    return POWER_LOOPS[bits]


# sha256 of the weights after every step, then the errors, of a 2000-step
# loop from zero weights, with w . x summed as the engine's left fold, so any
# change to step()'s arithmetic shows here bit for bit; the three p = 0.3
# shrinkage loops hold one digest per power loop
LOOP_SHA256 = {
    (Variant.LMS, None): (
        "bbd2d75fd28e3d25a5db74c80e37b5c5b3ecf9d0287f14552c0ad1137c0c61ef"
    ),
    (Variant.LLMS, None): (
        "f250842b0061a7101dba04c965109f14e8a2ca845eaacf52c42815ac9bc9ff7f"
    ),
    (Variant.LP_LIKE_LMS, None): {
        "avx512": "c99ca3d4af92067cd493715098f548e4010106fa6999e7027cbdd8f4b24c668b",
        "x86-64": "c99ca3d4af92067cd493715098f548e4010106fa6999e7027cbdd8f4b24c668b",
    },
    (Variant.LP_LIKE_LLMS, None): {
        "avx512": "da69eda6afc7952ae942e8300f592cb95f9ccf86331478e9074f7b32c6953206",
        "x86-64": "6e11e95c1cf8135e61db7eba39d245313419681adad5309c9ccea109b397ed57",
    },
    (Variant.LP_LIKE_LLMS, LeakSign.MINUS): {
        "avx512": "6a0387305a599e417f50e686432bdf816b723d10cc7f8e6bfb9d3ae47e983a0b",
        "x86-64": "ddcbf3d6cea6d567386696aeeef333b84749ea53aa94d9047c522f2f742b1a5c",
    },
}


def stored_loop_sha256(case, loop):
    """``case``'s stored digest under the power loop named ``loop``."""
    digest = LOOP_SHA256[case]
    return digest if isinstance(digest, str) else digest[loop]


# the same loop at the default study's p = 0.5, epsilon_pl = 10 and
# rho_pl = 0.003, where numpy takes |w|**(1-p) as a correctly rounded square
# root rather than through its general power loop
SQRT_LOOP_SHA256 = {
    Variant.LP_LIKE_LMS: "9d0ce9f9258d9377be7f03869d6fa9527c2fe58c3e55b5405bacce4fb4c32063",
    Variant.LP_LIKE_LLMS: "45e3e153161daf207c116b07202795ad41be30d7c15d9f3e3dedbd6895461ba3",
}


def loop_sha256(variant, leak_sign, steps=2000, n_taps=16, p=0.3, epsilon_pl=0.5, rho_pl=0.002):
    rng = np.random.default_rng(2015)
    system = np.zeros(n_taps)
    system[[2, 9]] = (1.0, -1.0)
    x = np.zeros(steps + n_taps - 1)
    for k, u in enumerate(rng.standard_normal(steps), start=n_taps - 1):
        x[k] = 0.8 * x[k - 1] + u
    regressors = np.lib.stride_tricks.sliding_window_view(x, n_taps)[:, ::-1]
    desired = regressors @ system + 0.1 * rng.standard_normal(steps)
    cfg = AlgorithmConfig(
        variant, mu=0.02, gamma=0.01, rho_pl=rho_pl, epsilon_pl=epsilon_pl, p=p,
        leak_sign=leak_sign,
    )
    state = FilterState.zeros(n_taps)
    h = hashlib.sha256()
    errors = []
    for x_k, d in zip(regressors, desired):
        state, e = step(state, x_k, d, cfg)
        h.update(state.weights.tobytes())
        errors.append(e)
    h.update(np.array(errors).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(LOOP_SHA256), ids=lambda c: f"{c[0].value}-{c[1]}")
def test_step_loop_bits_are_stored(case):
    assert loop_sha256(*case) == stored_loop_sha256(case, power_loop())


@pytest.mark.parametrize("variant", list(SQRT_LOOP_SHA256), ids=lambda v: v.value)
def test_step_loop_bits_at_p_half_are_stored(variant):
    digest = loop_sha256(variant, None, p=0.5, epsilon_pl=10.0, rho_pl=0.003)
    assert digest == SQRT_LOOP_SHA256[variant]


def portable_digests(out_dir):
    """The power loop numpy runs, and sha256 of the seven stored step loops and of a
    small study's CSV, by name."""
    digests = {"power-loop": power_loop()}
    for variant, sign in LOOP_SHA256:
        digests[f"LOOP_SHA256[{variant.value}-{sign}]"] = loop_sha256(variant, sign)
    for variant in SQRT_LOOP_SHA256:
        digests[f"SQRT_LOOP_SHA256[{variant.value}]"] = loop_sha256(
            variant, None, p=0.5, epsilon_pl=10.0, rho_pl=0.003
        )
    argv = ["--runs", "3", "--iterations", "300", "--sr", "1/16,16/16", "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    digests["study-csv"] = hashlib.sha256((out_dir / "msd_curves.csv").read_bytes()).hexdigest()
    return digests


PORTABLE_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, {tests!r})
from test_filter_core import portable_digests
print(json.dumps(portable_digests(Path({out!r}))))
"""

def cpu_settings():
    """Settings that make OpenBLAS and numpy pick other kernels in a child process.

    Each only picks a kernel this CPU has or switches targets off: OpenBLAS's
    Haswell kernels need AVX2, which numpy 2.4 reports as part of X86_V3.
    """
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    found = simd.get("found", [])
    settings = {}
    if {"AVX2", "X86_V3", "X86_V4"} & set(simd["baseline"] + found):
        settings["blas-haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    avx512 = [t for t in ("AVX512_SPR", "AVX512_ICL", "X86_V4") if t in found]
    settings["numpy-no-avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    return settings


def test_step_loops_and_study_are_portable(tmp_path, package_env):
    # step() sums w . x as the engine's left fold, not by BLAS, and the study
    # runs p = 0.5 as a square root, so neither depends on the CPU's kernels;
    # the p = 0.3 loops equal the stored digests of the power loop each child runs
    tests = str(Path(__file__).resolve().parent)
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", PORTABLE_CHILD.format(tests=tests, out=str(tmp_path / name))],
            env={**package_env, **setting}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for name, setting in cpu_settings().items()
    }
    own = portable_digests(tmp_path)
    for name, child in children.items():
        out, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (0, ""), name
        got = json.loads(out)
        loop = got["power-loop"]
        stored = {f"LOOP_SHA256[{variant.value}-{sign}]": stored_loop_sha256((variant, sign), loop)
                  for variant, sign in LOOP_SHA256}
        assert got == {**own, **stored, "power-loop": loop}, name


@pytest.mark.parametrize("variant", list(Variant))
def test_step_runs_in_its_own_error_state(variant):
    # a caller's np.errstate does not reach inside step(): here w . x
    # underflows, which all="raise" used to turn into FloatingPointError
    cfg = AlgorithmConfig(variant, mu=1e-10)
    tiny = (FilterState(np.full(4, 1e-300)), np.full(4, 1e-300), 0.0, cfg)
    outside = step(*tiny)
    loop = loop_sha256(variant, None)
    inside = raising(step, *tiny)
    assert raising(loop_sha256, variant, None) == loop
    with pytest.raises(DivergenceError):
        raising(step, FilterState([1e300]), [1e8], 1e300, AlgorithmConfig(variant, mu=1e300))
    np.testing.assert_array_equal(inside[0].weights, outside[0].weights)
    assert (inside[0].iteration, inside[1]) == (outside[0].iteration, outside[1])


def test_threads_step_to_the_serial_bits():
    # each call enters its own copy of step()'s error state; threads that
    # entered one shared context would raise RuntimeError
    def run(_):
        return loop_sha256(Variant.LP_LIKE_LLMS, None, steps=4000)

    serial = run(None)
    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(run, range(4))) == [serial] * 4


@pytest.mark.parametrize("variant", list(Variant))
def test_finite_weights_whose_sum_overflows_do_not_diverge(variant):
    # the summed finite check overflows to inf here; the weights are finite
    cfg = AlgorithmConfig(variant, mu=0.0, gamma=0.5, rho_pl=0.0)
    w = np.array([1e308, 1e308])
    new_state, e = step(FilterState(w), np.zeros(2), 0.0, cfg)
    np.testing.assert_array_equal(new_state.weights, w)
    assert e == 0.0 and new_state.iteration == 1


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
    for variant in Variant:
        for _ in range(50):
            cfg = random_cfg(variant, rng)
            w = rng.standard_normal(5)
            x = rng.standard_normal(5)
            d = rng.standard_normal()
            pos = step(FilterState(w), x, d, cfg)[0]
            neg = step(FilterState(-w), x, -d, cfg)[0]
            np.testing.assert_allclose(neg.weights, -pos.weights, rtol=1e-12, atol=1e-15)


# ----------------------------------------------------- collapse identities


def test_collapse_rho_zero_is_lms():
    rng = np.random.default_rng(31)
    for _ in range(100):
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        a = step(
            FilterState(w),
            x,
            d,
            AlgorithmConfig(Variant.LP_LIKE_LMS, mu=mu, rho_pl=0.0, p=0.5, epsilon_pl=10.0),
        )[0]
        b = step(FilterState(w), x, d, AlgorithmConfig(Variant.LMS, mu=mu))[0]
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)


def test_collapse_gamma_zero_is_lms():
    rng = np.random.default_rng(32)
    for _ in range(100):
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        a = step(FilterState(w), x, d, AlgorithmConfig(Variant.LLMS, mu=mu, gamma=0.0))[0]
        b = step(FilterState(w), x, d, AlgorithmConfig(Variant.LMS, mu=mu))[0]
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)


def test_collapse_minus_leak_rho_zero_is_llms():
    rng = np.random.default_rng(33)
    for _ in range(100):
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        gamma = rng.uniform(0.001, 0.9)
        a = step(
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
        )[0]
        b = step(FilterState(w), x, d, AlgorithmConfig(Variant.LLMS, mu=mu, gamma=gamma))[0]
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=0)


# -------------------------------------------------------- finite differences


def test_lms_update_matches_cost_gradient(fd_gradient):
    rng = np.random.default_rng(41)
    for _ in range(50):
        w = rng.standard_normal(8)
        x = rng.standard_normal(8)
        d = rng.standard_normal()
        mu = 0.01
        out = step(FilterState(w), x, d, AlgorithmConfig(Variant.LMS, mu=mu))[0]
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
        out = step(FilterState(w), x, d, cfg)[0]
        cost = lambda v: 0.5 * (d - np.dot(v, x)) ** 2 + 0.5 * gamma * np.dot(v, v)
        np.testing.assert_allclose(
            out.weights - w, -mu * fd_gradient(cost, w), rtol=1e-6, atol=1e-9
        )


# -------------------------------------------------------------- validation


def test_config_rejects_negative_mu():
    with pytest.raises(ParameterError, match="mu"):
        AlgorithmConfig(Variant.LMS, mu=-0.01)
    with pytest.raises(ParameterError, match="mu must be finite"):
        AlgorithmConfig(Variant.LMS, mu=math.inf)


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
    with pytest.raises(ParameterError, match="rho_pl must be finite"):
        AlgorithmConfig(Variant.LP_LIKE_LMS, mu=0.01, rho_pl=math.inf)


def test_config_rejects_bad_epsilon():
    with pytest.raises(ParameterError, match="epsilon_pl"):
        AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=0.01, gamma=0.1, epsilon_pl=0.0)
    # an infinite regularizer would switch the shrinkage off
    with pytest.raises(ParameterError, match="epsilon_pl must be finite"):
        AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=0.01, gamma=0.1, epsilon_pl=math.inf)


def test_leak_sign_defaults():
    assert AlgorithmConfig(Variant.LP_LIKE_LLMS, gamma=0.1).leak_sign is LeakSign.PLUS
    assert AlgorithmConfig(Variant.LLMS, gamma=0.1).leak_sign is LeakSign.MINUS
    assert AlgorithmConfig(Variant.LMS).leak_sign is LeakSign.MINUS
    explicit = AlgorithmConfig(Variant.LP_LIKE_LLMS, gamma=0.1, leak_sign=LeakSign.MINUS)
    assert explicit.leak_sign is LeakSign.MINUS


def test_config_rejects_a_name_for_the_variant():
    # a string is no Variant: "lp_like_llms" stepped like plain LMS before
    with pytest.raises(ParameterError, match="variant must be a Variant, got 'lp_like_llms'"):
        AlgorithmConfig("lp_like_llms", gamma=0.005, rho_pl=0.003)


def test_config_rejects_a_name_for_the_leak_sign():
    # "plus" is no LeakSign: it gave the MINUS multiplier before
    with pytest.raises(ParameterError, match="leak_sign must be a LeakSign, got 'plus'"):
        AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=0.5, gamma=0.015, leak_sign="plus")
    with pytest.raises(ParameterError, match="leak_sign must be a LeakSign, got 'plus'"):
        AlgorithmConfig(Variant.LMS, leak_sign="plus")  # checked though plain LMS ignores it
    cfg = AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=0.5, gamma=0.015)
    with pytest.raises(ParameterError, match="got 'minus'"):
        dataclasses.replace(cfg, leak_sign="minus")


def test_replace_recomputes_the_per_config_constants():
    cfg = AlgorithmConfig(Variant.LLMS, mu=0.1, gamma=0.2)
    assert cfg.leak_mult == 1.0 - 0.1 * 0.2
    assert dataclasses.replace(cfg, gamma=0.5).leak_mult == 1.0 - 0.1 * 0.5
    assert dataclasses.replace(cfg, mu=0.3).leak_mult == 1.0 - 0.3 * 0.2
    plus = AlgorithmConfig(Variant.LP_LIKE_LLMS, mu=0.1, gamma=0.2, rho_pl=0.01)
    assert plus.leak_mult == 1.0 + 0.1 * 0.2
    assert dataclasses.replace(plus, leak_sign=LeakSign.MINUS).leak_mult == 1.0 - 0.1 * 0.2
    # a replaced shrinkage weight reaches step(): zero regressor, zero leak
    w = np.array([0.5, -2.0])
    stronger = dataclasses.replace(plus, gamma=0.0, rho_pl=0.05)
    out = step(FilterState(w), np.zeros(2), 0.0, stronger)[0]
    np.testing.assert_array_equal(out.weights, w - 0.05 * pnorm_like_gradient_term(w, 0.5, 10.0))


def test_filter_state_zeros_validation():
    with pytest.raises(ParameterError):
        FilterState.zeros(0)
    with pytest.raises(ParameterError, match="n_taps must be an integer, got 2.5"):
        FilterState.zeros(2.5)
    with pytest.raises(ParameterError, match="n_taps must be an integer, got '3'"):
        FilterState.zeros("3")
    # numpy raised a bare TypeError for a bool
    with pytest.raises(ParameterError, match="^n_taps must be an integer, got True$"):
        FilterState.zeros(True)
    with pytest.raises(ParameterError, match="iteration must be >= 0, got -3"):
        FilterState(np.zeros(2), iteration=-3)
    s = FilterState.zeros(4)
    assert s.iteration == 0
    np.testing.assert_array_equal(s.weights, np.zeros(4))


RAGGED = [[1.0], [1.0, 2.0]]


@pytest.mark.parametrize("shape", [(2, 2), (0,), (), (1, 3), pytest.param(None, id="ragged")])
def test_filter_state_rejects_weights_that_are_not_taps(shape):
    # ragged weights have no shape; the error names them instead
    weights = RAGGED if shape is None else np.zeros(shape)
    named = re.escape(str(RAGGED) if shape is None else f"shape {shape}")
    with pytest.raises(ParameterError, match=named):
        FilterState(weights)
    with pytest.raises(ParameterError, match=named):
        dataclasses.replace(FilterState.zeros(2), weights=weights)


def test_filter_state_rejects_an_empty_list():
    with pytest.raises(ParameterError, match=r"shape \(0,\)"):
        FilterState([])


@pytest.mark.parametrize(
    "x_shape", [(16, 1), (1, 16), (), pytest.param(None, id="not_numbers")]
)
def test_length_mismatch_names_both_shapes(x_shape):
    state = FilterState.zeros(16)
    cfg = AlgorithmConfig(Variant.LMS)
    if x_shape is None:  # numpy cannot read it, so it has no shape; the error names it
        x, error = ["a", "b"], ParameterError
        message = r"regressor must be an array of floats, got \['a', 'b'\]"
    else:
        x, error = np.zeros(x_shape), DimensionMismatchError
        message = rf"shape \(16,\) but regressor has shape {re.escape(str(x_shape))}"
    with pytest.raises(error, match=message):
        step(state, x, 0.0, cfg)


def test_length_mismatch_names_both_lengths():
    with pytest.raises(DimensionMismatchError, match="length 3 but regressor has length 2"):
        step(FilterState.zeros(3), [1.0, 2.0], 0.0, AlgorithmConfig(Variant.LMS))


# ------------------------------------------------- the state step() returns


@pytest.mark.parametrize("variant", list(Variant))
def test_step_returns_a_fresh_state(variant):
    rng = np.random.default_rng(17)
    cfg = random_cfg(variant, rng)
    w = rng.standard_normal(5)
    x = rng.standard_normal(5)
    state = FilterState(w.copy(), iteration=41)
    new, _ = step(state, x, 0.3, cfg)
    assert type(new) is FilterState
    assert new.weights.dtype == np.float64
    assert new.weights.ndim == 1 and new.weights.flags.c_contiguous
    assert not np.shares_memory(new.weights, x)
    assert not np.shares_memory(new.weights, state.weights)
    assert new.iteration == 42 and type(new.iteration) is int
    assert state.iteration == 41
    np.testing.assert_array_equal(state.weights, w)
    built = FilterState(new.weights, 42)
    assert vars(new).keys() == vars(built).keys()
    assert all(np.array_equal(getattr(new, f.name), getattr(built, f.name))
               for f in dataclasses.fields(FilterState))
    reset = dataclasses.replace(new, iteration=0)
    assert reset.iteration == 0
    np.testing.assert_array_equal(reset.weights, new.weights)


@pytest.mark.parametrize("variant", list(Variant))
def test_step_rejects_new_weights_whose_sum_is_nan(variant):
    # (mu*e)*x overflows to [inf, -inf]: no weight is NaN, but their sum is
    cfg = AlgorithmConfig(variant, mu=1e200, gamma=0.5, rho_pl=0.003)
    state = FilterState(np.zeros(2), iteration=3)
    with pytest.raises(DivergenceError) as exc:
        step(state, np.array([1e200, -1e200]), 1e200, cfg)
    assert exc.value.iteration == 3


@pytest.mark.parametrize("variant", list(Variant))
def test_step_rejects_a_nan_weight(variant):
    cfg = AlgorithmConfig(variant, mu=0.0, gamma=0.5, rho_pl=0.003)
    state = FilterState(np.array([np.nan, 0.0]), iteration=5)
    with pytest.raises(DivergenceError) as exc:
        step(state, np.zeros(2), 0.0, cfg)
    assert exc.value.iteration == 5


@pytest.mark.parametrize("variant", list(Variant))
def test_finite_weights_whose_left_fold_overflows_do_not_diverge(variant):
    # 1e308 + 1e308 overflows before -1e308 is added, so the sum is inf
    # though every weight is finite
    cfg = AlgorithmConfig(variant, mu=0.0, gamma=0.5, rho_pl=0.0)
    w = np.array([1e308, 1e308, -1e308])
    new_state, e = step(FilterState(w), np.zeros(3), 0.0, cfg)
    np.testing.assert_array_equal(new_state.weights, w)
    assert e == 0.0 and new_state.iteration == 1


class TaggedArray(np.ndarray):
    """An ndarray subclass, which step() reads as its plain float64 values."""


def read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


# Each form holds the regressor's values, which are exact in float32 and as ints.
REGRESSOR_FORMS = {
    "list": lambda x: x.tolist(),
    "tuple": lambda x: tuple(x.tolist()),
    "float32": lambda x: x.astype(np.float32),
    "int": lambda x: x.astype(int),
    "big-endian": lambda x: x.astype(">f8"),
    "strided": lambda x: np.repeat(x, 3)[::3],
    "reversed": lambda x: x[::-1].copy()[::-1],
    "read-only": read_only,
    "subclass": lambda x: x.view(TaggedArray),
}


@pytest.mark.parametrize("form", list(REGRESSOR_FORMS))
@pytest.mark.parametrize("variant", list(Variant))
def test_every_regressor_form_steps_to_the_same_bits(variant, form):
    rng = np.random.default_rng(29)
    cfg = random_cfg(variant, rng)
    state = FilterState(rng.standard_normal(7))
    x = rng.integers(-4, 5, 7).astype(float)
    want, want_e = step(state, x, 0.6, cfg)
    regressor = REGRESSOR_FORMS[form](x)
    got, e = step(state, regressor, 0.6, cfg)
    assert type(got.weights) is np.ndarray and got.weights.dtype == np.float64
    assert got.weights.tobytes() == want.weights.tobytes() and e == want_e
    assert not np.shares_memory(got.weights, np.asarray(regressor))
    with pytest.raises(DimensionMismatchError, match=r"regressor has shape \(1, 7\)"):
        step(state, [regressor], 0.6, cfg)


@pytest.mark.parametrize("variant", list(Variant))
def test_configs_and_states_survive_pickle_and_deepcopy(variant):
    # spawned workers receive what pickle sends; a step fills the config's caches first
    rng = np.random.default_rng(37)
    cfg = random_cfg(variant, rng)
    study = ExperimentConfig(runs=2, iterations=30)
    x = rng.standard_normal(16)
    state, _ = step(FilterState(rng.standard_normal(16), iteration=3), x, 0.4, cfg)
    step(state, x, 0.4, study.schedule[variant, 4])
    assert "_operands" in vars(cfg) and "_operands" in vars(study.schedule[variant, 4])
    for copy_of in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy):
        cfg_copy, state_copy, study_copy = copy_of((cfg, state, study))
        assert cfg_copy == cfg and study_copy == study
        assert state_copy.iteration == state.iteration
        assert state_copy.weights.tobytes() == state.weights.tobytes()
        rules = [(cfg, cfg_copy), (study.schedule[variant, 4], study_copy.schedule[variant, 4])]
        for rule, rule_copy in rules:
            want, want_e = step(state, x, 0.4, rule)
            got, e = step(state_copy, x, 0.4, rule_copy)
            assert got.weights.tobytes() == want.weights.tobytes() and e == want_e


def test_what_a_level_worker_sends_and_returns_survives_pickle():
    # a pool of levels sends each worker a built study and gets back its curves
    # or the first DivergenceError, all through pickle
    def round_trip(obj):
        return pickle.loads(pickle.dumps(obj))

    study = ExperimentConfig(runs=3, iterations=40, steady_state_window=10, sparsity_levels=(2, 4))
    assert round_trip(study) == study
    [curve] = run_experiment(study, [Variant.LLMS], [2])
    got = round_trip(curve)
    assert (got.variant, got.sparsity_level, got.n_taps, got.runs) == (Variant.LLMS, 2, 16, 3)
    assert got.values.tobytes() == curve.values.tobytes()
    assert got.run_tails.tobytes() == curve.run_tails.tobytes()
    runaway = {(Variant.LMS, 4): AlgorithmConfig(Variant.LMS, mu=1e200)}
    with pytest.raises(DivergenceError) as exc:
        run_experiment(dataclasses.replace(study, schedule=runaway), [Variant.LMS], [4])
    err, got = exc.value, round_trip(exc.value)
    assert type(got) is DivergenceError and str(got) == str(err)
    assert (got.iteration, got.run, got.variant, got.level) == (
        err.iteration, err.run, Variant.LMS, 4
    )
    assert err.iteration is not None and err.run is not None


def test_states_and_curves_compare_and_hash_by_identity():
    # the generated == compared the array fields as a tuple and raised a bare
    # ValueError, and hash raised TypeError
    for make in (lambda: FilterState.zeros(16),
                 lambda: MsdCurve(Variant.LMS, 1, 16, [1.0, 2.0], 1)):
        obj, twin = make(), make()
        assert obj == obj and not obj != obj and obj in [twin, obj]
        assert obj != twin and twin not in [obj]
        assert hash(obj) == hash(obj) and len({obj, twin}) == 2

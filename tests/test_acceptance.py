"""Acceptance suite: full-protocol reproduction plus property batteries.

Each test prints one ``[acceptance] criterion N: PASS|FAIL`` line (visible
with ``pytest -s``; captured otherwise) and then asserts the same verdict.
Criteria 1-3 and the stored output hashes share a single full default
study (16 taps, 8000 iterations, 200 runs per cell), the session-scoped
``study`` fixture of ``conftest.py``.
"""

import hashlib
import math

import numpy as np

from sparselms import (
    AlgorithmConfig,
    FilterState,
    LeakSign,
    RngStream,
    Variant,
    emit_csv,
    emit_plot,
    gen_ar1_input,
    gen_gaussian_noise,
    gen_sparse_system,
    pnorm_like,
    pnorm_like_gradient_term,
    run_trial,
    step,
)
from sparselms.cli import main


def report(criterion, ok):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def beats(a, b):
    """a's mean is strictly below b's by more than 2 combined standard errors."""
    return (b.mean - a.mean) > 2.0 * math.hypot(a.stderr, b.stderr)


def test_criterion_1_best_steady_state_in_sparse_cells(study):
    summaries, _ = study
    ok = True
    for level in (1, 4, 8):
        proposed = summaries[(Variant.LP_LIKE_LLMS, level)]
        for other in (Variant.LMS, Variant.LLMS, Variant.LP_LIKE_LMS):
            ok = ok and beats(proposed, summaries[(other, level)])
    report(1, ok)


def test_criterion_2_shrinkage_variants_win_when_very_sparse(study):
    summaries, _ = study
    ok = True
    for sparse_variant in (Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS):
        for plain_variant in (Variant.LMS, Variant.LLMS):
            ok = ok and beats(summaries[(sparse_variant, 1)], summaries[(plain_variant, 1)])
    report(2, ok)


def test_criterion_3_near_parity_in_dense_cell(study):
    summaries, _ = study
    pairs = [
        (Variant.LP_LIKE_LMS, Variant.LMS),
        (Variant.LP_LIKE_LLMS, Variant.LLMS),
    ]
    ok = True
    for sparse_variant, plain_variant in pairs:
        a = summaries[(sparse_variant, 16)].mean
        b = summaries[(plain_variant, 16)].mean
        ok = ok and abs(a - b) <= 0.10 * b
    report(3, ok)


# sha256 of the default study's outputs, as `sparselms --out DIR --plot --db`
# writes them: any change to the study's values or the emitters shows here
STUDY_CSV_SHA256 = "be0d012785ef72d9dd790624273b4241552c7961be1119f1a171a3df8a1142d3"
STUDY_SVG_SHA256 = "f57228463cc4ee3ec4fdb55a4433e6eaef610b491c3eae40463ebdb7fef2f354"


def test_default_study_bytes_are_stored(study, tmp_path):
    _, curves = study
    emit_csv(curves, tmp_path / "msd_curves.csv")
    emit_plot(curves, tmp_path / "msd_curves.svg", db_scale=True)
    sha = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert sha("msd_curves.csv") == STUDY_CSV_SHA256
    assert sha("msd_curves.svg") == STUDY_SVG_SHA256


def test_criterion_4_update_rules_match_finite_difference_gradients(fd_gradient):
    rng = np.random.default_rng(2024)
    mu, gamma, rho, eps, p = 0.01, 0.3, 0.005, 2.0, 0.6
    cfg_lms = AlgorithmConfig(Variant.LMS, mu=mu)
    cfg_llms = AlgorithmConfig(Variant.LLMS, mu=mu, gamma=gamma)
    cfg_pl = AlgorithmConfig(Variant.LP_LIKE_LMS, mu=mu, rho_pl=rho, epsilon_pl=eps, p=p)
    cfg_pll = AlgorithmConfig(
        Variant.LP_LIKE_LLMS, mu=mu, gamma=gamma, rho_pl=rho, epsilon_pl=eps, p=p
    )
    ok = True
    for _ in range(1000):
        w = rng.standard_normal(16)
        x = rng.standard_normal(16)
        d = rng.standard_normal()
        state = FilterState(w)
        data_cost = lambda v: 0.5 * (d - np.dot(v, x)) ** 2
        fd_data = fd_gradient(data_cost, w)
        shrink = rho * pnorm_like_gradient_term(w, p, eps)

        delta = step(state, x, d, cfg_lms)[0].weights - w
        ok = ok and np.allclose(delta, -mu * fd_data, rtol=1e-6, atol=1e-9)

        full_cost = lambda v: data_cost(v) + 0.5 * gamma * np.dot(v, v)
        delta = step(state, x, d, cfg_llms)[0].weights - w
        ok = ok and np.allclose(delta, -mu * fd_gradient(full_cost, w), rtol=1e-6, atol=1e-9)

        delta = step(state, x, d, cfg_pl)[0].weights - w
        ok = ok and np.allclose(delta, -mu * fd_data - shrink, rtol=1e-6, atol=1e-9)

        delta = step(state, x, d, cfg_pll)[0].weights - w
        ok = ok and np.allclose(
            delta, -mu * fd_data + mu * gamma * w - shrink, rtol=1e-6, atol=1e-9
        )
        if not ok:
            break

    for _ in range(1000):
        n = int(rng.integers(1, 17))
        w = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        pp = rng.uniform(0.05, 0.95)
        g = pnorm_like_gradient_term(w, pp, 0.0)
        fd = fd_gradient(lambda v: pnorm_like(v, pp), w)
        ok = ok and np.allclose(g, fd, rtol=1e-4, atol=1e-12)
        if not ok:
            break
    report(4, ok)


def test_criterion_5_degenerate_parameter_collapses():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        w = rng.standard_normal(16)
        w[rng.integers(0, 16)] = 0.0
        x = rng.standard_normal(16)
        d = rng.standard_normal()
        mu = rng.uniform(0.001, 0.1)
        gamma = rng.uniform(0.001, 0.9)
        state = FilterState(w)

        a = step(
            state, x, d,
            AlgorithmConfig(Variant.LP_LIKE_LMS, mu=mu, rho_pl=0.0, p=0.5, epsilon_pl=10.0),
        )[0].weights
        b = step(state, x, d, AlgorithmConfig(Variant.LMS, mu=mu))[0].weights
        ok = ok and np.allclose(a, b, rtol=1e-12, atol=0.0)

        a = step(
            state, x, d,
            AlgorithmConfig(
                Variant.LP_LIKE_LLMS, mu=mu, gamma=gamma, rho_pl=0.0, p=0.5,
                epsilon_pl=10.0, leak_sign=LeakSign.MINUS,
            ),
        )[0].weights
        b = step(state, x, d, AlgorithmConfig(Variant.LLMS, mu=mu, gamma=gamma))[0].weights
        ok = ok and np.allclose(a, b, rtol=1e-12, atol=0.0)

        a = step(state, x, d, AlgorithmConfig(Variant.LLMS, mu=mu, gamma=0.0))[0].weights
        b = step(state, x, d, AlgorithmConfig(Variant.LMS, mu=mu))[0].weights
        ok = ok and np.allclose(a, b, rtol=1e-12, atol=0.0)
        if not ok:
            break
    report(5, ok)


def test_criterion_6_statistical_generators():
    ok = True

    g = RngStream(6).generator
    hits = np.zeros(16)
    signed = 0.0
    for _ in range(10_000):
        w = gen_sparse_system(16, 4, g)
        ok = ok and np.count_nonzero(w) == 4 and np.all(np.isin(w[w != 0], [-1.0, 1.0]))
        hits += w != 0
        signed += w.sum()
    ok = ok and np.all(np.abs(hits / 10_000 - 0.25) <= 0.02)
    ok = ok and abs(signed / 40_000) <= 0.05

    x = gen_ar1_input(10_000, 0.8, 1e-3, RngStream(60))
    ok = ok and abs(np.var(x) - 1.0) <= 1e-12
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    ok = ok and abs(r1 - 0.8) <= 0.05

    noise = gen_gaussian_noise(100_000, 1e-2, RngStream(61))
    ok = ok and abs(np.var(noise) - 0.01) <= 0.0005
    report(6, ok)


def test_criterion_7_cli_determinism_across_invocations_and_workers(tmp_path):
    # the 1/16 cells of all rules, twice alone and once among more work (a second level)
    base = ["--runs", "6", "--iterations", "400", "--seed", "424242"]
    ok = main(base + ["--sr", "1/16", "--out", str(tmp_path / "a")]) == 0
    ok = ok and main(base + ["--sr", "1/16", "--out", str(tmp_path / "b")]) == 0
    ok = ok and main(base + ["--sr", "1/16,4/16", "--out", str(tmp_path / "c")]) == 0
    ref = (tmp_path / "a" / "msd_curves.csv").read_bytes()
    ok = ok and (tmp_path / "b" / "msd_curves.csv").read_bytes() == ref
    header, *rows = (tmp_path / "c" / "msd_curves.csv").read_bytes().splitlines(keepends=True)
    level_1 = [r for r in rows if r.split(b",")[1:3] == [b"1", b"16"]]
    ok = ok and header + b"".join(level_1) == ref
    report(7, ok)


def test_criterion_8_noiseless_lms_converges():
    stream = RngStream(8)
    system = gen_sparse_system(16, 4, stream)
    x = gen_ar1_input(8000, 0.0, 1.0, stream)
    cfg = AlgorithmConfig(Variant.LMS, mu=0.05)
    trace = run_trial(system, x, np.zeros(8000), cfg, 8000)
    report(8, trace[-1] < 1e-3)

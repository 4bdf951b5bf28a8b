"""The seeded generators: stored AR(1) values, each row of
``gen_cell_realizations`` against the single-run generators, stored digests of
the protocol's cells, and the cell builder's peak memory.
"""

import hashlib

import numpy as np
import pytest

from oracles import run_inputs, run_python, traced_peak
from sparselms import (
    ParameterError,
    RngStream,
    gen_ar1_input,
    gen_cell_realizations,
    gen_gaussian_noise,
    gen_sparse_system,
    regressor_at,
)


def test_rng_stream_replays_bit_exactly():
    a = RngStream(77, 3).generator.standard_normal(256)
    b = RngStream(77, 3).generator.standard_normal(256)
    np.testing.assert_array_equal(a, b)
    assert repr(RngStream(77, 3)) == "RngStream(seed=77, stream_id=3)"


def test_rng_stream_ids_are_independent():
    a = RngStream(77, 0).generator.standard_normal(256)
    b = RngStream(77, 1).generator.standard_normal(256)
    assert not np.array_equal(a, b)


def test_rng_stream_validation():
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(2**64)
    with pytest.raises(ParameterError):
        RngStream(0, -1)
    # int() would truncate these, so two seeds would share one stream
    with pytest.raises(ParameterError, match="seed must be an integer, got 1234.9"):
        RngStream(1234.9)
    with pytest.raises(ParameterError, match="stream_id must be an integer, got 2.5"):
        RngStream(1234, 2.5)
    # a bool was seed 1
    with pytest.raises(ParameterError, match="^seed must be an integer, got True$"):
        RngStream(True)
    a = RngStream(np.uint64(77), np.int64(3)).generator.standard_normal(8)
    np.testing.assert_array_equal(a, RngStream(77, 3).generator.standard_normal(8))


# ----------------------------------------------------------- sparse system


def test_sparse_system_dense_case():
    w = gen_sparse_system(16, 16, RngStream(1))
    assert np.count_nonzero(w) == 16
    assert set(np.unique(w)) <= {-1.0, 1.0}


def test_sparse_system_single_tap():
    w = gen_sparse_system(16, 1, RngStream(2))
    assert np.count_nonzero(w) == 1
    assert abs(w[np.nonzero(w)][0]) == 1.0
    assert np.count_nonzero(w == 0.0) == 15


@pytest.mark.parametrize("n_nonzero", [1, 4, 8, 16])
def test_sparse_system_counts(n_nonzero):
    w = gen_sparse_system(16, n_nonzero, RngStream(3, n_nonzero))
    assert w.shape == (16,)
    assert np.count_nonzero(w) == n_nonzero
    assert np.all(np.isin(w[w != 0], [-1.0, 1.0]))


def test_sparse_system_uniform_placement_and_sign_symmetry():
    g = RngStream(1234).generator
    hits = np.zeros(16)
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        w = gen_sparse_system(16, 4, g)
        hits += w != 0
        total += w.sum()
    freq = hits / draws
    assert np.all(np.abs(freq - 0.25) <= 0.02)
    assert abs(total / (4 * draws)) <= 0.05


def test_sparse_system_validation():
    with pytest.raises(ParameterError):
        gen_sparse_system(16, 17, RngStream(0))
    with pytest.raises(ParameterError):
        gen_sparse_system(16, 0, RngStream(0))
    with pytest.raises(ParameterError):
        gen_sparse_system(0, 1, RngStream(0))
    # non-integer counts raised numpy's bare TypeError
    with pytest.raises(ParameterError, match="n_nonzero must be an integer, got 1.5"):
        gen_sparse_system(16, 1.5, RngStream(0))
    with pytest.raises(ParameterError, match="n_taps must be an integer, got 16.0"):
        gen_sparse_system(16.0, 1, RngStream(0))


# -------------------------------------------------------------- AR(1) input


def test_ar1_sample_variance_is_exactly_one():
    x = gen_ar1_input(8016, 0.8, 1e-3, RngStream(5))
    assert np.var(x) == pytest.approx(1.0, abs=1e-12)


def test_ar1_lag1_autocorrelation():
    x = gen_ar1_input(10_000, 0.8, 1e-3, RngStream(6))
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r1 == pytest.approx(0.8, abs=0.05)


def test_ar1_white_case():
    x = gen_ar1_input(10_000, 0.0, 1.0, RngStream(7))
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1) <= 0.05
    assert np.var(x) == pytest.approx(1.0, abs=1e-12)


def test_ar1_recursion_matches_direct_form():
    g = RngStream(8).generator
    u = g.standard_normal(200) * np.sqrt(1e-3)
    ref = np.empty(200)
    ref[0] = u[0]
    for k in range(1, 200):
        ref[k] = 0.8 * ref[k - 1] + u[k]
    ref /= np.sqrt(np.var(ref))
    x = gen_ar1_input(200, 0.8, 1e-3, RngStream(8))
    np.testing.assert_array_equal(x, ref)


def test_ar1_is_deterministic():
    a = gen_ar1_input(512, 0.8, 1e-3, RngStream(9, 2))
    b = gen_ar1_input(512, 0.8, 1e-3, RngStream(9, 2))
    np.testing.assert_array_equal(a, b)


def test_ar1_validation():
    with pytest.raises(ParameterError):
        gen_ar1_input(100, 1.0, 1e-3, RngStream(0))
    with pytest.raises(ParameterError):
        gen_ar1_input(100, -1.2, 1e-3, RngStream(0))
    with pytest.raises(ParameterError):
        gen_ar1_input(100, 0.8, 0.0, RngStream(0))
    with pytest.raises(ParameterError):
        gen_ar1_input(0, 0.8, 1e-3, RngStream(0))
    with pytest.raises(ParameterError, match="length must be an integer, got 10.5"):
        gen_ar1_input(10.5, 0.8, 1e-3, RngStream(0))
    # rejected before any arithmetic, which would warn
    with pytest.raises(ParameterError, match="drive_variance must be finite"):
        gen_ar1_input(10, 0.8, np.inf, RngStream(0))
    # the input's sample variance overflows; the check itself must not warn
    with pytest.raises(ParameterError, match="variance overflows"):
        gen_ar1_input(100, 0.8, 1e308, RngStream(0))
    # a subnormal sample variance would rescale the input by a value of few bits
    with pytest.raises(ParameterError, match="subnormal"):
        gen_ar1_input(100, 0.8, 1e-310, RngStream(0))


# gen_ar1_input(8016, 0.8, 1e-3, RngStream(1234, 0)) as the earlier IIR-filter
# implementation produced it (sha256 of its bytes and a sample of its values);
# the numpy recursion must reproduce it bit for bit.
AR1_1234_SHA256 = "43e2a5122583f2042c4adc61a24cde6fb1e4f154c2006a13ef724fa2bcfc037b"
AR1_1234_VALUES = {
    0: 0.2295353494666551,
    1: 1.058716114060997,
    501: 0.8908679970494696,
    1002: -0.4829810169741961,
    1503: -0.570550728167055,
    2004: 0.04941107888597366,
    2505: -1.779254817536485,
    3006: 0.3123297514474569,
    3507: 0.7453170373155457,
    4008: -1.1711357892265155,
    4509: -2.1055927022601466,
    5010: 1.3469480306465844,
    5511: -0.6572473682593032,
    6012: -0.1554709088668992,
    6513: 1.423478630992695,
    7014: -0.6266366160008197,
    7515: -1.5223180657149236,
    8015: -1.1188945474615652,
}


def test_ar1_stored_values():
    x = gen_ar1_input(8016, 0.8, 1e-3, RngStream(1234, 0))
    assert x.shape == (8016,) and x.dtype == np.float64
    for k, value in AR1_1234_VALUES.items():
        assert x[k] == value, k
    assert hashlib.sha256(x.tobytes()).hexdigest() == AR1_1234_SHA256


# ------------------------------------------------------------ cell builder


# sha256 of (systems, xs, noises) for one protocol cell (seed 1234, 200 runs,
# 16 taps, 150 iterations + 16 samples), taken when the builder still drew
# through the single-run generators
PROTOCOL_CELL_SHA256 = {
    1: "20b07751156b900ad397f08d71d17a54d1ef50787cccba5ec5dc82cda14a563c",
    16: "252266ed8aed1af4660a70a8b50af50dd2f7c877abec94bbec23e732cdf19010",
}


def test_cell_rows_equal_single_run_generators():
    # (runs, nonzero taps, length): the protocol's cell at levels 1 and 16,
    # and the full study's length
    for runs, level, length in [(5, 4, 1000), (200, 1, 166), (200, 16, 166), (3, 8, 8016)]:
        systems, xs, noises = gen_cell_realizations(
            77, runs, 16, level, length, coeff=0.8, drive_variance=1e-3, noise_variance=1e-2
        )
        assert systems.shape == (runs, 16) and xs.shape == noises.shape == (runs, length)
        for r in range(runs):
            system, x, noise = run_inputs(77, r, level, length)
            assert systems[r].tobytes() == system.tobytes()
            assert xs[r].tobytes() == x.tobytes()
            assert noises[r].tobytes() == noise.tobytes()


@pytest.mark.parametrize("level", sorted(PROTOCOL_CELL_SHA256))
def test_protocol_cell_bits_are_stored(level):
    h = hashlib.sha256()
    for a in gen_cell_realizations(
        1234, 200, 16, level, 166, coeff=0.8, drive_variance=1e-3, noise_variance=1e-2
    ):
        h.update(a.tobytes())
    assert h.hexdigest() == PROTOCOL_CELL_SHA256[level]


def test_cell_generation_peaks_at_one_and_a_half_buffers():
    # the AR(1) recursion runs on the drives in place; np.var's temporary, half
    # the buffer, is the only other large array
    args = (1, 50, 16, 4, 4000, 0.8, 1e-3, 1e-2)
    buffer = 50 * 2 * 4000 * 8  # every run's drive and noise, in float64 bytes
    assert traced_peak(gen_cell_realizations, *args) <= 1.6 * buffer


def test_cell_builder_validation():
    good = dict(
        master_seed=0, runs=2, n_taps=16, n_nonzero=4, length=100,
        coeff=0.8, drive_variance=1e-3, noise_variance=1e-2,
    )
    for bad in (
        dict(runs=0),
        dict(n_nonzero=17),
        dict(length=0),
        dict(coeff=1.0),
        dict(drive_variance=0.0),
        dict(noise_variance=-1.0),
        dict(master_seed=-1),
        dict(drive_variance=1e308),
        dict(drive_variance=5e-324),
        dict(drive_variance=np.inf),
        dict(noise_variance=np.inf),
        dict(runs=2.5),
        dict(n_nonzero=1.5),
        dict(length=10.5),
    ):
        with pytest.raises(ParameterError):
            gen_cell_realizations(**{**good, **bad})


IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import sparselms
roots = {m.split(".")[0] for m in set(sys.modules) - before}
print(",".join(sorted(roots - set(sys.stdlib_module_names))))
"""


def test_import_loads_no_third_party_package_but_numpy(package_env):
    proc = run_python("-c", IMPORTED_PACKAGES, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy,sparselms"


# ------------------------------------------------------------------- noise


def test_noise_zero_variance_is_exactly_zero():
    n = gen_gaussian_noise(64, 0.0, RngStream(10))
    np.testing.assert_array_equal(n, np.zeros(64))


def test_noise_sample_statistics():
    n = gen_gaussian_noise(100_000, 1e-2, RngStream(11))
    assert np.var(n) == pytest.approx(0.01, abs=0.0005)
    assert abs(n.mean()) <= 0.001


def test_noise_is_deterministic():
    a = gen_gaussian_noise(512, 1e-2, RngStream(12, 4))
    b = gen_gaussian_noise(512, 1e-2, RngStream(12, 4))
    np.testing.assert_array_equal(a, b)


def test_noise_validation():
    with pytest.raises(ParameterError):
        gen_gaussian_noise(100, -1e-3, RngStream(0))
    with pytest.raises(ParameterError):
        gen_gaussian_noise(0, 1e-3, RngStream(0))
    with pytest.raises(ParameterError, match="length must be an integer, got 5.5"):
        gen_gaussian_noise(5.5, 1e-3, RngStream(0))
    with pytest.raises(ParameterError, match="variance must be finite"):
        gen_gaussian_noise(5, np.inf, RngStream(0))


# --------------------------------------------------------------- regressor


def test_regressor_zero_prehistory():
    np.testing.assert_array_equal(regressor_at([5.0, 1.0, 2.0], 0, 3), [5.0, 0.0, 0.0])


def test_regressor_partial_window():
    np.testing.assert_array_equal(regressor_at([1.0, 2.0, 3.0, 4.0], 2, 3), [3.0, 2.0, 1.0])


def test_regressor_full_window_is_reversed_slice():
    x = np.arange(20.0)
    for k in range(2, 20):
        np.testing.assert_array_equal(regressor_at(x, k, 3), x[k - 2 : k + 1][::-1])


def test_regressor_windows_overlap():
    x = np.random.default_rng(13).standard_normal(40)
    for k in range(1, 40):
        cur = regressor_at(x, k, 6)
        prev = regressor_at(x, k - 1, 6)
        np.testing.assert_array_equal(cur[1:], prev[:-1])


def test_regressor_bounds():
    with pytest.raises(IndexError):
        regressor_at([1.0, 2.0], 2, 2)
    with pytest.raises(IndexError):
        regressor_at([1.0, 2.0], -1, 2)
    with pytest.raises(ParameterError):
        regressor_at([1.0, 2.0], 0, 0)
    with pytest.raises(ParameterError, match="n_taps must be an integer, got 2.5"):
        regressor_at([1.0, 2.0], 0, 2.5)
    with pytest.raises(ParameterError, match="k must be an integer, got 1.0"):
        regressor_at([1.0, 2.0], 1.0, 2)

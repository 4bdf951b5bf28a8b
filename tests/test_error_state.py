"""The numeric path runs in one floating-point error state, ``errors.QUIET``.

``step``, the engine, the AR(1) rescale and every other public function that
computes with the numbers it is given enter their own copy of it, so a
caller's ``np.errstate`` or ``np.seterr`` (or a parent process's) changes
neither a result's bytes nor how it fails, and leaves the caller's state as
it was.  A fuzz calls each such function on extreme values of every dtype
and may see only a value or a named error.

Two ``ast`` scans read the package's source.  One fails if BLAS sums
anything.  The other fails if a piece of the update rule or of an input rule
appears outside its one owner in ``RULE_OWNERS``: the shrinkage's sign, the
fold over taps, the leak multiplier, ``np.asarray``, what an integer is, what
a real number is, and a range's ``ge=``, ``gt=`` or ``lt=`` bound.
"""

import ast
import math
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparselms
from oracles import curve_bytes, raising, run_python
from sparselms import (
    AlgorithmConfig,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    FilterState,
    MsdCurve,
    ParameterError,
    RngStream,
    Variant,
    emit_plot,
    gen_ar1_input,
    gen_cell_realizations,
    gen_gaussian_noise,
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
from sparselms.cli import main


def test_run_trial_underflow_is_not_the_callers_error():
    # w . x and mu*e underflow; numpy's default ignores that, and so must the engine
    args = (np.full(4, 1e-300), np.full(20, 1e-300), np.zeros(20),
            AlgorithmConfig(Variant.LMS, mu=1e-10), 10)
    assert raising(run_trial, *args).tobytes() == run_trial(*args).tobytes()


def test_run_experiment_underflow_is_not_the_callers_error():
    config = parse_config("mu = 1e-300\nsparsity_levels = 1\n", runs=3, iterations=50)
    outside = run_experiment(config, [Variant.LMS])
    assert curve_bytes(raising(run_experiment, config, [Variant.LMS])) == curve_bytes(outside)


def test_generators_are_not_the_callers_error_state():
    # at this drive variance the AR(1) input's squared deviations underflow
    cell = (5, 3, 16, 4, 300, 0.8, 1e-305, 1e-2)
    inside = raising(gen_cell_realizations, *cell)
    outside = gen_cell_realizations(*cell)
    assert [a.tobytes() for a in inside] == [a.tobytes() for a in outside]
    ar1 = (300, 0.8, 1e-305)
    assert (raising(gen_ar1_input, *ar1, RngStream(5)).tobytes()
            == gen_ar1_input(*ar1, RngStream(5)).tobytes())
    with pytest.raises(ParameterError, match="variance overflows"):
        raising(gen_ar1_input, 100, 0.8, 1e308, RngStream(0))


def test_divergence_is_named_whatever_the_callers_error_state():
    config = parse_config("mu = 10\nsparsity_levels = 1\n", runs=3, iterations=300)
    with pytest.raises(DivergenceError) as outside:
        run_experiment(config, [Variant.LMS])
    with pytest.raises(DivergenceError) as inside:
        raising(run_experiment, config, [Variant.LMS])
    inside, outside = inside.value, outside.value
    assert str(inside) == str(outside)
    assert (inside.run, inside.iteration) == (outside.run, outside.iteration)


# a fresh interpreter whose error state raises, as a forked worker would inherit it
RAISING_CLI = """
import sys
import numpy as np
from sparselms.cli import main
np.seterr(all="raise")
sys.exit(main(sys.argv[1:]))
"""


def test_cli_output_does_not_depend_on_the_process_error_state(tmp_path, capsys, package_env):
    conf = tmp_path / "tiny.conf"
    conf.write_text("mu = 1e-300\n")
    args = ["--config", str(conf), "--runs", "3", "--iterations", "50", "--sr", "1/16",
            "--algorithms", "lms", "--plot", "--summary"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    proc = run_python(
        "-c", RAISING_CLI, *args, "--out", str(tmp_path / "raising"), env=package_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in ("msd_curves.csv", "msd_curves.svg"):
        raised, plain = (tmp_path / run / name for run in ("raising", "plain"))
        assert raised.read_bytes() == plain.read_bytes()
    summary = capsys.readouterr().out.split("\n", 2)[2]
    assert proc.stdout.split("\n", 2)[2] == summary


def test_threads_run_trials_to_the_serial_bits():
    # each call enters its own copy of the engine's error state; threads that
    # entered one shared context would raise RuntimeError
    stream = RngStream(11)
    x = gen_ar1_input(2016, 0.8, 1e-3, stream)
    noise = 0.1 * stream.generator.standard_normal(2016)
    system = np.zeros(16)
    system[[3, 8]] = (1.0, -1.0)
    cfg = AlgorithmConfig(Variant.LP_LIKE_LLMS, gamma=0.005, rho_pl=0.002)

    def run(_):
        return run_trial(system, x, noise, cfg, 2000).tobytes()

    serial = run(None)
    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(run, range(8))) == [serial] * 8


def test_every_runtime_warning_fails_a_test():
    # pyproject's filterwarnings is the suite's one warning rule: the tests that
    # want no warning from a call rely on it, and a ComplexWarning is a RuntimeWarning
    with pytest.raises(RuntimeWarning):
        warnings.warn("x", RuntimeWarning)
    with pytest.raises(np.exceptions.ComplexWarning):
        np.array([1 + 1j]).astype(float)


def test_the_gradient_term_overflows_to_inf_without_a_warning():
    # a subnormal weight with epsilon_pl = 0: p/|w|**(1-p) is too large for a float
    term = pnorm_like_gradient_term(np.array([5e-324, 1.0]), 0.01, 0.0)
    assert term.tolist() == [np.inf, 0.01]


# values that overflow or underflow inside; the caller's error state must not make
# them a warning or a raise
EXTREME_CALLS = {
    "msd-overflow": (msd, [1e200], [0.0]),
    "msd-underflow": (msd, [1e-200], [0.0]),
    "pnorm-like-overflow": (pnorm_like, [1e308] * 16, 0.999),
    "pnorm-like-underflow": (pnorm_like, [1e-320], 0.999),
    "steady-state-overflow": (
        steady_state, MsdCurve(Variant.LMS, 1, 16, [1e308, 1e308], 2, [[1e308, 1e308]] * 2), 2
    ),
}


@pytest.mark.parametrize("call", EXTREME_CALLS.values(), ids=EXTREME_CALLS)
def test_extreme_values_are_not_the_callers_error(call):
    f, *args = call
    assert repr(raising(f, *args)) == repr(f(*args))


def test_a_plot_of_extreme_values_is_not_the_callers_error(tmp_path):
    # the curve's span divides 1e-320 to an underflow
    curve = MsdCurve(Variant.LMS, 1, 16, [1.7e308, 0.0, 1e-320], 1)
    inside = raising(emit_plot, [curve], tmp_path / "inside.svg")
    assert inside.read_text() == emit_plot([curve], tmp_path / "outside.svg").read_text()


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max,
                    reason="longdouble is no wider than float64 here")
def test_a_wider_float_beyond_float64_reads_as_inf():
    wide = np.array([np.longdouble("1e400"), -np.longdouble("1e400"), 1.0])
    assert raising(FilterState, wide).weights.tolist() == [math.inf, -math.inf, 1.0]
    assert FilterState(wide).weights.tolist() == [math.inf, -math.inf, 1.0]
    assert raising(msd, wide, np.zeros(3)) == msd(wide, np.zeros(3)) == math.inf
    assert raising(pnorm_like, wide, 0.5) == pnorm_like(wide, 0.5) == math.inf
    with pytest.raises(ParameterError, match="MSD values must be nonnegative and finite"):
        raising(MsdCurve, Variant.LMS, 1, 16, wide[:1], 1)


NAMED_ERRORS = (ParameterError, DimensionMismatchError, ConfigError, DivergenceError)
EXTREMES = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-320, 1e308, -1e308, np.inf, -np.inf, np.nan]
DTYPES = [np.float64, np.float32, np.float16, np.longdouble, np.int8, np.uint8, object]


@st.composite
def library_calls(draw):
    """``(f, args)`` for each public numeric entry point, each array and scalar of
    numbers drawn from ``EXTREMES`` and cast to a drawn dtype."""
    n, m, runs = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    k, window, db_scale = draw(st.integers(0, m - 1)), draw(st.integers(1, m)), draw(st.booleans())
    # one list of each, which draws faster than an array at a time: 35 numbers and
    # 13 dtypes at most
    numbers = iter(draw(st.lists(st.sampled_from(EXTREMES), min_size=35, max_size=35)))
    dtypes = iter(draw(st.lists(st.sampled_from(DTYPES), min_size=13, max_size=13)))

    def extremes(*shape):
        a = np.array([next(numbers) for _ in range(math.prod(shape))]).reshape(shape)
        with np.errstate(all="ignore"):  # nan and inf wrap into the integer dtypes
            return a.astype(next(dtypes))[()]  # a 0-d array's scalar

    w, x, signal, noise, values = extremes(n), extremes(n), extremes(m), extremes(m), extremes(m)
    tails = extremes(runs, m) if draw(st.booleans()) else None
    mu, gamma, rho_pl, epsilon_pl, desired, coeff, variance = (extremes() for _ in range(7))
    p = draw(st.floats(0.0, 0.999, exclude_min=True))
    variant = draw(st.sampled_from(list(Variant)))

    def cfg():
        return AlgorithmConfig(variant, mu=mu, gamma=gamma, rho_pl=rho_pl,
                               epsilon_pl=epsilon_pl, p=p)

    def curve():
        return MsdCurve(variant, 1, 16, values, runs, tails)

    return [
        (FilterState, (w,)),
        (lambda: step(FilterState(w), x, desired, cfg()), ()),
        (msd, (w, x)),
        (pnorm_like, (w, p)),
        (pnorm_like_gradient_term, (w, p, epsilon_pl)),
        (regressor_at, (signal, k, n)),
        (lambda: run_trial(w, signal, noise, cfg(), m), ()),
        (lambda: steady_state(curve(), window), ()),
        (lambda: emit_plot([curve()], os.devnull, db_scale), ()),
        (gen_ar1_input, (m, coeff, variance, RngStream(0))),
        (gen_gaussian_noise, (m, variance, RngStream(0))),
    ]


@settings(max_examples=100, deadline=None)
@given(library_calls())
def test_library_calls_fail_only_by_name(calls):
    # every call returns a value or raises a named error, whatever the caller's error state
    for f, args in calls:
        try:
            raising(f, *args)
        except NAMED_ERRORS:
            pass


# numpy 2 keeps the error state in a context variable, so QUIET's import-time
# seterr and the calls that enter it leave the importing thread's state alone
ERROR_STATE_ACROSS_A_RUN = """
import numpy as np
print(np.geterr())
from sparselms import AlgorithmConfig, FilterState, Variant, run_trial, step
cfg = AlgorithmConfig(Variant.LMS, mu=0.01)
step(FilterState.zeros(2), [1.0, 2.0], 1.0, cfg)
run_trial([1.0, 0.0], [1.0] * 20, [0.0] * 20, cfg, 10)
print(np.geterr())
"""


def test_a_fresh_interpreters_error_state_survives_import_and_a_run(package_env):
    proc = run_python("-c", ERROR_STATE_ACROSS_A_RUN, env=package_env)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert after == before


def test_only_the_owner_sets_the_error_state():
    package = Path(sparselms.__file__).parent
    setters = [
        f"{path.name}:{n}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.(errstate|seterr)", line)
    ]
    assert setters == []


# numpy functions that call BLAS; any .dot() method does too
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def test_no_module_sums_by_blas():
    # BLAS picks its kernel, and so its summation order, per CPU; every sum in
    # the package is a left fold in tap order instead
    package = Path(sparselms.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                func.attr == "dot"
                or (func.attr in BLAS_FUNCTIONS and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy"))
            ):
                calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# The pieces of the update rule, each with its one owner in filter_core: the
# shrinkage's sgn(w), the left fold over taps, and the leak multiplier; the
# reading of arrays as floats, owned by errors.as_floats alone, step()'s
# regressor included; and what an integer and a real number are, owned by
# errors._is_integer and errors._is_real alone. A range is written once, in
# filter_core._RANGES or signal_gen._RANGES, as dict keys, which the scan does not
# see; the only ge=, gt= or lt= keywords left bound a value with one reader: step()'s
# desired, and the shrinkage term's epsilon_pl, which may be 0 there alone.
PIECES = {
    "sign": "sign", "accumulate": "fold", "cumsum": "fold", "leak_mult": "leak_mult",
    "asarray": "asarray", "Integral": "integer", "Real": "real",
}
RULE_OWNERS = {
    "sign": {"filter_core.py:_shrinkage"},
    "fold": {"filter_core.py:_left_fold"},
    "leak_mult": {"filter_core.py:_advance", "filter_core.py:AlgorithmConfig._operands"},
    "asarray": {"errors.py:as_floats"},
    "integer": {"errors.py:_is_integer"},
    "real": {"errors.py:_is_real"},
    "range": {"filter_core.py:step", "filter_core.py:pnorm_like_gradient_term"},
}


def rule_pieces(node, owner="<module>"):
    """``(piece, owner, lineno)`` for each use of a piece of the rule under ``node``,
    ``owner`` being the qualified name of the innermost enclosing def or class."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
        name = child.attr if isinstance(child, ast.Attribute) else getattr(child, "id", None)
        if name in PIECES:
            yield PIECES[name], inner, child.lineno
        if isinstance(child, ast.keyword) and child.arg in ("ge", "gt", "lt"):
            yield "range", inner, child.lineno
        yield from rule_pieces(child, inner)


def test_the_update_rule_has_one_owner_per_piece():
    # step() and the engine share filter_core._advance; a second copy of the
    # shrinkage, the fold, the leak, the float reading, a number rule or a range's
    # bounds anywhere in the package fails here
    package = Path(sparselms.__file__).parent
    owners = {piece: set() for piece in RULE_OWNERS}
    strays = []
    for path in sorted(package.glob("*.py")):
        for piece, owner, lineno in rule_pieces(ast.parse(path.read_text())):
            where = f"{path.name}:{owner}"
            owners[piece].add(where)
            if where not in RULE_OWNERS[piece]:
                strays.append(f"{piece} at {path.name}:{lineno} in {owner}")
    assert strays == []
    assert owners == RULE_OWNERS

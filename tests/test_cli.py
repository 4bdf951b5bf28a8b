import contextlib
import hashlib
import io
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    ConfigError,
    ExperimentConfig,
    LeakSign,
    MsdCurve,
    ParameterError,
    Variant,
    default_schedule,
    emit_csv,
    emit_plot,
    parse_config,
    run_cell,
    run_experiment,
)
from sparselms import experiment
from sparselms.cli import build_arg_parser, main

SVG_NS = "{http://www.w3.org/2000/svg}"


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def make_curve(variant=Variant.LMS, level=1, values=(1.0, 0.5, 0.25)):
    return MsdCurve(variant, level, 16, np.asarray(values, dtype=float), runs=1)


# ------------------------------------------------------------- parse_config


def test_empty_document_gives_defaults():
    config = parse_config("")
    assert config.n_taps == 16
    assert config.iterations == 8000
    assert config.runs == 200
    assert config.sparsity_levels == (1, 4, 8, 16)
    assert config.noise_variance == 1e-2
    assert config.drive_variance == 1e-3
    assert config.schedule == default_schedule()


def test_single_override():
    config = parse_config("runs = 1\n")
    assert config.runs == 1
    assert config.iterations == 8000
    assert config.schedule == default_schedule()


def test_comments_and_blank_lines():
    config = parse_config("# a comment\n\nruns = 7  # trailing comment\n\n")
    assert config.runs == 7


def test_global_p_out_of_range():
    with pytest.raises(ParameterError, match="0 < p < 1"):
        parse_config("p = 1.5\n")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="stepsize"):
        parse_config("stepsize = 0.1\n")


def test_non_numeric_value_is_rejected():
    with pytest.raises(ConfigError, match="runs"):
        parse_config("runs = many\n")


def test_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("runs\n")


def test_section_overrides_one_entry():
    config = parse_config("[lp_like_llms.16]\ngamma = 0.001\nrho_pl = 0.0002\n")
    cfg = config.schedule[(Variant.LP_LIKE_LLMS, 16)]
    assert cfg.gamma == 0.001
    assert cfg.rho_pl == 0.0002
    assert cfg.mu == 0.015
    # other entries untouched
    assert config.schedule[(Variant.LP_LIKE_LLMS, 8)] == default_schedule()[
        (Variant.LP_LIKE_LLMS, 8)
    ]


def test_global_hyperparameters_broadcast_by_relevance():
    config = parse_config("gamma = 0.25\nmu = 0.02\n")
    assert config.schedule[(Variant.LMS, 1)].mu == 0.02
    assert config.schedule[(Variant.LMS, 1)].gamma == 0.0
    assert config.schedule[(Variant.LLMS, 1)].gamma == 0.25
    assert config.schedule[(Variant.LP_LIKE_LLMS, 1)].gamma == 0.25
    assert config.schedule[(Variant.LP_LIKE_LMS, 1)].gamma == 0.0


def test_global_leak_sign_broadcast():
    config = parse_config("leak_sign = minus\n")
    assert config.schedule[(Variant.LP_LIKE_LLMS, 4)].leak_sign is LeakSign.MINUS
    assert config.schedule[(Variant.LLMS, 4)].leak_sign is LeakSign.MINUS


def test_bad_leak_sign_value():
    with pytest.raises(ConfigError, match="leak_sign"):
        parse_config("leak_sign = up\n")


def test_unknown_section_key():
    with pytest.raises(ConfigError, match="unknown schedule key 'runs'"):
        parse_config("[lms.1]\nruns = 3\n")


def test_unknown_section_variant():
    with pytest.raises(ConfigError, match="nlms"):
        parse_config("[nlms.1]\nmu = 0.1\n")


def test_malformed_section_header():
    with pytest.raises(ConfigError, match="variant.level"):
        parse_config("[lms]\n")


DUPLICATES = {
    "global_key": ("runs = 2\nruns = 3\n",
                   ConfigError, "line 2: duplicate key 'runs' (first set on line 1)"),
    "section_key": ("[lms.1]\nmu = 0.01\n\nmu = 0.02\n",
                    ConfigError, "line 4: duplicate key 'mu' (first set on line 2)"),
    "section": ("[lms.1]\nmu = 0.01\n[llms.1]\ngamma = 0.001\n[lms.01]\n",
                ConfigError, "line 5: duplicate section [lms.1] (first on line 1)"),
    "sparsity_level": ("sparsity_levels = 1, 1, 4\n",
                       ParameterError, "sparsity levels must not repeat, got (1, 1, 4)"),
}


@pytest.mark.parametrize("case", sorted(DUPLICATES))
def test_duplicate_config_input_is_rejected(case, tmp_path, capsys):
    text, error, message = DUPLICATES[case]
    with pytest.raises(error) as exc:
        parse_config(text)
    assert str(exc.value) == message
    conf = tmp_path / "study.conf"
    conf.write_text(text)
    rc = main(["--config", str(conf), "--runs", "1", "--iterations", "10",
               "--algorithms", "lms", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o" / "msd_curves.csv").exists()


KNOWN_KEYS = (
    "n_taps", "iterations", "runs", "steady_state_window", "master_seed",
    "ar_coeff", "drive_variance", "noise_variance", "sparsity_levels",
    "mu", "gamma", "rho_pl", "epsilon_pl", "p", "leak_sign",
)
VALUES = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["plus", "minus", "nan", "-inf", "1e400", "1,4", "1, 1", "4/16", "0x10",
                     "1_000", "", " ", "=", "[lms.1]", "#", "\u0661"]),
    st.lists(st.integers(-3, 20), min_size=1, max_size=4).map(lambda v: ", ".join(map(str, v))),
    st.text(max_size=12),
)
KEYS = st.one_of(st.sampled_from(KNOWN_KEYS), st.text(max_size=8))
HEADERS = st.one_of(
    st.builds(lambda v, lvl: f"[{v.value}.{lvl}]", st.sampled_from(list(Variant)),
              st.integers(-2, 20)),
    st.builds(lambda name: f"[{name}]", st.text(max_size=10)),
    st.text(max_size=10).map(lambda t: "[" + t),
)
LINES = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}", KEYS, VALUES),
    HEADERS,
    st.text(max_size=20),
    st.just("# comment"),
    st.just(""),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LINES, max_size=12))
def test_parse_config_raises_only_named_errors(lines):
    try:
        config = parse_config("\n".join(lines))
    except (ConfigError, ParameterError):
        return
    assert isinstance(config, ExperimentConfig)


def test_sparsity_levels_list():
    config = parse_config("sparsity_levels = 1, 8\n")
    assert config.sparsity_levels == (1, 8)
    assert (Variant.LMS, 1) in config.schedule
    assert (Variant.LMS, 8) in config.schedule


def test_level_outside_table_falls_back_to_base_defaults():
    config = parse_config("sparsity_levels = 2\n[lp_like_lms.2]\nrho_pl = 0.005\n")
    cfg = config.schedule[(Variant.LP_LIKE_LMS, 2)]
    assert cfg.rho_pl == 0.005
    assert cfg.mu == 0.015
    assert config.schedule[(Variant.LLMS, 2)].gamma == 0.0


def test_out_of_range_experiment_value():
    with pytest.raises(ParameterError, match="ar_coeff"):
        parse_config("ar_coeff = 1.5\n")


# ----------------------------------------------------------------- emit_csv


def test_csv_row_count_and_header(tmp_path):
    out = tmp_path / "curves.csv"
    emit_csv([make_curve()], out)
    header, rows = read_csv(out)
    assert header == "algorithm,sr_numerator,sr_denominator,iteration,msd"
    assert len(rows) == 3
    assert rows[0] == ["lms", "1", "16", "0", "1"]


def test_csv_round_trips_doubles_bit_exactly(tmp_path):
    values = np.random.default_rng(3).uniform(1e-8, 10.0, size=50)
    out = tmp_path / "curves.csv"
    emit_csv([make_curve(values=values)], out)
    _, rows = read_csv(out)
    parsed = np.array([float(r[4]) for r in rows])
    np.testing.assert_array_equal(parsed, values)


def test_csv_bytes_match_the_line_by_line_format(tmp_path):
    # the one-pass writer must give the bytes of formatting each row alone
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]
    seventeen = [0.1 + 0.2, 1.0 / 3.0, float(np.nextafter(1.0, 2.0)), 123456789.01234567]
    random = np.random.default_rng(4).uniform(0.0, 1.0, 40) * 10.0 ** np.arange(-20, 20)
    curves = [
        make_curve(Variant.LMS, 1, special),
        make_curve(Variant.LLMS, 4, seventeen),
        make_curve(Variant.LP_LIKE_LMS, 8, random),
        make_curve(Variant.LP_LIKE_LLMS, 16, [2.5]),
    ]
    out = tmp_path / "curves.csv"
    emit_csv(curves, out)
    expected = "algorithm,sr_numerator,sr_denominator,iteration,msd\n"
    for c in curves:
        for k, v in enumerate(c.values):
            expected += f"{c.variant.value},{c.sparsity_level},{c.n_taps},{k},{v:.17g}\n"
    assert out.read_bytes() == expected.encode()


def test_csv_empty_curve_list(tmp_path):
    out = tmp_path / "curves.csv"
    emit_csv([], out)
    assert out.read_text() == "algorithm,sr_numerator,sr_denominator,iteration,msd\n"


def test_csv_orders_by_algorithm_then_sparsity(tmp_path):
    curves = [
        make_curve(Variant.LP_LIKE_LMS, 4),
        make_curve(Variant.LMS, 16),
        make_curve(Variant.LMS, 1),
        make_curve(Variant.LLMS, 1),
    ]
    out = tmp_path / "curves.csv"
    emit_csv(curves, out)
    _, rows = read_csv(out)
    keys = [(r[0], int(r[1])) for r in rows[:: 3]]
    assert keys == [("lms", 1), ("lms", 16), ("llms", 1), ("lp_like_lms", 4)]


def test_csv_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        emit_csv([make_curve()], tmp_path / "missing_dir" / "curves.csv")


# ---------------------------------------------------------------- emit_plot


def subplots(path):
    root = ET.parse(path).getroot()
    return [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "subplot"]


def test_plot_structure_full_grid(tmp_path):
    rng = np.random.default_rng(4)
    curves = [
        MsdCurve(v, s, 16, rng.uniform(0.01, 2.0, size=40), runs=1)
        for v in Variant
        for s in (1, 4, 8, 16)
    ]
    out = tmp_path / "curves.svg"
    emit_plot(curves, out)
    groups = subplots(out)
    assert len(groups) == 4
    for g in groups:
        lines = g.findall(f"{SVG_NS}polyline")
        assert len(lines) == 4
        for pl in lines:
            assert len(pl.get("points").split()) == 40


def test_plot_single_curve(tmp_path):
    out = tmp_path / "one.svg"
    emit_plot([make_curve()], out)
    groups = subplots(out)
    assert len(groups) == 1
    assert len(groups[0].findall(f"{SVG_NS}polyline")) == 1


def test_plot_db_constant_curve_is_horizontal_at_minus_20(tmp_path):
    out = tmp_path / "flat.svg"
    emit_plot([make_curve(values=np.full(25, 0.01))], out, db_scale=True)
    (g,) = subplots(out)
    assert float(g.get("data-ymin")) == pytest.approx(-20.0, rel=1e-12)
    assert float(g.get("data-ymax")) == pytest.approx(-20.0, rel=1e-12)
    pts = g.find(f"{SVG_NS}polyline").get("points").split()
    ys = {pt.split(",")[1] for pt in pts}
    assert len(ys) == 1


def test_plot_linear_data_range(tmp_path):
    out = tmp_path / "lin.svg"
    emit_plot([make_curve(values=[1.0, 0.5, 0.25])], out)
    (g,) = subplots(out)
    assert float(g.get("data-ymin")) == 0.25
    assert float(g.get("data-ymax")) == 1.0


def plot_test_curves():
    rng = np.random.default_rng(8)
    # MSD values are >= 0 and vertices lie inside the plot box, so no
    # coordinate can print as -0.00; near-zero values are the closest case
    tiny = [4e-3, 1e-3, 5e-3, 0.0, 4e-3, 2.5e-3, 5.000000001e-3]
    return [
        make_curve(Variant.LMS, 1, np.full(30, 0.25)),  # flat subplot: yspan == 0
        make_curve(Variant.LLMS, 1, np.full(12, 0.25)),
        make_curve(Variant.LMS, 4, [0.0, 1e-320, 1.0, 0.5, 0.0]),  # dB floor
        make_curve(Variant.LP_LIKE_LMS, 4, rng.uniform(0.0, 1.0, 9)),
        make_curve(Variant.LMS, 8, tiny),
        make_curve(Variant.LP_LIKE_LLMS, 8, [0.7]),
        make_curve(Variant.LLMS, 16, rng.lognormal(-3.0, 2.0, 500)),
        make_curve(Variant.LP_LIKE_LLMS, 16, rng.lognormal(-3.0, 2.0, 377)),
    ]


# sha256 of emit_plot's file for plot_test_curves(), taken when every vertex
# was formatted alone
PLOT_SHA256 = {
    False: "da19ebb555da9c46c5ed34809309c76bc77ec60894875a82331d23a8e6036515",
    True: "d59464257700d6d142ae0425d960d753d8d0fc8fb25725e9abc9c7be0f36982d",
}


@pytest.mark.parametrize("db_scale", [False, True])
def test_plot_points_match_the_per_vertex_format(db_scale, tmp_path):
    # the one-pass polyline writer must give the bytes of formatting each vertex alone
    curves = plot_test_curves()
    out = tmp_path / "curves.svg"
    emit_plot(curves, out, db_scale=db_scale)
    groups = subplots(out)
    assert len(groups) == 4
    for g in groups:
        level = int(g.get("data-sr").split("/")[0])
        group = [c for c in curves if c.sparsity_level == level]
        rect = g.find(f"{SVG_NS}rect")
        x0, y0 = int(rect.get("x")), int(rect.get("y"))
        x1, y1 = x0 + int(rect.get("width")), y0 + int(rect.get("height"))
        ymin, ymax = float(g.get("data-ymin")), float(g.get("data-ymax"))
        yspan = ymax - ymin
        xspan = max(max(len(c.values) for c in group) - 1, 1)
        lines = {pl.get("data-algorithm"): pl.get("points") for pl in g.iter(f"{SVG_NS}polyline")}
        for c in group:
            ys = c.values
            if db_scale:
                ys = 10.0 * np.log10(np.maximum(ys, 1e-300))
            expected = []
            for k, v in enumerate(ys):
                sx = x0 + (x1 - x0) * (k / xspan)
                sy = (y0 + y1) / 2.0 if yspan == 0.0 else y1 - (y1 - y0) * ((v - ymin) / yspan)
                expected.append(f"{sx:.2f},{sy:.2f}")
            assert lines[c.variant.value] == " ".join(expected)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLOT_SHA256[db_scale]


def test_plot_requires_curves(tmp_path):
    with pytest.raises(ParameterError):
        emit_plot([], tmp_path / "none.svg")


def test_plot_legend_names_variants(tmp_path):
    out = tmp_path / "leg.svg"
    emit_plot([make_curve(v, 1) for v in Variant], out)
    text = out.read_text()
    for v in Variant:
        assert f">{v.value}</text>" in text


# --------------------------------------------------------------------- main


def test_main_small_run(tmp_path, capsys):
    out = tmp_path / "result"
    rc = main(
        ["--runs", "2", "--iterations", "150", "--sr", "1/16", "--algorithms", "lms",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out / "msd_curves.csv")
    assert len(rows) == 150
    assert {r[0] for r in rows} == {"lms"}
    assert "wrote" in capsys.readouterr().out


def test_main_same_seed_is_byte_identical(tmp_path):
    args = ["--runs", "2", "--iterations", "150", "--sr", "1/16", "--seed", "99"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "msd_curves.csv").read_bytes()
    b = (tmp_path / "b" / "msd_curves.csv").read_bytes()
    assert a == b


def test_main_seed_changes_output(tmp_path):
    args = ["--runs", "2", "--iterations", "150", "--sr", "1/16", "--algorithms", "lms"]
    main(args + ["--seed", "1", "--out", str(tmp_path / "a")])
    main(args + ["--seed", "2", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "msd_curves.csv").read_bytes()
    b = (tmp_path / "b" / "msd_curves.csv").read_bytes()
    assert a != b


def test_main_plot_and_summary(tmp_path, capsys):
    out = tmp_path / "result"
    rc = main(
        ["--runs", "2", "--iterations", "150", "--sr", "1/16,4/16", "--out", str(out),
         "--plot", "--db", "--summary"]
    )
    assert rc == 0
    assert (out / "msd_curves.svg").exists()
    printed = capsys.readouterr().out
    assert "steady-state" in printed
    assert "lp_like_llms" in printed


def test_main_rejects_foreign_denominator(tmp_path, capsys):
    rc = main(["--sr", "3/7", "--out", str(tmp_path)])
    assert rc == 1
    assert "n_taps" in capsys.readouterr().err


def test_main_rejects_unknown_algorithm(tmp_path, capsys):
    rc = main(["--algorithms", "rls", "--out", str(tmp_path)])
    assert rc == 1
    assert "rls" in capsys.readouterr().err


def test_main_rejects_unconfigured_level(tmp_path, capsys):
    rc = main(["--sr", "2/16", "--out", str(tmp_path)])
    assert rc == 1
    assert "not configured" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_config_file_round_trip(tmp_path):
    conf = tmp_path / "study.conf"
    conf.write_text(
        "runs = 2\niterations = 120\nsteady_state_window = 40\n"
        "sparsity_levels = 1\n\n[lms.1]\nmu = 0.02\n"
    )
    out = tmp_path / "result"
    rc = main(["--config", str(conf), "--algorithms", "lms", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "msd_curves.csv")
    assert len(rows) == 120


def test_main_iterations_override_clamps_window(tmp_path):
    # default window is 500; a shorter run must not trip validation
    rc = main(
        ["--runs", "1", "--iterations", "60", "--sr", "1/16", "--algorithms", "lms",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 0


def test_document_iterations_narrow_an_unset_window(tmp_path, capsys):
    # the document's iterations resolve an unset window as --iterations does
    conf = tmp_path / "study.conf"
    conf.write_text("runs = 2\niterations = 100\n")
    out = tmp_path / "o"
    rc = main(["--config", str(conf), "--sr", "1/16", "--algorithms", "lms", "--summary",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "msd_curves.csv")
    window_mean = np.mean([float(r[4]) for r in rows])  # all 100 iterations
    assert f"{window_mean:>18.6e}" in capsys.readouterr().out


def test_iterations_flag_does_not_shrink_a_set_window(tmp_path, capsys):
    conf = tmp_path / "study.conf"
    conf.write_text("runs = 1\nsteady_state_window = 500\n")
    rc = main(["--config", str(conf), "--iterations", "60", "--sr", "1/16",
               "--algorithms", "lms", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: steady_state_window must satisfy 1 <= window <= iterations=60, got 500\n"
    )
    assert not (tmp_path / "o").exists()


def test_flags_override_the_document_inside_parse_config():
    assert parse_config("runs = 5") == parse_config("", runs=5)
    doc = "runs = 5\niterations = 40\nmaster_seed = 3\n"
    assert parse_config(doc, runs=None, iterations=None, master_seed=None) == parse_config(doc)
    config = parse_config(doc, runs=2, iterations=30, master_seed=9)
    assert (config.runs, config.iterations, config.master_seed) == (2, 30, 9)
    assert config.steady_state_window == 30


def test_overflowing_drive_variance_fails_by_name(tmp_path, capsys):
    conf = tmp_path / "study.conf"
    conf.write_text("drive_variance = 1e308\n")
    rc = main(["--config", str(conf), "--runs", "2", "--iterations", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "drive_variance" in err
    assert not (tmp_path / "o" / "msd_curves.csv").exists()


def test_out_of_memory_fails_by_name(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 25.3 GiB for an array")

    monkeypatch.setattr(experiment, "gen_cell_realizations", no_memory)
    rc = main(["--runs", "3", "--iterations", "20", "--sr", "1/16",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: out of memory for 3 runs x 20 iterations: "
        "Unable to allocate 25.3 GiB for an array\n"
    )
    assert not (tmp_path / "o").exists()


# Run fuzz: every size is bounded (runs <= 3, iterations <= 30, n_taps and
# levels <= 32), so that no example allocates more than a few MB.
SPECIAL = st.sampled_from(["0", "-1", "-2.5", "inf", "-inf", "nan", "1e308", "5e-324", "2.5"])


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


VALID = {
    "runs": st.integers(1, 3).map(str),
    "iterations": st.integers(1, 30).map(str),
    "n_taps": st.integers(1, 32).map(str),
    "steady_state_window": st.integers(1, 30).map(str),
    "master_seed": st.integers(0, 2**64 - 1).map(str),
    "ar_coeff": _floats(-0.99, 0.99),
    "drive_variance": st.one_of(_floats(1e-6, 10.0), st.sampled_from(["1e-200", "1e200"])),
    "noise_variance": st.one_of(_floats(0.0, 1.0), st.sampled_from(["1e-200", "1e200"])),
    "mu": _floats(0.0, 2.0),
    "gamma": _floats(0.0, 0.999),
    "rho_pl": _floats(0.0, 1.0),
    "epsilon_pl": _floats(1e-3, 100.0),
    "p": _floats(0.01, 0.99),
    "leak_sign": st.sampled_from(["plus", "minus"]),
}
FLAGS = {"--runs": "runs", "--iterations": "iterations", "--seed": "master_seed"}


@st.composite
def cli_runs(draw):
    """A config document and the flags that run it: each value is absent, valid or bad."""

    def value(key):  # None when absent; a bad value 1 time in 16
        pick = draw(st.integers(0, 15))
        if pick == 0:
            return draw(SPECIAL)
        return draw(VALID[key]) if pick > 8 else None

    doc = {key: v for key in VALID if (v := value(key)) is not None}
    n_taps = max(int(doc["n_taps"]), 1) if doc.get("n_taps", "").isdigit() else 16
    if n_taps < 16 or draw(st.booleans()):
        levels = draw(st.lists(st.integers(1, n_taps), min_size=1, max_size=4, unique=True))
        if draw(st.integers(0, 15)) == 0:
            levels.append(draw(st.sampled_from([0, -1, n_taps + 1, levels[0]])))
        doc["sparsity_levels"] = ", ".join(map(str, levels))
        sr = draw(st.sampled_from(levels))
    else:
        sr = 16
    flags = []
    for flag, key in FLAGS.items():
        v = value(key)
        if v is None and key != "master_seed" and key not in doc:
            v = draw(VALID[key])  # the default 200 runs and 8000 iterations are too big
        if v is not None:
            flags += [flag, v]
    if draw(st.booleans()):
        flags += ["--sr", f"{sr}/{n_taps}" if draw(st.integers(0, 15)) else "0/16"]
    if draw(st.booleans()):
        rules = st.sampled_from(["lms", "llms,lp_like_llms", "lp_like_lms,lms", "rls"])
        flags += ["--algorithms", draw(rules)]
    flags += draw(st.lists(st.sampled_from(["--plot", "--db", "--summary"]), unique=True))
    text = "".join(f"{key} = {v}\n" for key, v in doc.items())
    return text, flags


@settings(max_examples=500, deadline=None)
@given(cli_runs())
def test_run_fails_only_by_name(run):
    text, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "study.conf"
        conf.write_text(text)
        out = Path(tmp) / "o"
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                rc = main(["--config", str(conf), "--out", str(out), *flags])
            except SystemExit as exc:  # argparse rejects a flag value
                rc = exc.code
        err = stderr.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err
        assert rc in (0, 1, 2), err
        if rc == 0:
            assert err == ""
            _, rows = read_csv(out / "msd_curves.csv")
            msd = np.array([float(r[4]) for r in rows])
            assert np.isfinite(msd).all() and (msd >= 0).all()
        else:
            assert "error:" in err
            if rc == 1:
                assert err.startswith("error: ") and err.count("\n") == 1
                assert not (out / "msd_curves.csv").exists()


def test_there_is_no_worker_count(tmp_path, capsys):
    # one engine batches every run of a cell, so a worker count would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["--runs", "1", "--iterations", "10", "--sr", "1/16", "--algorithms", "lms",
              "--workers", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    config = ExperimentConfig(runs=1, iterations=10, steady_state_window=5)
    with pytest.raises(TypeError, match="workers"):
        run_experiment(config, workers=2)
    with pytest.raises(TypeError, match="workers"):
        run_cell(Variant.LMS, 1, config, workers=2)


def test_readme_lists_every_cli_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    useful = re.search(r"Useful flags:\n\n(.*?)\n\n", readme, re.S)
    assert useful, "README has no 'Useful flags:' list"
    listed = set(re.findall(r"`(--[a-z-]+)", useful.group(1)))
    options = {opt for action in build_arg_parser()._actions for opt in action.option_strings}
    assert listed == options - {"-h", "--help"}


def test_module_entry_point_runs_without_warnings(package_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sparselms.cli", "--help"],
        env=package_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: sparselms")


def test_imports_do_not_load_numpy_random(package_env):
    # numpy.random is imported on first use by the cell builder, so the
    # one-sample step API and the CLI's set-up do not pay for it
    script = (
        "import sys\n"
        "import sparselms\n"
        "assert 'numpy.random' not in sys.modules, 'sparselms'\n"
        "assert 'sparselms.cli' not in sys.modules, 'sparselms.cli'\n"
        "import sparselms.cli\n"
        "assert 'numpy.random' not in sys.modules, 'cli'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=package_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


TINY_RUN = ["--runs", "3", "--iterations", "40", "--sr", "1/16,4/16", "--plot", "--summary"]

# The check is registered before main, so it runs after main's exit hook
# (atexit is last-in first-out) and sees what that hook left.  main's hook
# is counted through a stand-in for gc.freeze that calls the real one.
EXIT_CHECK = """
import atexit, gc, sys, types
from sparselms import cli
calls = []
def freeze():
    calls.append(None)
    gc.freeze()
cli.gc = types.SimpleNamespace(freeze=freeze)
def check():
    print(f"freeze calls: {{len(calls)}}, freeze count: {{gc.get_freeze_count()}}", file=sys.stderr)
atexit.register(check)
{body}
"""


def exit_report(stderr):
    calls, count = re.fullmatch(r"freeze calls: (\d+), freeze count: (\d+)", stderr.strip()).groups()
    return int(calls), int(count)


def test_main_freezes_the_heap_at_exit_and_writes_everything(tmp_path, capsys, package_env):
    child_out, own_out = tmp_path / "child", tmp_path / "own"
    argv = TINY_RUN + ["--out", str(child_out)]
    body = f"assert cli.main({argv!r}) == 0\nassert cli.main({argv!r}) == 0"
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_CHECK.format(body=body)],
        env=package_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    calls, count = exit_report(proc.stderr)
    assert calls == 1  # two main calls, one hook
    assert count > 0
    assert main(TINY_RUN + ["--out", str(own_out)]) == 0
    own_stdout = capsys.readouterr().out
    assert proc.stdout == 2 * own_stdout.replace(str(own_out), str(child_out))
    for name in ("msd_curves.csv", "msd_curves.svg"):
        assert (child_out / name).read_bytes() == (own_out / name).read_bytes()


def test_importing_the_cli_leaves_exit_alone(package_env):
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_CHECK.format(body="cli.build_arg_parser()")],
        env=package_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert exit_report(proc.stderr) == (0, 0)

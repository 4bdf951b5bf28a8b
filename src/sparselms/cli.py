"""Command-line front end: run the study, write CSV/SVG, print summaries.

Config documents are flat ``key = value`` text with ``#`` comments; a
``[variant.level]`` section header scopes hyperparameter keys to one
schedule entry, e.g.::

    runs = 200
    master_seed = 1234

    [lp_like_llms.16]
    gamma = 0.0005
    rho_pl = 0.0001

Hyperparameter keys at global scope (``mu``, ``gamma``, ``rho_pl``,
``epsilon_pl``, ``p``, ``leak_sign``) broadcast to every schedule entry of
the variants they apply to.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, DivergenceError, ParameterError
from .experiment import ExperimentConfig, default_schedule, run_experiment, steady_state
from .filter_core import AlgorithmConfig, LeakSign, Variant

__all__ = ["parse_config", "emit_csv", "emit_plot", "main"]

_INT_KEYS = {"n_taps", "iterations", "runs", "steady_state_window", "master_seed"}
_FLOAT_KEYS = {"ar_coeff", "drive_variance", "noise_variance"}
_HYPER_FLOAT = {"mu", "gamma", "rho_pl", "epsilon_pl", "p"}

# Which variants a broadcast hyperparameter key applies to.
_RELEVANT = {
    "mu": frozenset(Variant),
    "gamma": frozenset({Variant.LLMS, Variant.LP_LIKE_LLMS}),
    "rho_pl": frozenset({Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS}),
    "epsilon_pl": frozenset({Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS}),
    "p": frozenset({Variant.LP_LIKE_LMS, Variant.LP_LIKE_LLMS}),
    "leak_sign": frozenset({Variant.LP_LIKE_LLMS}),
}

_VARIANT_ORDER = {v: i for i, v in enumerate(Variant)}

_COLORS = {
    "lms": "#1f77b4",
    "llms": "#ff7f0e",
    "lp_like_lms": "#2ca02c",
    "lp_like_llms": "#d62728",
}

_DB_FLOOR = 1e-300


def _curve_key(curve):
    return (_VARIANT_ORDER[curve.variant], curve.sparsity_level)


def _coerce_int(key, value, lineno):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key '{key}' expects an integer, got {value!r}"
        ) from None


def _coerce_float(key, value, lineno):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key '{key}' expects a number, got {value!r}"
        ) from None


def _coerce_leak_sign(value, lineno):
    try:
        return LeakSign(value)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: leak_sign must be 'plus' or 'minus', got {value!r}"
        ) from None


def _parse_document(text):
    """Split a config document into global key-values and per-section ones."""
    global_kv = {}
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            variant_name, sep, level_txt = name.partition(".")
            if not sep:
                raise ConfigError(
                    f"line {lineno}: section must look like [variant.level], got [{name}]"
                )
            try:
                variant = Variant(variant_name.strip())
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: unknown algorithm {variant_name.strip()!r} in [{name}]"
                ) from None
            try:
                level = int(level_txt.strip())
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: sparsity level in [{name}] must be an integer"
                ) from None
            current = sections.setdefault((variant, level), {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            global_kv[key] = (lineno, value)
        else:
            current[key] = (lineno, value)
    return global_kv, sections


def parse_config(text):
    """Parse a config document into a validated :class:`ExperimentConfig`.

    Missing keys fall back to the default study (16 taps, 8000 iterations,
    200 runs, the default parameter schedule).  Unknown keys and
    out-of-range values raise with the offending key or constraint named.
    """
    global_kv, sections = _parse_document(text)
    fields = {}
    broadcast = {}
    for key, (lineno, value) in global_kv.items():
        if key == "sparsity_levels":
            try:
                fields[key] = tuple(int(tok.strip()) for tok in value.split(","))
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: key 'sparsity_levels' expects comma-separated "
                    f"integers, got {value!r}"
                ) from None
        elif key in _INT_KEYS:
            fields[key] = _coerce_int(key, value, lineno)
        elif key in _FLOAT_KEYS:
            fields[key] = _coerce_float(key, value, lineno)
        elif key in _HYPER_FLOAT:
            broadcast[key] = _coerce_float(key, value, lineno)
        elif key == "leak_sign":
            broadcast[key] = _coerce_leak_sign(value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")

    section_cfg = {}
    for (variant, level), kv in sections.items():
        entry = {}
        for key, (lineno, value) in kv.items():
            if key in _HYPER_FLOAT:
                entry[key] = _coerce_float(key, value, lineno)
            elif key == "leak_sign":
                entry[key] = _coerce_leak_sign(value, lineno)
            else:
                raise ConfigError(
                    f"line {lineno}: unknown schedule key '{key}' in [{variant.value}.{level}]"
                )
        section_cfg[(variant, level)] = entry

    levels = fields.get("sparsity_levels", (1, 4, 8, 16))
    needed = set(levels) | {lvl for (_, lvl) in section_cfg}
    table = default_schedule()
    schedule = {}
    for variant in Variant:
        for level in sorted(needed):
            base = table.get((variant, level), AlgorithmConfig(variant))
            overrides = {k: v for k, v in broadcast.items() if variant in _RELEVANT[k]}
            overrides.update(section_cfg.get((variant, level), {}))
            schedule[(variant, level)] = (
                dataclasses.replace(base, **overrides) if overrides else base
            )
    return ExperimentConfig(schedule=schedule, **fields)


def emit_csv(curves, out):
    """Write curves as CSV rows ``algorithm,sr_numerator,sr_denominator,iteration,msd``.

    Values carry 17 significant digits, so parsing them back recovers the
    doubles bit-exactly.  Rows are ordered by (algorithm, sparsity,
    iteration); the newline is always ``\\n``.
    """
    rows = sorted(curves, key=_curve_key)
    with open(out, "w", newline="") as fh:
        fh.write("algorithm,sr_numerator,sr_denominator,iteration,msd\n")
        for c in rows:
            prefix = f"{c.variant.value},{c.sparsity_level},{c.n_taps}"
            for k, v in enumerate(c.values):
                fh.write(f"{prefix},{k},{v:.17g}\n")
    return out


def _transform(values, db_scale):
    if db_scale:
        return 10.0 * np.log10(np.maximum(values, _DB_FLOOR))
    return np.asarray(values, dtype=float)


def emit_plot(curves, out, db_scale=False):
    """Write a self-contained SVG: one subplot per sparsity level.

    Each subplot carries one polyline per algorithm (one vertex per
    iteration) plus ``data-ymin``/``data-ymax`` attributes recording the
    plotted data range; a shared legend sits on top.
    """
    curves = sorted(curves, key=_curve_key)
    if not curves:
        raise ParameterError("emit_plot needs at least one curve")
    levels = sorted({(c.sparsity_level, c.n_taps) for c in curves})
    ncols = min(2, len(levels))
    nrows = -(-len(levels) // ncols)
    sub_w, sub_h = 440, 300
    legend_h = 34
    width = ncols * sub_w + 20
    height = nrows * sub_h + legend_h + 16
    ylab = "MSD (dB)" if db_scale else "MSD"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<g class="legend">',
    ]
    seen = []
    for c in curves:
        if c.variant not in seen:
            seen.append(c.variant)
    lx = 20
    ly = legend_h // 2
    for v in seen:
        color = _COLORS[v.value]
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly + 4}">{v.value}</text>')
        lx += 32 + 8 * len(v.value) + 24
    parts.append("</g>")

    for idx, (level, den) in enumerate(levels):
        row, col = divmod(idx, ncols)
        ox = 10 + col * sub_w
        oy = legend_h + row * sub_h
        x0, x1 = ox + 64, ox + sub_w - 16
        y0, y1 = oy + 30, oy + sub_h - 40
        group = [c for c in curves if (c.sparsity_level, c.n_taps) == (level, den)]
        ys = [_transform(c.values, db_scale) for c in group]
        ymin = min(float(a.min()) for a in ys)
        ymax = max(float(a.max()) for a in ys)
        yspan = ymax - ymin
        nmax = max(a.shape[0] for a in ys)
        xspan = max(nmax - 1, 1)

        def sx(k):
            return x0 + (x1 - x0) * (k / xspan)

        def sy(v):
            if yspan == 0.0:
                return (y0 + y1) / 2.0
            return y1 - (y1 - y0) * ((v - ymin) / yspan)

        parts.append(
            f'<g class="subplot" data-sr="{level}/{den}" '
            f'data-ymin="{ymin:.17g}" data-ymax="{ymax:.17g}">'
        )
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
            f'fill="none" stroke="#888"/>'
        )
        parts.append(
            f'<text x="{(x0 + x1) // 2}" y="{y0 - 8}" text-anchor="middle" '
            f'font-weight="bold">SR = {level}/{den}</text>'
        )
        parts.append(f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end">{ymin:.4g}</text>')
        parts.append(f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end">{ymax:.4g}</text>')
        parts.append(f'<text x="{x0}" y="{y1 + 16}" text-anchor="middle">0</text>')
        parts.append(f'<text x="{x1}" y="{y1 + 16}" text-anchor="middle">{nmax - 1}</text>')
        parts.append(
            f'<text x="{(x0 + x1) // 2}" y="{y1 + 32}" text-anchor="middle">iteration</text>'
        )
        ry = (y0 + y1) // 2
        parts.append(
            f'<text x="{ox + 14}" y="{ry}" text-anchor="middle" '
            f'transform="rotate(-90 {ox + 14} {ry})">{ylab}</text>'
        )
        for c, arr in zip(group, ys):
            pts = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in enumerate(arr))
            parts.append(
                f'<polyline class="curve" data-algorithm="{c.variant.value}" fill="none" '
                f'stroke="{_COLORS[c.variant.value]}" stroke-width="1" points="{pts}"/>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    Path(out).write_text("\n".join(parts) + "\n")
    return out


def _parse_algorithms(raw):
    variants = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            v = Variant(tok)
        except ValueError:
            names = ", ".join(v.value for v in Variant)
            raise ConfigError(f"unknown algorithm '{tok}' (choose from: {names})") from None
        if v not in variants:
            variants.append(v)
    return variants


def _parse_sr_list(raw, config):
    levels = []
    for tok in raw.split(","):
        tok = tok.strip()
        num_txt, sep, den_txt = tok.partition("/")
        try:
            num = int(num_txt)
            den = int(den_txt) if sep else -1
        except ValueError:
            num, den = -1, -1
        if not sep or num < 0 or den < 0:
            raise ConfigError(f"sparsity ratio must look like 1/16, got '{tok}'")
        if den != config.n_taps:
            raise ConfigError(
                f"sparsity denominator must equal n_taps={config.n_taps}, got '{tok}'"
            )
        if num not in config.sparsity_levels:
            configured = ", ".join(str(s) for s in config.sparsity_levels)
            raise ConfigError(
                f"sparsity level '{tok}' is not configured (levels: {configured})"
            )
        if num not in levels:
            levels.append(num)
    return sorted(levels)


def _print_summary(curves, config):
    print(f"{'algorithm':<14} {'SR':>6}  {'steady-state MSD':>18}  {'stderr':>12}")
    for curve in sorted(curves, key=_curve_key):
        s = steady_state(curve, min(config.steady_state_window, curve.values.shape[0]))
        sr = f"{curve.sparsity_level}/{curve.n_taps}"
        print(f"{curve.variant.value:<14} {sr:>6}  {s.mean:>18.6e}  {s.stderr:>12.3e}")


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="sparselms",
        description="Run the sparse-system-identification Monte-Carlo study "
        "and write MSD convergence curves.",
    )
    ap.add_argument("--config", metavar="PATH", help="run-configuration file")
    ap.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (created if absent)"
    )
    ap.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    ap.add_argument("--runs", type=int, metavar="N", help="override the run count")
    ap.add_argument("--iterations", type=int, metavar="N", help="override the iteration count")
    ap.add_argument(
        "--algorithms",
        metavar="LIST",
        help="comma-separated subset of: " + ", ".join(v.value for v in Variant),
    )
    ap.add_argument("--sr", metavar="LIST", help="comma-separated sparsity ratios like 1/16,8/16")
    ap.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker count, >= 1; all runs of a cell advance together in one batch, "
        "so N does not change the work or the output",
    )
    ap.add_argument("--plot", action="store_true", help="also write an SVG convergence plot")
    ap.add_argument("--db", action="store_true", help="plot MSD on a dB scale")
    ap.add_argument("--summary", action="store_true", help="print the steady-state table")
    return ap


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text() if args.config else ""
        config = parse_config(text)
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.runs is not None:
            overrides["runs"] = args.runs
        if args.iterations is not None:
            overrides["iterations"] = args.iterations
            overrides["steady_state_window"] = min(
                config.steady_state_window, args.iterations
            )
        if overrides:
            config = dataclasses.replace(config, **overrides)
        variants = _parse_algorithms(args.algorithms) if args.algorithms else None
        levels = _parse_sr_list(args.sr, config) if args.sr else None

        curves = run_experiment(config, variants, levels, workers=args.workers)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        emit_csv(curves, outdir / "msd_curves.csv")
        print(f"wrote {outdir / 'msd_curves.csv'}")
        if args.plot:
            emit_plot(curves, outdir / "msd_curves.svg", db_scale=args.db)
            print(f"wrote {outdir / 'msd_curves.svg'}")
        if args.summary:
            _print_summary(curves, config)
        return 0
    except (ConfigError, ParameterError, DimensionMismatchError, DivergenceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

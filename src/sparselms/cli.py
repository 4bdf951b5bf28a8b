"""Command-line front end: run the study, write CSV/SVG, print summaries.

README's "Configuration files" section specifies the config language; the
writers live in :mod:`sparselms.emit`.
"""

import argparse
import atexit
import gc
import sys
from pathlib import Path

from .config import parse_config
from .emit import emit_csv, emit_plot
from .errors import ConfigError, DimensionMismatchError, DivergenceError, ParameterError
from .experiment import run_experiment, steady_state
from .filter_core import Variant

__all__ = ["main"]


def _parse_algorithms(raw):
    variants = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            v = Variant(tok)
        except ValueError:
            names = ", ".join(v.value for v in Variant)
            raise ConfigError(f"unknown algorithm '{tok}' (choose from: {names})") from None
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
        levels.append(num)
    return levels


def _print_summary(curves, config):
    print(f"{'algorithm':<14} {'SR':>6}  {'steady-state MSD':>18}  {'stderr':>12}")
    for curve in curves:
        s = steady_state(curve, config.steady_state_window)
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
    ap.add_argument("--plot", action="store_true", help="also write an SVG convergence plot")
    ap.add_argument("--db", action="store_true", help="plot MSD on a dB scale")
    ap.add_argument("--summary", action="store_true", help="print the steady-state table")
    return ap


def _skip_final_collection():
    """Freeze the heap at interpreter exit, so that shutdown does not sweep it.

    CPython's last collections walk every tracked object (about 21 k after
    a run, numpy's included) only to free memory the OS takes back anyway:
    on 2 vCPUs a small run's process exit falls from about 30 ms to about 10 ms.
    The hook is registered once per process, however often ``main`` runs.
    Frozen objects are never finalized, so this relies on ``main`` closing
    every file it writes before it returns; the standard streams are
    flushed at exit regardless.

    Why an exit hook: freezing at the top of ``main`` saves as much, but on
    every call it would move a long-lived caller's uncollected garbage into
    the permanent generation, never to be collected; registering at import
    would change how any process that merely imports this module exits;
    ``os._exit`` would skip flushing and the other exit hooks.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


def main(argv=None):
    _skip_final_collection()
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig") if args.config else ""
        config = parse_config(
            text, master_seed=args.seed, runs=args.runs, iterations=args.iterations
        )
        variants = None if args.algorithms is None else _parse_algorithms(args.algorithms)
        levels = None if args.sr is None else _parse_sr_list(args.sr, config)

        try:
            curves = run_experiment(config, variants, levels)
        except MemoryError as err:  # numpy's message names the size it asked for
            size = f"{config.runs} runs x {config.iterations} iterations"
            print(f"error: out of memory for {size}: {err}", file=sys.stderr)
            return 1
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
    except (ConfigError, ParameterError, DimensionMismatchError, DivergenceError, OSError,
            UnicodeDecodeError) as err:  # the last for a config file that is not UTF-8
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

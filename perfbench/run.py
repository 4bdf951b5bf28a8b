#!/usr/bin/env python3
"""Benchmark of sparselms: end-to-end metrics, output checks and a per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload protocol_cell --seed 1 --seconds 20 --trace 0

Each invocation of the program runs in a fresh child process (``child.py``)
with the checkout's ``src`` on ``PYTHONPATH``. A run is a closed loop with
one client: the next invocation starts when the previous one has exited,
serial (``--workers`` unset), until ``--seconds`` are used up.

Before the timed loop, one untimed invocation at the reference seed warms
the file cache and checks the program's outputs by value against
``reference.json``. Every invocation is checked: exit code, output shape,
finite and non-negative values, and byte-identical outputs across the
invocations of a run.

On a shared host, CPU speed can drift by up to 2x over seconds to
minutes, because other load shares the cores; on a 2-vCPU cloud VM raw
times spread by a quarter or more from run to run, too widely to compare
two versions of the program. Between consecutive invocations the parent
therefore runs the yardstick (``yardstick.py``), a fixed process that
imports numpy and scipy.signal and runs a fixed loop.
Time metrics are reported in yardstick units (``ys``), each against the
matching phase of the yardsticks run just before and just after the
invocation: wall time against the yardstick's wall time, set-up against
its start-up, the run phase against its compute. The host's speed cancels
out of these ratios; a slower program still reads higher. Raw seconds are
printed beside them, and ``setup_s`` is reported in seconds as well.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced invocations and reports per-layer metrics from the
spans, plus ``python -X importtime`` probes of ``import sparselms``.
The last line of standard output is one JSON object; the lines before it
are for people. A full report is written under ``.perfbench_work/``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
YARDSTICK = Path(__file__).resolve().parent / "yardstick.py"
WORK = ROOT / ".perfbench_work"

MIN_INVOCATIONS = 3  # timed invocations per untraced run, at least
MIN_TRACE_PAIRS = 2  # traced and untraced invocations per traced run, at least
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 100
RUN_LIMIT_S = 150  # start no invocation after this, to end within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_ys": "ys",
    "setup_s": "s",
    "setup_ys": "ys",
    "updates_per_ys": "1/ys",
    "peak_rss_mb": "MB",
}
# Printed and kept in the report, but not result metrics: on a shared host
# they follow the host's speed more than the program's.
RAW = {"wall_s": "s", "updates_per_s": "1/s"}

PER_LAYER = {
    "sparselms.import_s": "s",
    "sparselms.import_scipy_s": "s",
    "sparselms.import_modules": "count",
    "cli.parse_config_s": "s",
    "signal_gen.self_s": "s",
    "signal_gen.calls": "count",
    "signal_gen.ns_per_sample": "ns",
    "experiment.run_cell.self_s": "s",
    "experiment.run_cell.calls": "count",
    "experiment.steady_state_s": "s",
    "kernels.self_s": "s",
    "kernels.updates": "count",
    **{f"kernels.ns_per_update.{v}": "ns" for v in wl.VARIANTS},
    "cli.emit_csv_s": "s",
    "cli.emit_csv_bytes": "bytes",
    "cli.emit_plot_s": "s",
    "cli.emit_plot_bytes": "bytes",
    "filter_core.step_self_s": "s",
    "filter_core.step_calls": "count",
    "filter_core.step_p50_us": "us",
    "filter_core.step_p99_us": "us",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


# ---------------------------------------------------------------- invocations

class Invocation:
    """One child process: its timings, result file and check outcome."""

    def __init__(self, seed, traced, wall_ns, rss_kb, code, result, stdout, stderr):
        self.seed = seed
        self.traced = traced
        self.wall_s = wall_ns / 1e9
        self.peak_rss_mb = rss_kb / 1024
        self.code = code
        self.result = result
        self.stdout = stdout
        self.stderr = stderr
        self.problems = []
        self.digest = None
        self.setup_s = None
        self.setup_marker = None
        self.updates = 0
        self.yard = None  # mean of the yardstick runs just before and just after


class Yardstick:
    """One run of ``yardstick.py``: wall, start-up and compute seconds."""

    def __init__(self, wall_s, import_s, compute_s):
        self.wall_s = wall_s
        self.import_s = import_s
        self.compute_s = compute_s

    @classmethod
    def mean(cls, a, b):
        return cls((a.wall_s + b.wall_s) / 2, (a.import_s + b.import_s) / 2,
                   (a.compute_s + b.compute_s) / 2)


def run_yardstick(work):
    result_path = work / "yardstick.json"
    result_path.unlink(missing_ok=True)
    t0 = time.monotonic_ns()
    subprocess.run([sys.executable, str(YARDSTICK), str(result_path)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    t1 = time.monotonic_ns()
    res = json.loads(result_path.read_text())
    return Yardstick((t1 - t0) / 1e9, (res["t_import"] - t0) / 1e9, res["compute_ns"] / 1e9)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(w, seed, traced, work):
    """Run one invocation of workload ``w`` to completion and time it."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    if w.is_cli:
        program = ["cli", *w.cli_args(seed, out_dir)]
    else:
        inputs = work / f"inputs-{seed}-{w.steps}.npz"
        if not inputs.exists():
            wl.write_online_inputs(inputs, seed, w.steps)
        program = ["online", str(inputs)]
    cmd = [sys.executable, str(CHILD), str(result_path), "1" if traced else "0", *program]
    with open(work / "stdout.txt", "w") as so, open(work / "stderr.txt", "w") as se:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic_ns()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, json.JSONDecodeError):
        result = None
    rss_kb = (result or {}).get("peak_rss_kb") or usage.ru_maxrss
    inv = Invocation(seed, traced, t1 - t0, rss_kb, proc.returncode, result,
                     (work / "stdout.txt").read_text(), (work / "stderr.txt").read_text())
    if result is not None:
        end = result.get("setup_end")
        inv.setup_marker = "first_cell" if end is not None else "import_only"
        inv.setup_s = ((end if end is not None else result["t_import"]) - t0) / 1e9
        step_ns = result["outputs"].get("step_ns")
        inv.updates = len(step_ns) if step_ns is not None else w.updates
    return inv


# ---------------------------------------------------------------- checks

class Checker:
    """Checks each invocation's outputs; remembers digests already checked.

    ``reference`` is the workload's entry in ``reference.json``, or None to
    skip the comparison by value (smoke sizes have no stored reference).
    """

    def __init__(self, w, reference):
        self.w = w
        self.reference = reference
        self.checked = {}  # (seed, digest) -> problems
        self.first_digest = {}  # seed -> digest of the first invocation

    def check(self, inv, out_dir):
        if inv.code != 0:
            tail = inv.stderr.strip().splitlines()[-3:]
            inv.problems.append(f"exit code {inv.code}: {' | '.join(tail)}")
        if inv.result is None:
            inv.problems.append("child wrote no result")
            return
        src_file = Path(inv.result["env"]["sparselms_file"]).resolve()
        if SRC.resolve() not in src_file.parents:
            inv.problems.append(f"sparselms imported from {src_file}, not from the checkout")
        if inv.code != 0:
            return
        if self.w.is_cli:
            self._check_cli(inv, out_dir)
        else:
            self._check_online(inv)
        first = self.first_digest.setdefault(inv.seed, inv.digest)
        if inv.digest != first:
            inv.problems.append("output bytes differ from the run's first invocation at this seed")

    def _check_cli(self, inv, out_dir):
        w = self.w
        csv, svg = out_dir / "msd_curves.csv", out_dir / "msd_curves.svg"
        if not csv.exists():
            inv.problems.append("no msd_curves.csv")
            return
        inv.digest = {"csv_sha256": wl.sha256_file(csv)}
        if "--plot" in w.flags:
            if not svg.exists():
                inv.problems.append("no msd_curves.svg")
                return
            inv.digest["svg_sha256"] = wl.sha256_file(svg)
            if svg.read_text().count("<polyline") != w.cells:
                inv.problems.append("SVG does not hold one polyline per cell")
        if "--summary" in w.flags:
            rows = [ln for ln in inv.stdout.splitlines() if ln.split(" ", 1)[0] in wl.VARIANTS]
            if len(rows) != w.cells:
                inv.problems.append(f"summary has {len(rows)} rows, expected {w.cells}")
        key = (inv.seed, inv.digest["csv_sha256"])
        if key not in self.checked:
            try:
                curves = wl.read_csv_curves(csv)
            except ValueError as err:
                inv.problems.append(f"unreadable msd_curves.csv: {err}")
                return
            problems = wl.sanity_problems(curves)
            expected = {f"{v},{lvl}" for v in wl.VARIANTS for lvl in w.levels}
            if set(curves) != expected:
                problems.append(f"CSV cells {sorted(curves)} != {sorted(expected)}")
            elif any(c.shape[0] != w.iterations for c in curves.values()):
                problems.append(f"CSV curves are not {w.iterations} iterations long")
            elif inv.seed == wl.DEFAULT_SEED and self.reference:
                problems += wl.compare_digest(wl.curve_digest(curves), self.reference["digest"])
            self.checked[key] = problems
        inv.problems += self.checked[key]

    def _check_online(self, inv):
        outputs = inv.result["outputs"]
        variants = outputs["variants"]
        blob = b"".join(np.asarray(variants[v]["errors"] + variants[v]["weights"]).tobytes()
                        for v in sorted(variants))
        inv.digest = {"outputs_sha256": hashlib.sha256(blob).hexdigest()}
        if sorted(variants) != sorted(wl.VARIANTS):
            inv.problems.append(f"variants {sorted(variants)} != {sorted(wl.VARIANTS)}")
            return
        arrays = {f"{v}.energy": np.square(variants[v]["errors"]) for v in variants}
        arrays.update({f"{v}.weights_finite": np.abs(variants[v]["weights"]) for v in variants})
        inv.problems += wl.sanity_problems(arrays)
        if any(len(variants[v]["errors"]) != self.w.steps for v in variants):
            inv.problems.append(f"error sequences are not {self.w.steps} steps long")
        elif inv.seed == wl.DEFAULT_SEED and self.reference:
            inv.problems += wl.compare_digest(wl.online_digest(outputs), self.reference["digest"])

    def matches_reference_bytes(self, inv):
        if not self.reference or inv.digest is None:
            return None
        return all(self.reference.get(k) == v for k, v in inv.digest.items())


# ---------------------------------------------------------------- per-layer metrics

def parse_importtime(stderr):
    """Import time of ``sparselms``, its scipy share and module count.

    ``-X importtime`` prints each module after the modules it imported,
    indented by nesting depth; a stack rebuilds the tree.
    """
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _self_us, cum_us, name_field = line[len("import time:"):].split("|")
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        node = {"name": name_field.strip(), "depth": depth, "cum_us": int(cum_us),
                "children": []}
        while stack and stack[-1]["depth"] > depth:
            node["children"].insert(0, stack.pop())
        stack.append(node)
    root = next((n for n in stack if n["name"] == "sparselms"), None)
    if root is None:
        return None

    def count(node):
        return 1 + sum(count(c) for c in node["children"])

    def scipy_us(node):
        if node["name"] == "scipy" or node["name"].startswith("scipy."):
            return node["cum_us"]
        return sum(scipy_us(c) for c in node["children"])

    return {
        "sparselms.import_s": root["cum_us"] / 1e6,
        "sparselms.import_scipy_s": scipy_us(root) / 1e6,
        "sparselms.import_modules": count(root),
    }


def import_probe():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sparselms"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return parse_importtime(proc.stderr) if proc.returncode == 0 else None


def layer_values(inv):
    """Per-layer values of one traced invocation, from its spans."""
    trace = inv.result["trace"]
    raw = [tuple(s) for s in trace["spans"]]
    summary = spans.summarize(raw)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0, "labels": {}}

    def get(name):
        return summary.get(name, empty)

    signal = [rec for name, rec in summary.items() if name.startswith("signal_gen.")]
    signal_ns = sum(r["self_ns"] for r in signal)
    samples = sum(r["work"] for r in signal)
    trial = get("experiment.run_trial")
    step = get("filter_core.step")
    vals = {
        "cli.parse_config_s": get("cli.parse_config")["total_ns"] / 1e9,
        "signal_gen.self_s": signal_ns / 1e9,
        "signal_gen.calls": sum(r["calls"] for r in signal),
        "signal_gen.ns_per_sample": signal_ns / samples if samples else 0.0,
        "experiment.run_cell.self_s": get("experiment.run_cell")["self_ns"] / 1e9,
        "experiment.run_cell.calls": get("experiment.run_cell")["calls"],
        "experiment.steady_state_s": get("cli.steady_state")["total_ns"] / 1e9,
        "kernels.self_s": trial["self_ns"] / 1e9,
        "kernels.updates": trial["work"],
        "cli.emit_csv_s": get("cli.emit_csv")["total_ns"] / 1e9,
        "cli.emit_csv_bytes": get("cli.emit_csv")["work"],
        "cli.emit_plot_s": get("cli.emit_plot")["total_ns"] / 1e9,
        "cli.emit_plot_bytes": get("cli.emit_plot")["work"],
        "filter_core.step_self_s": step["self_ns"] / 1e9,
        "filter_core.step_calls": step["calls"],
    }
    for v in wl.VARIANTS:
        lab = trial["labels"].get(v)
        vals[f"kernels.ns_per_update.{v}"] = lab["self_ns"] / lab["work"] if lab and lab["work"] else 0.0
    res = inv.result
    start = res["setup_end"] if res["setup_end"] is not None else res["t_import"]
    vals["trace.unattributed_s"] = (res["t_end"] - start - spans.top_level_ns(raw, start)) / 1e9
    calls = {name: rec["calls"] for name, rec in summary.items()}
    return vals, calls


def per_layer(traced, untraced, probes, step_p50_us, step_p99_us):
    """Per-layer metrics of a traced run: medians over its traced invocations."""
    per_inv = [layer_values(i) for i in traced]
    layers = {name: statistics.median(v[0][name] for v in per_inv) for name in per_inv[0][0]}
    good = [p for p in probes if p is not None]
    for name in ("sparselms.import_s", "sparselms.import_scipy_s", "sparselms.import_modules"):
        layers[name] = statistics.median(p[name] for p in good) if good else 0.0
    layers["filter_core.step_p50_us"] = step_p50_us
    layers["filter_core.step_p99_us"] = step_p99_us
    layers["trace.overhead_s"] = (statistics.median(i.wall_s for i in traced)
                                  - statistics.median(i.wall_s for i in untraced))
    return layers, span_status(traced[0].result["trace"]["targets"], per_inv[0][1])


def span_status(targets, calls):
    """Each wrapped target: patched and called, patched but never called, or absent."""
    out = {}
    for target, info in sorted(targets.items()):
        n = calls.get(info["span"], 0)
        status = info["status"] if info["status"] == "absent" else ("ok" if n else "not_called")
        out[target] = {"span": info["span"], "status": status, "calls": n}
    return out


# ---------------------------------------------------------------- environment

def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numba_imports():
    try:
        importlib.import_module("numba")
    except ImportError:
        return False
    return True


def environment(child):
    return {
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "scipy": child.get("scipy"),
        "numba_imports": numba_imports(),
        "backend": child.get("backend"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------- reporting

def spread(values):
    """Median, quartiles, extremes and count of a sample."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def end_to_end(timed):
    per_inv = {
        "wall_ys": [i.wall_s / i.yard.wall_s for i in timed],
        "setup_s": [i.setup_s for i in timed],
        "setup_ys": [i.setup_s / i.yard.import_s for i in timed],
        "updates_per_ys": [i.updates * i.yard.compute_s / (i.wall_s - i.setup_s) for i in timed],
        "peak_rss_mb": [i.peak_rss_mb for i in timed],
        "wall_s": [i.wall_s for i in timed],
        "updates_per_s": [i.updates / (i.wall_s - i.setup_s) for i in timed],
    }
    return {name: spread(vals) for name, vals in per_inv.items()}


def step_percentiles(invs):
    pooled = np.concatenate([np.asarray(i.result["outputs"]["step_ns"], dtype=float)
                             for i in invs]) if invs else np.zeros(0)
    if pooled.size == 0:
        return 0.0, 0.0, 0
    p50, p99 = np.percentile(pooled, [50, 99]) / 1e3
    return float(p50), float(p99), int(pooled.size)


def fmt(name, unit, s):
    return (f"{name:<16} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
            f"min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own smoke test; no reference values")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "sparselms" / "__init__.py").is_file():
        print(f"error: no sparselms sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"error: --seed must be an unsigned 64-bit integer, got {args.seed}",
              file=sys.stderr)
        return 2

    t_run = time.monotonic()
    w = wl.smoke_workload(args.workload) if args.smoke else wl.WORKLOADS[args.workload]
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = None if args.smoke else wl.load_reference()["workloads"].get(w.name)
    if not args.smoke and reference is None:
        print(f"error: {wl.REFERENCE_PATH.name} has no entry for {w.name}", file=sys.stderr)
        return 2
    checker = Checker(w, reference)

    def run_one(seed, traced):
        inv = invoke(w, seed, traced, work)
        checker.check(inv, work / "out")
        for p in inv.problems:
            print(f"# FAILED invocation (seed {seed}, traced {int(traced)}): {p}")
        return inv

    # Untimed: warms the file cache and checks values at the reference seed.
    reference_inv = run_one(wl.DEFAULT_SEED, False)
    run_yardstick(work)  # warms the file cache for the yardstick
    yard_before = run_yardstick(work)
    invocations = [reference_inv]
    probes = []
    deadline = time.monotonic() + args.seconds
    if args.trace:
        probes = [import_probe() for _ in range(1 if args.smoke else IMPORT_PROBES)]
    timed, traced = [], []
    while True:
        now = time.monotonic()
        last = invocations[-1].wall_s + yard_before.wall_s
        if args.trace:
            need = len(timed) < MIN_TRACE_PAIRS or len(traced) < MIN_TRACE_PAIRS
        else:
            need = len(timed) < MIN_INVOCATIONS
        if now - t_run > RUN_LIMIT_S or (not need and now + last > deadline):
            break
        use_trace = bool(args.trace) and len(traced) < len(timed)
        inv = run_one(args.seed, use_trace)
        yard_after = run_yardstick(work)
        inv.yard = Yardstick.mean(yard_before, yard_after)
        yard_before = yard_after
        invocations.append(inv)
        (traced if use_trace else timed).append(inv)

    failed = [i for i in invocations if i.problems]
    ok_timed = [i for i in timed if not i.problems]
    ok_traced = [i for i in traced if not i.problems]
    if not ok_timed or (args.trace and not ok_traced):
        print("error: no invocation succeeded; see the lines above", file=sys.stderr)
        return 1

    env = environment(reference_inv.result["env"] if reference_inv.result else {})
    e2e = end_to_end(ok_timed)
    print(f"# workload {w.name}: {w.why}")
    print(f"# seed {args.seed}, trace {args.trace}, {len(invocations)} invocations "
          f"({len(timed)} timed untraced, {len(traced)} traced, 1 reference), "
          f"{ok_timed[0].updates} updates per invocation")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in {**END_TO_END, **RAW}.items():
        print(fmt(name, unit, e2e[name]))
    print(f"failed_frac      {len(failed) / len(invocations):.6g} "
          f"({len(failed)}/{len(invocations)} invocations)")
    # Per-call step latency, from untraced invocations only.
    p50, p99, n_steps = step_percentiles(ok_timed if not w.is_cli else [])
    if not w.is_cli:
        print(f"step_p50_us      {p50:.6g} us\nstep_p99_us      {p99:.6g} us  (n={n_steps} calls)")
    print(f"# outputs byte-identical to the stored reference: "
          f"{checker.matches_reference_bytes(reference_inv)}")

    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "env": env, "end_to_end": e2e,
        "failed_frac": len(failed) / len(invocations),
        "step_p50_us": p50, "step_p99_us": p99,
        "invocations": [
            {"seed": i.seed, "traced": i.traced, "wall_s": i.wall_s, "setup_s": i.setup_s,
             "yardstick": vars(i.yard) if i.yard else None,
             "setup_marker": i.setup_marker, "updates": i.updates,
             "peak_rss_mb": i.peak_rss_mb, "digest": i.digest, "problems": i.problems}
            for i in invocations
        ],
    }
    if args.trace:
        layers, status = per_layer(ok_traced, ok_timed, probes, p50, p99)
        for target, st in status.items():
            print(f"# span {st['span']:<32} {target:<40} {st['status']:<10} calls {st['calls']}")
        for name, unit in PER_LAYER.items():
            print(f"{name:<36} {layers[name]:.6g} {unit}")
        report.update(per_layer=layers, spans=status, import_probes=probes)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}

    reports = WORK / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps({"correct": not failed, "attempted": len(invocations),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

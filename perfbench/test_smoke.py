"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_and_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_workload_reports_every_metric(workload):
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert NAME.match(name), name
            assert UNIT.match(metric["unit"]) and metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]), name
        printed = {ln.split()[0]: ln.split()[1] for ln in lines[:-1] if not ln.startswith("#")}
        assert float(printed["failed_frac"]) == 0
        if trace == 0 and workload == "online_step":
            assert float(printed["step_p50_us"]) > 0 and float(printed["step_p99_us"]) > 0


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("protocol_cell", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_target_is_absent_and_never_called_reads_zero(monkeypatch):
    layer = types.ModuleType("fake_layer")
    layer.work = lambda n: n + 1
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    tracer = spans.Tracer()
    tracer.patch("fake_layer", "removed", "fake_layer.removed")
    tracer.patch("fake_layer_no_such_module", "f", "gone.f")
    tracer.patch("fake_layer", "work", "fake_layer.work", count=lambda a, k, r: r)
    status = run.span_status(tracer.targets, {})
    assert status["fake_layer.removed"]["status"] == "absent"
    assert status["fake_layer_no_such_module.f"]["status"] == "absent"
    assert status["fake_layer.work"] == {"span": "fake_layer.work", "status": "not_called",
                                         "calls": 0}
    assert layer.work(2) == 3
    summary = spans.summarize(tracer.spans)
    assert summary["fake_layer.work"]["calls"] == 1 and summary["fake_layer.work"]["work"] == 3
    called = run.span_status(tracer.targets, {"fake_layer.work": 1})
    assert called["fake_layer.work"]["status"] == "ok"


def test_self_time_subtracts_children():
    # (id, parent, name, t0, t1, label, work)
    raw = [(1, 0, "child", 10, 40, "a", 5), (2, 0, "child", 50, 60, "b", 1),
           (0, -1, "parent", 0, 100, None, 0)]
    summary = spans.summarize(raw)
    assert summary["parent"]["self_ns"] == 60
    assert summary["child"]["self_ns"] == 40 and summary["child"]["work"] == 6
    assert summary["child"]["labels"]["a"] == {"self_ns": 30, "work": 5}
    assert spans.top_level_ns(raw, 0) == 100


def test_parse_importtime_nesting():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |     scipy",
        "import time:       200 |        500 |   scipy.signal",
        "import time:        50 |         50 |   sparselms.errors",
        "import time:        10 |        560 | sparselms",
    ])
    got = run.parse_importtime(stderr)
    assert got == {"sparselms.import_s": 560e-6, "sparselms.import_scipy_s": 500e-6,
                   "sparselms.import_modules": 4}

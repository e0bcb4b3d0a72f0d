"""Smoke test of the benchmark at tiny size.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
Every workload runs untraced and traced for a fraction of a second; the
test asserts that each metric ``BENCHMARK.json`` declares is emitted with
its unit, that the workload-specific names are printed, and that compare
mode and the no-program exit behave.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: Names beyond the declared metrics that each kind of workload prints.
EXTRA_NAMES = {
    "train": ("samples_per_s", "step_ms_p50", "step_ms_p90", "loss_final",
              "loss_digest", "setup_s_measured"),
    "plan-mix": ("queries_per_s", "query_ms_p50", "query_ms_p99"),
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_out"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, out_dir):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny", "--out", out_dir,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        line = next(l for l in lines if l.split()[:1] == [metric["name"]])
        assert f" {metric['unit']} " in line and " n=" in line
    report = "\n".join(lines[:-1])
    assert "error_rate" in report and "OPENBLAS_NUM_THREADS=" in report
    if not trace:
        kind = "plan-mix" if workload == "plan-mix" else "train"
        for name in EXTRA_NAMES[kind]:
            assert f"  {name} " in report, name
        if workload == "train-compress":
            assert "  host_slowdown " in report
            for method in ("ssgd", "signsgd", "topk", "powersgd", "acpsgd"):
                assert f"  step_ms_p50.{method} " in report, method
                assert f"  latency_ms_p50.{method} " in report, method
    else:
        assert "trace.overhead_ms" in report


def test_compare_prints_a_verdict_for_every_workload_and_metric(out_dir):
    for seed in ("4", "5"):
        for workload in ("train-compress", "plan-mix"):
            assert run_bench(
                "--workload", workload, "--seed", seed, "--seconds", "0.2",
                "--size", "tiny", "--out", out_dir,
            ).returncode == 0
    proc = run_bench("--compare", out_dir, out_dir)
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("plan-mix ")]
    rows = [l for l in lines if "host_loop_ms median" not in l]
    assert len(rows) == len(BENCH["end_to_end"])
    # A set compared with itself is never better or worse, only within
    # bound or, where its spread exceeds the bound, unresolved.
    assert all(r.endswith(("within bound", "unresolved")) for r in rows), rows
    assert "loss digest equal on" in proc.stdout
    assert len(lines) == len(rows) + 1, "host speed marker line missing"


def test_verdicts():
    parent = [(seed, 100.0 + seed) for seed in range(10)]
    faster = [(seed, 80.0 + seed) for seed in range(10)]
    slower = [(seed, 130.0 + seed) for seed in range(10)]
    same = [(seed, 100.0 + (seed * 7) % 10) for seed in range(10)]
    noisy = [(seed, 100.0 * (1 + (seed % 2))) for seed in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1) == "better"
    assert compare.verdict(parent, slower, "lower", 0.1) == "worse beyond bound"
    assert compare.verdict(parent, same, "lower", 0.1) == "within bound"
    assert compare.verdict(parent, faster, "higher", 0.1) == "worse beyond bound"
    assert compare.verdict(noisy, same, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent[:1], faster, "lower", 0.1) == "unresolved"


def _traced_op(*layers):
    tracer = Tracer()
    tracer.op = 0
    root = tracer.open("step")
    for layer in layers:
        tracer.close(tracer.open(layer))
    tracer.close(root)
    return tracer


def test_a_reached_layer_without_spans_fails_the_check():
    reached = workloads._reached("train-compress")
    out = workloads.Measurement()
    workloads._self_time_metrics(out, _traced_op(*reached), "step", reached)
    assert out.correct
    out = workloads.Measurement()
    metrics = workloads._self_time_metrics(
        out, _traced_op(*reached[1:]), "step", reached
    )
    assert not out.correct
    assert metrics["nn.forward_ms"] == (0.0, 1)
    out = workloads.Measurement()
    workloads._self_time_metrics(
        out, _traced_op(*reached, "perf.run_step"), "step", reached
    )
    assert not out.correct


def test_only_bypassed_layers_are_filled():
    bypassed = workloads._bypassed_metrics("train-compress", workloads.METHODS)
    assert "nn.forward_ms" not in bypassed
    assert "compression.ms" not in bypassed
    assert "compression.ms.ssgd" in bypassed
    assert "compression.ms.topk" not in bypassed
    assert "perf.run_step_ms" in bypassed and "sched.run_ms" in bypassed
    bypassed = workloads._bypassed_metrics("train-process", ("acpsgd",))
    assert "nn.forward_ms" in bypassed and "nn.forward_ms.acpsgd" in bypassed
    assert "perf.run_step_ms" not in bypassed
    assert "comm.ms.acpsgd" not in bypassed and "comm.ms.topk" in bypassed
    assert "serve.ms" not in workloads._bypassed_metrics("plan-mix", ())


def test_plan_stream_misses_each_key_once_and_repeats_seen_keys():
    import numpy as np

    stream = workloads.plan_stream(np.random.default_rng(0), 12, 600)
    assert len(stream) == 600 and sorted(set(stream)) == list(range(12))
    seen = set()
    misses = 0
    for key in stream:
        misses += key not in seen
        seen.add(key)
    assert misses == 12


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

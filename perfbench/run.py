"""Benchmark of the repro training and planning stack.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload train-compress.topk --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
untraced; ``--trace 1`` measures the per-layer metrics from a traced run
and reports the tracing overhead. The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
the lines before it give every metric with its unit and sample count,
the workload-specific names (``step_ms_p50.topk``, ``queries_per_s``,
``loss_final``, ...), the loss digest, the correctness checks and the
environment. Each run also writes its full report to
``.bench_out/runs/`` and, when traced, its spans to
``.bench_out/traces/``. The command exits non-zero when a correctness
check fails, and with code 2 when the program cannot be imported.

Compare two sets of runs (for example a parent and a change, each a
directory of run reports)::

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

``--size tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _git_sha() -> str:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return None
    return top[1]


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents), for non-git checkouts."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment() -> dict:
    """What the numbers depend on besides the code.

    The BLAS thread variables are reported as inherited; the benchmark
    never sets them, because doing so would hide how process workers
    oversubscribe the cores with the default BLAS threading.
    """
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        affinity = os.sched_getaffinity(0)
    except AttributeError:
        affinity = set(range(os.cpu_count() or 1))
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(affinity),
        "affinity": ",".join(str(cpu) for cpu in sorted(affinity)),
        "blas": blas_name,
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker and wait for it.

    Process workers allocate shared memory, which starts the standard
    library's tracker process; the benchmark waits for every process it
    started before exiting.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(args: argparse.Namespace, bench: dict) -> tuple:
    import workloads

    size = workloads.SIZES[args.size]
    if args.trace:
        trace_dir = os.path.join(args.out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}.seed{args.seed}.jsonl")
        if args.workload == "plan-mix":
            out = workloads.trace_plan(args.seed, args.seconds, size, trace_path)
        else:
            out = workloads.trace_train(
                args.workload, args.seed, args.seconds, size, trace_path
            )
        out.notes.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        declared = bench["per_layer"]
    else:
        if args.workload == "plan-mix":
            out = workloads.run_plan(args.seed, args.seconds, size)
        else:
            out = workloads.run_train(args.workload, args.seed, args.seconds, size)
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in out.metrics]
    out.check(
        "every declared metric measured", int(bool(missing)), 1,
        ", ".join(missing) or "runs",
    )
    return out, declared


def _print_report(args, env, out, metrics, doc) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  size {args.size}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']:10s} n={entry['n']}")
    for name, (value, unit, count) in out.extras.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  {name:34s} {shown} {unit:10s} n={count}")
    for name, (passed, failed, detail) in out.checks.items():
        verdict = "FAIL" if failed else "PASS"
        print(f"  check {verdict}: {name} ({passed} of {passed + failed} {detail})")
    for note in out.notes:
        print(f"  note: {note}")
    print(f"  {'error_rate':34s} {doc['error_rate']:>14.6g} {'ratio':10s} "
          f"n={out.attempted} ({out.failed} failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import workloads  # noqa: F401 — imports the program
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2

    env = environment()
    started = time.time()
    try:
        out, declared = _run(args, bench)
    except Exception:  # noqa: BLE001 — a raised step or query fails the run
        traceback.print_exc()
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1
    finally:
        _stop_resource_tracker()
    env["worker_start_method"] = out.env.get("worker_start_method")
    if out.host_loop_ms:
        # The host speed marker: a fixed loop timed between timed sections,
        # and the CPUs the process was on then.
        env["host_loop_ms_p50"] = round(statistics.median(out.host_loop_ms), 4)
        env["host_loop_ms_max"] = round(max(out.host_loop_ms), 4)
        env["cpus_seen"] = ",".join(str(c) for c in sorted(set(out.host_cpus)))
    if out.host_stream_ms:
        env["host_stream_ms_p50"] = round(statistics.median(out.host_stream_ms), 4)
    metrics = {
        m["name"]: {
            "value": float(out.metrics[m["name"]][0]),
            "unit": m["unit"],
            "n": out.metrics[m["name"]][1],
        }
        for m in declared
        if m["name"] in out.metrics
    }
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "started": started,
        "env": env,
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "error_rate": out.failed / max(1, out.attempted),
        "metrics": metrics,
        "extras": {
            name: {"value": value, "unit": unit, "n": count}
            for name, (value, unit, count) in out.extras.items()
        },
        "checks": {
            name: {"passed": passed, "failed": failed, "detail": detail}
            for name, (passed, failed, detail) in out.checks.items()
        },
        "notes": out.notes,
    }
    run_dir = os.path.join(args.out, "runs")
    os.makedirs(run_dir, exist_ok=True)
    run_path = os.path.join(
        run_dir,
        f"{args.workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}.json",
    )
    with open(run_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    _print_report(args, env, out, metrics, doc)
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())

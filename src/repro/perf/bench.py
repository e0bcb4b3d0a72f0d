"""Hot-path benchmark: aggregation-step timing on the arena slabs.

Measures the per-step cost of every aggregation method on a VGG-style
model at ``world_size`` workers, with gradients in
:class:`~repro.perf.arena.ArenaGrads` slab views refilled from fixed
reference arrays before every (untimed) call, so S-SGD aggregates in place
on the slabs with preallocated ring scratch. The JSON report also records
the :data:`~repro.perf.counters.ALLOC_STATS` deltas — the S-SGD row must
show zero fused-buffer allocations — and an optional end-to-end
``train_step`` comparison (sequential vs parallel workers).

The ``worker_modes`` section compares the three backprop backends
(``seq`` / ``thread`` / ``process``) end-to-end per method, with a
worker/aggregate/broadcast time breakdown — the measurement that shows
whether compression compute actually escaped the GIL (see
``repro.perf.procpool``). Every column of that breakdown is a mean over
the same timed steps, so the parts and the ``unaccounted`` residual add
up to the step.

Run it via ``python -m repro bench`` or ``scripts/bench_hot_path.py``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_small_vgg
from repro.optim import aggregators as agg
from repro.optim.sgd import SGD
from repro.perf.arena import ArenaGrads, GradientArena
from repro.perf.counters import ALLOC_STATS
from repro.train.datasets import ArrayDataset
from repro.train.trainer import DataParallelTrainer

NamedGrads = Dict[str, np.ndarray]

#: method name -> aggregator factory, in report order. S-SGD first: it is
#: the row the zero-fused-allocation criterion reads.
AGGREGATOR_FACTORIES: Dict[str, Callable[[ProcessGroup], agg.GradientAggregator]] = {
    "ssgd": agg.AllReduceAggregator,
    "signsgd": agg.SignSGDAggregator,
    "topk": lambda g: agg.TopkSGDAggregator(g, ratio=0.01),
    "randomk": lambda g: agg.RandomKAggregator(g, ratio=0.01),
    "qsgd": agg.QSGDAggregator,
    "terngrad": agg.TernGradAggregator,
    "powersgd": lambda g: agg.PowerSGDAggregator(g, rank=4),
    "acpsgd": lambda g: agg.ACPSGDAggregator(g, rank=4),
}


def _reference_gradients(
    arena: GradientArena, seed: int
) -> List[np.ndarray]:
    """One fixed random fused gradient per worker (the refill source)."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(arena.layout.total_elements)
        for _ in range(arena.world_size)
    ]


def _time_aggregation(
    aggregator: agg.GradientAggregator,
    provider: Callable[[], List[NamedGrads]],
    iters: int,
    warmup: int,
) -> Dict[str, float]:
    """Best-of-``iters`` wall time of ``aggregate`` (provider untimed).

    The provider refills the gradient buffers before every call because
    in-place aggregation consumes them; the refill is excluded from the
    timed region. Alloc counters cover only the timed iterations.
    """
    for _ in range(warmup):
        aggregator.aggregate(provider())
    times = []
    ALLOC_STATS.reset()
    for _ in range(iters):
        per_worker = provider()
        start = time.perf_counter()
        aggregator.aggregate(per_worker)
        times.append(time.perf_counter() - start)
    return {
        "best_s": min(times),
        "mean_s": float(np.mean(times)),
        "pack_copies_per_step": ALLOC_STATS.pack_copies / iters,
        "fused_allocs_per_step": ALLOC_STATS.fused_allocs / iters,
    }


def _bench_train_step(
    world_size: int,
    base_width: int,
    iters: int,
    warmup: int,
    seed: int,
) -> Dict[str, object]:
    """End-to-end S-SGD ``train_step``: sequential vs parallel workers.

    On a single-core host the parallel mode mostly measures threading
    overhead; the row is recorded for tracking, not gated.
    """
    results: Dict[str, object] = {}
    for mode in ("sequential", "parallel"):
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((world_size * 32, 3, 16, 16))
        labels = rng.integers(0, 10, size=world_size * 32)
        data = ArrayDataset(inputs, labels)
        model = make_small_vgg(base_width=base_width, rng=np.random.default_rng(seed))
        trainer = DataParallelTrainer(
            model,
            SGD(model, lr=0.01),
            agg.AllReduceAggregator(ProcessGroup(world_size)),
            data,
            data,
            batch_size_per_worker=8,
            seed=seed,
            parallel_workers=(mode == "parallel"),
        )
        for _ in range(warmup):
            trainer.train_step()
        times = []
        for _ in range(iters):
            start = time.perf_counter()
            trainer.train_step()
            times.append(time.perf_counter() - start)
        results[mode] = {"best_s": min(times), "mean_s": float(np.mean(times))}
    results["parallel_speedup"] = (
        results["sequential"]["best_s"] / results["parallel"]["best_s"]
    )
    return results


def _bench_worker_modes(
    world_size: int,
    base_width: int,
    iters: int,
    warmup: int,
    seed: int,
    methods: List[str],
    worker_modes: List[str],
) -> Dict[str, object]:
    """End-to-end ``train_step`` per worker backend, with a breakdown.

    For every (method, backend) pair the row records the mean step time
    plus where it went, each a mean over the same timed steps:
    ``worker_mean_s`` (the workers' backprop phase — the part the backend
    parallelizes), ``aggregate_mean_s`` (compression kernels + collective,
    always in the parent), for the process backend ``broadcast_mean_s``
    (the per-step weights memcpy into the shared buffer — its only
    per-step copy), and ``unaccounted_mean_s``, the rest of the step
    (roster sync, optimizer step). The thread-vs-process comparison is the
    GIL story in numbers: compute-bound methods (signsgd, terngrad) only
    scale when backprop escapes the GIL.

    Speedups are meaningful only with real cores; the report records
    ``cpu_count`` so a single-core result is not misread as a regression.
    """
    rows: Dict[str, object] = {}
    for method in methods:
        method_rows: Dict[str, object] = {}
        for mode in worker_modes:
            rng = np.random.default_rng(seed)
            inputs = rng.standard_normal((world_size * 32, 3, 16, 16))
            labels = rng.integers(0, 10, size=world_size * 32)
            data = ArrayDataset(inputs, labels)
            model = make_small_vgg(
                base_width=base_width, rng=np.random.default_rng(seed)
            )
            trainer = DataParallelTrainer(
                model,
                SGD(model, lr=0.01),
                AGGREGATOR_FACTORIES[method](ProcessGroup(world_size)),
                data,
                data,
                batch_size_per_worker=8,
                seed=seed,
                workers=mode,
            )
            # Shadow the phase methods on the instances to time them
            # without touching the classes: per step, the backend's worker
            # entry point and the aggregation.
            if mode == "process":
                worker_entry = "_process_worker_gradients"
            elif trainer._pool is not None:
                worker_entry = "_parallel_worker_gradients"
            else:
                worker_entry = "_worker_gradients"
            phase_times = {"worker": [0.0], "aggregate": [0.0]}
            for obj, attr, phase in (
                (trainer.aggregator, "aggregate", "aggregate"),
                (trainer, worker_entry, "worker"),
            ):
                setattr(obj, attr, _timed(getattr(obj, attr), phase_times[phase]))
            try:
                for _ in range(warmup):
                    trainer.train_step()
                ALLOC_STATS.reset()
                parts: Dict[str, List[float]] = {
                    "step": [], "worker": [], "aggregate": [], "broadcast": [],
                }
                for _ in range(iters):
                    for times in phase_times.values():
                        times[0] = 0.0
                    start = time.perf_counter()
                    trainer.train_step()
                    parts["step"].append(time.perf_counter() - start)
                    broadcast = (
                        trainer._procpool.last_broadcast_s
                        if trainer._procpool is not None else 0.0
                    )
                    # The process backend's worker phase includes the
                    # weight broadcast; report it in its own column.
                    parts["worker"].append(phase_times["worker"][0] - broadcast)
                    parts["aggregate"].append(phase_times["aggregate"][0])
                    parts["broadcast"].append(broadcast)
            finally:
                trainer.close()
            means = {key: float(np.mean(values)) for key, values in parts.items()}
            method_rows[mode] = {
                "best_s": min(parts["step"]),
                "mean_s": means["step"],
                "worker_mean_s": means["worker"],
                "aggregate_mean_s": means["aggregate"],
                "broadcast_mean_s": means["broadcast"],
                "unaccounted_mean_s": (
                    means["step"] - means["worker"] - means["aggregate"]
                    - means["broadcast"]
                ),
                "fused_allocs_per_step": ALLOC_STATS.fused_allocs / iters,
            }
        if "thread" in method_rows and "process" in method_rows:
            method_rows["process_vs_thread_speedup"] = (
                method_rows["thread"]["mean_s"]
                / method_rows["process"]["mean_s"]
            )
        rows[method] = method_rows
    return rows


def _timed(inner: Callable, total: List[float]) -> Callable:
    """Wrap ``inner`` so every call adds its wall time to ``total[0]``."""

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - start

    return timed


def _bench_buffer_sweep(
    world_size: int,
    base_width: int,
    iters: int,
    warmup: int,
    seed: int,
    buffer_sizes_mb: List[float],
) -> List[Dict[str, object]]:
    """S-SGD aggregation time vs fusion buffer size (the Fig. 8 axis).

    Each row drives the real bucketed pipeline — arena buckets, segmented
    ring collectives, the reducer's deferred loop — at one ``buffer_bytes``
    setting and records the per-bucket mean timings plus the
    :data:`~repro.perf.counters.ALLOC_STATS` deltas, so the report shows
    both ends of the paper's trade-off: many small buckets pay latency per
    collective, one huge bucket forfeits overlap.
    """
    from repro.train.reducer import BucketedReducer

    rows: List[Dict[str, object]] = []
    for size_mb in buffer_sizes_mb:
        buffer_bytes = int(size_mb * 2**20)
        model = make_small_vgg(
            base_width=base_width, rng=np.random.default_rng(seed)
        )
        arena = GradientArena(model, world_size, bucket_bytes=buffer_bytes)
        aggregator = agg.AllReduceAggregator(ProcessGroup(world_size))
        reducer = BucketedReducer(model, arena, aggregator)
        reference = _reference_gradients(arena, seed + 1)

        def provider() -> List[ArenaGrads]:
            for slot, ref in enumerate(reference):
                np.copyto(arena.slab(slot), ref)
            return [arena.grads(slot) for slot in range(world_size)]

        for _ in range(warmup):
            reducer.aggregate(aggregator, provider())
        ALLOC_STATS.reset()
        times = []
        bucket_seconds: Dict[int, List[float]] = {}
        bucket_elements: Dict[int, int] = {}
        for _ in range(iters):
            per_worker = provider()
            start = time.perf_counter()
            reducer.aggregate(aggregator, per_worker)
            times.append(time.perf_counter() - start)
            for index, elements, seconds in reducer.last_timings:
                bucket_seconds.setdefault(index, []).append(seconds)
                bucket_elements[index] = elements
        rows.append({
            "buffer_mbytes": size_mb,
            "buffer_bytes": buffer_bytes,
            "num_buckets": reducer.num_buckets,
            "best_s": min(times),
            "mean_s": float(np.mean(times)),
            "per_bucket": [
                {
                    "bucket": index,
                    "elements": bucket_elements[index],
                    "mean_s": float(np.mean(bucket_seconds[index])),
                }
                for index in sorted(bucket_seconds)
            ],
            "alloc_stats": ALLOC_STATS.snapshot(),
        })
        reducer.close()
    return rows


def run_hot_path_bench(
    world_size: int = 4,
    base_width: int = 32,
    iters: int = 7,
    warmup: int = 2,
    seed: int = 0,
    methods: Optional[List[str]] = None,
    include_train_step: bool = True,
    buffer_sizes_mb: Optional[List[float]] = None,
    worker_modes: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the full benchmark and return the JSON-serializable report."""
    model = make_small_vgg(base_width=base_width, rng=np.random.default_rng(seed))
    arena = GradientArena(model, world_size)
    layout = arena.layout
    reference = _reference_gradients(arena, seed + 1)

    def provider() -> List[ArenaGrads]:
        # Refill: aggregation consumes the slabs.
        for slot, ref in enumerate(reference):
            np.copyto(arena.slab(slot), ref)
        return [arena.grads(slot) for slot in range(world_size)]

    selected = methods or list(AGGREGATOR_FACTORIES)
    aggregate_step: Dict[str, object] = {
        method: _time_aggregation(
            AGGREGATOR_FACTORIES[method](ProcessGroup(world_size)),
            provider, iters, warmup,
        )
        for method in selected
    }

    report: Dict[str, object] = {
        "config": {
            "world_size": world_size,
            "base_width": base_width,
            "iters": iters,
            "warmup": warmup,
            "seed": seed,
            "model_parameters": layout.total_elements,
            "slab_mbytes": arena.nbytes / arena.world_size / 2**20,
            # Worker-mode speedups only mean something with real cores.
            "cpu_count": os.cpu_count(),
        },
        "aggregate_step": aggregate_step,
    }
    if include_train_step:
        report["train_step_ssgd"] = _bench_train_step(
            world_size, base_width, max(3, iters // 2), 1, seed
        )
    if buffer_sizes_mb is None:
        # Four sizes spanning the Fig. 8 sweet-spot search by default.
        buffer_sizes_mb = [0.25, 1.0, 4.0, 16.0]
    if buffer_sizes_mb:
        report["buffer_sweep"] = _bench_buffer_sweep(
            world_size, base_width, iters, warmup, seed, buffer_sizes_mb
        )
    if worker_modes is None:
        worker_modes = ["seq", "thread", "process"]
    if worker_modes:
        # Compute-bound methods (sign/ternary quantization) are where the
        # GIL hurts most; ssgd rides along as the bandwidth-bound control.
        worker_methods = [
            m for m in ("ssgd", "signsgd", "terngrad") if m in selected
        ] or selected[:1]
        report["worker_modes"] = _bench_worker_modes(
            world_size, base_width, max(3, iters // 2), 1, seed,
            worker_methods, worker_modes,
        )
    if "ssgd" in aggregate_step:
        ssgd_allocs = aggregate_step["ssgd"]["fused_allocs_per_step"]
        report["criteria"] = {
            "arena_fused_allocs_per_step": ssgd_allocs,
            "arena_zero_fused_allocs": ssgd_allocs == 0,
        }
    worker_rows = report.get("worker_modes", {})
    process_vs_thread = {
        method: row["process_vs_thread_speedup"]
        for method, row in worker_rows.items()
        if "process_vs_thread_speedup" in row
    }
    if process_vs_thread:
        criteria = report.setdefault("criteria", {})
        criteria["process_vs_thread_speedup"] = process_vs_thread
        criteria["process_speedup_target"] = 2.0
        # The >=2x target needs at least two compute-bound methods over
        # the bar — and physically needs multiple cores (see cpu_count).
        compute_bound = [
            method for method in ("signsgd", "terngrad")
            if process_vs_thread.get(method, 0.0) >= 2.0
        ]
        criteria["process_speedup_ok"] = len(compute_bound) >= 2
        criteria["cpu_count"] = os.cpu_count()
    return report

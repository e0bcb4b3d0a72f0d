"""The benchmark's workloads: seeded inputs, set-up, timed and traced loops.

Every workload is built from ``--seed`` alone: the seed generates the
synthetic CIFAR-like data, the model's initial weights, the trainer and
compressor seeds, and the planning-query stream. The program receives
only these generated inputs.

Workloads (the one-line reasons are recorded in ``BENCHMARK.json``):

- ``train-compress``: the paper's five methods on the ``seq`` backend at
  world size 4 on ``make_small_vgg(base_width=32)``, batch 2 per worker,
  monolithic aggregation, each method's trainer starting from the same
  weights. The small batch makes aggregation (compression, packing,
  collectives) a visible share of the step. The methods are stepped in
  turn, one step each, so every method sees the same share of the
  machine's slow and fast periods and their step times compare fairly.
  Its gated figures are scaled to a reference host speed (see
  ``run_train``).
- ``train-process``: ``workers="process"`` at world size 2, batch 16 per
  worker, ``acpsgd`` rank 4 with a bucketed fusion buffer. Backprop runs
  in the children, so process-pool dispatch, the weight broadcast and
  child BLAS threading dominate. The benchmark never sets a BLAS thread
  variable: the children inherit whatever the caller has.
- ``plan-mix``: one closed-loop client (it waits for each reply) sends a
  stream of ``PlanQuery``s to an in-process ``PlannerService``. Each
  round starts from a cold service and asks every key of one part of the population
  once as a miss (a full simulator run) among repeats (cache hits), so
  the miss work per round is fixed and the seed only changes the order
  and the parts' sequence. The miss share is 2%: under half, so the
  median query is a hit and tracks the serve cache, and twice the 1% a
  p99 leaves above it, so the p99 sits at the median miss and tracks
  the simulator rather than the edge between hits and misses. Its gated
  figures are scaled to a reference host speed (see ``run_plan``).

End-to-end timings come from untraced loops. ``--trace 1`` runs an
untraced half and a traced half on the same set-up: the per-layer
numbers come from the traced half and the difference of the two halves'
medians is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.planner
from repro.comm.process_group import ProcessGroup
from repro.models.convnets import make_small_vgg
from repro.models.registry import MODEL_SPECS
from repro.optim import aggregators
from repro.optim.sgd import SGD
from repro.perf import shm
from repro.perf.counters import ALLOC_STATS
from repro.perf.procpool import ProcessWorkerPool
from repro.sched.engine import EventLoop
from repro.serve import service as service_module
from repro.serve.query import PlanQuery
from repro.serve.schema import plan_from_dict
from repro.serve.service import SOURCE_CACHE, SOURCE_COMPUTED, PlannerService
from repro.sim.calibration import SIM_LINKS
from repro.train.datasets import make_cifar_like
from repro.train.trainer import DataParallelTrainer

from tracer import Tracer

PLAN_SCHEMA = "repro.plan/2"
METHODS = ("ssgd", "signsgd", "topk", "powersgd", "acpsgd")
METHOD_KWARGS = {
    "ssgd": {},
    "signsgd": {},
    "topk": {"ratio": 0.01},
    "powersgd": {"rank": 4},
    "acpsgd": {"rank": 4},
}
#: Methods whose aggregator takes a seed (sampling or initial factors).
SEEDED_METHODS = ("topk", "powersgd", "acpsgd")
COMPRESSION_METHODS = (
    "compress", "finalize", "compute_p", "compute_q", "reconstruct",
    "select", "residual_for", "store_residual",
)
DECODE_FUNCTIONS = ("majority_vote_aggregate", "sparse_aggregate")
COLLECTIVES = (
    "all_reduce", "all_reduce_", "all_reduce_segment", "all_reduce_segment_",
    "all_gather", "reduce_scatter", "broadcast",
)
WARMUP_STEPS = 2
#: The host speed marker's time (``_reference_loop_ms``) in the fast
#: periods of a 2-vCPU x86 VM; plan-mix figures are scaled to this speed.
REFERENCE_LOOP_MS = 2.0
#: The same for the array marker (``_reference_stream_ms``), to which
#: the training figures are scaled.
REFERENCE_STREAM_MS = 9.0


@dataclass(frozen=True)
class Size:
    """Problem size: ``full`` is the benchmark, ``tiny`` the smoke test."""

    width_scale: float
    num_train: int
    quality_steps: int
    trace_min_ops: int
    segments: int
    plan_models: Tuple[str, ...]
    plan_gpus: Tuple[int, ...]
    plan_links: Tuple[str, ...]
    plan_round_queries: int


SIZES = {
    "full": Size(1.0, 512, 12, 10, 5, MODEL_SPECS, (8, 32),
                 tuple(SIM_LINKS), 600),
    "tiny": Size(0.125, 64, 4, 2, 2, ("ResNet-18", "VGG-16"), (4,),
                 ("10GbE",), 200),
}


@dataclass(frozen=True)
class TrainSpec:
    methods: Tuple[str, ...]
    world_size: int
    base_width: int
    batch: int
    workers: str
    buffer_bytes: Optional[int]


TRAIN_SPECS: Dict[str, TrainSpec] = {
    "train-compress": TrainSpec(METHODS, 4, 32, 2, "seq", None),
    "train-process": TrainSpec(("acpsgd",), 2, 16, 16, "process", 256 * 1024),
}


@dataclass
class Measurement:
    """What one run produced, before units are attached.

    ``metrics`` maps a declared metric name to ``(value, samples)``;
    ``extras`` holds the workload-specific names (``step_ms_p50.topk``,
    ``loss_final``, ...) as ``(value, unit, samples)``.
    """

    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    extras: Dict[str, Tuple[object, str, int]] = field(default_factory=dict)
    checks: Dict[str, List] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: What ran besides the code, added to the run's environment block.
    env: Dict[str, object] = field(default_factory=dict)
    host_loop_ms: List[float] = field(default_factory=list)
    host_stream_ms: List[float] = field(default_factory=list)
    host_cpus: List[int] = field(default_factory=list)

    def sample_host(self) -> None:
        """Record the host speed marker between timed sections."""
        self.host_loop_ms.append(_reference_loop_ms())
        self.host_cpus.append(_current_cpu())

    def check(
        self, name: str, failures: int, count: int = 1, detail: str = ""
    ) -> None:
        """Record ``count`` checked operations of one kind, ``failures`` bad.

        ``checks[name]`` is ``[passed, failed, detail]``, keeping the
        detail of the first failure.
        """
        entry = self.checks.setdefault(name, [0, 0, detail])
        if failures and not entry[1]:
            entry[2] = detail
        entry[0] += count - failures
        entry[1] += failures
        self.attempted += count
        self.failed += failures

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _current_cpu() -> int:
    """The CPU this process runs on (Linux ``/proc``), or -1."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


def _reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop that runs no program code.

    On a shared host this follows the host's slow and fast periods, so
    its values, sampled between timed sections, mark the speed regime a
    run met.
    """
    began = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(20000):
        table[i % 257] = table.get(i % 257, 0) + i
    return (time.perf_counter() - began) * 1e3


_STREAM = np.random.default_rng(0).standard_normal(300_000)


def _reference_stream_ms() -> float:
    """Time of fixed numpy array passes that run no program code.

    Allocating element-wise passes and a partial sort over an array
    larger than the L2 cache. In the host's slow periods the training
    steps slow in nearly the same proportion as this marker (the
    pure-Python ``_reference_loop_ms`` slows about twice as much as they
    do), so the training figures are scaled by it.
    """
    began = time.perf_counter()
    for _ in range(6):
        magnitude = np.abs(_STREAM)
        magnitude * 0.5 + _STREAM
        np.argpartition(magnitude, -3000)
    return (time.perf_counter() - began) * 1e3


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _rss_mb(pid: object = "self") -> float:
    """Peak resident set (VmHWM) of one process in MiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _children_rss_mb() -> float:
    return sum(_rss_mb(child.pid) for child in multiprocessing.active_children())


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------


def build_trainer(
    spec: TrainSpec, method: str, seed: int, size: Size
) -> DataParallelTrainer:
    train, test = make_cifar_like(
        num_train=size.num_train, num_test=8, image_size=16, seed=seed
    )
    width = max(2, int(spec.base_width * size.width_scale))
    model = make_small_vgg(base_width=width, rng=np.random.default_rng([seed, 1]))
    kwargs = dict(METHOD_KWARGS[method])
    if method in SEEDED_METHODS:
        kwargs["seed"] = seed
    aggregator = aggregators.make_aggregator(
        method, ProcessGroup(spec.world_size), **kwargs
    )
    return DataParallelTrainer(
        model,
        SGD(model, lr=0.05),
        aggregator,
        train,
        test,
        batch_size_per_worker=spec.batch,
        seed=seed,
        workers=spec.workers,
        buffer_bytes=spec.buffer_bytes,
    )


def _close_trainers(
    out: Measurement, trainers: Dict[str, DataParallelTrainer]
) -> float:
    """Close every trainer; returns the children's peak RSS before closing."""
    children = _children_rss_mb()
    for trainer in trainers.values():
        trainer.close()
    if any(trainer.workers == "process" for trainer in trainers.values()):
        live = shm.live_segment_names()
        out.check(
            "no live shared-memory segments after close", int(bool(live)), 1,
            ", ".join(sorted(live)) or "closes",
        )
    return children


def _set_up_trainers(
    out: Measurement, spec: TrainSpec, seed: int, size: Size
) -> Tuple[Dict[str, DataParallelTrainer], float]:
    """One warmed-up trainer per method, all from the same seed.

    Returns the trainers and the set-up seconds: data, model and trainer
    construction, child spawn and the warm-up steps.
    """
    start = time.perf_counter()
    trainers: Dict[str, DataParallelTrainer] = {}
    try:
        for method in spec.methods:
            trainers[method] = build_trainer(spec, method, seed, size)
            for _ in range(WARMUP_STEPS):
                trainers[method].train_step()
    except BaseException:
        _close_trainers(out, trainers)
        raise
    return trainers, time.perf_counter() - start


def _record_start_method(
    out: Measurement, trainers: Dict[str, DataParallelTrainer]
) -> None:
    """The start method of the worker processes the trainers actually built."""
    pools = [t._procpool for t in trainers.values() if t._procpool is not None]
    out.env["worker_start_method"] = pools[0].start_method if pools else None


@dataclass
class Steps:
    """Per-method step latencies (seconds) and losses of one loop."""

    times: Dict[str, List[float]]
    losses: Dict[str, List[float]]
    wall: float


def _train_step(method: str, trainer: DataParallelTrainer) -> float:
    return trainer.train_step()


def _timed_steps(
    trainers: Dict[str, DataParallelTrainer],
    seconds: float,
    min_steps: int,
    step: Callable[[str, DataParallelTrainer], float] = _train_step,
    markers: Optional[List[float]] = None,
) -> Steps:
    """Step the methods round-robin, one step each per cycle.

    Cycles continue until ``seconds`` have passed and every method ran
    ``min_steps``. Interleaving gives every method the same share of
    the machine's slow and fast periods. With ``markers``, the array
    marker is sampled after every cycle, outside the timed wall.
    """
    times: Dict[str, List[float]] = {method: [] for method in trainers}
    losses: Dict[str, List[float]] = {method: [] for method in trainers}
    deadline = time.perf_counter() + seconds
    wall = 0.0
    cycles = 0
    while cycles < min_steps or time.perf_counter() < deadline:
        start = time.perf_counter()
        for method, trainer in trainers.items():
            began = time.perf_counter()
            losses[method].append(step(method, trainer))
            times[method].append(time.perf_counter() - began)
        wall += time.perf_counter() - start
        if markers is not None:
            markers.append(_reference_stream_ms())
        cycles += 1
    return Steps(times, losses, wall)


def loss_digest(losses: List[float]) -> str:
    """SHA-256 prefix over the exact bits of a loss sequence."""
    text = ",".join(float(loss).hex() for loss in losses)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _check_losses(out: Measurement, steps: Steps) -> None:
    for method, losses in steps.losses.items():
        bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
        detail = f"{method}: non-finite at steps {bad[:5]}" if bad else "steps"
        out.check("step loss finite", len(bad), len(losses), detail)


def run_train(name: str, seed: int, seconds: float, size: Size) -> Measurement:
    """Timed steps in ``size.segments`` segments, each on a fresh set-up.

    Every segment rebuilds the trainers from the seed (one set-up time
    sample each) and replays the same training, so the first
    ``quality_steps`` losses of every segment must be bit-identical.
    Fresh set-ups also resample how the OS places worker processes and
    BLAS threads, which otherwise holds for a whole run; the timings pool
    every step of every segment, so each placement counts by its steps.

    The shared host has slow periods lasting minutes in which a step
    takes up to 1.4 times as long. The array marker is sampled after
    every cycle and slows in nearly the same proportion, so each
    segment's set-up, steps and wall are divided by that segment's
    slowdown (median marker / ``REFERENCE_STREAM_MS``) for the gated
    figures and the per-method latencies. ``samples_per_s``,
    ``step_ms_*`` and ``setup_s_measured`` are as measured. Process
    workers are not scaled: after each step their idle BLAS threads spin
    for a while, and a marker taken then reads that contention (30-110%
    slower), not the host's speed.
    """
    spec = TRAIN_SPECS[name]
    out = Measurement()
    setups: List[float] = []
    measured_setups: List[float] = []
    times: Dict[str, List[float]] = {method: [] for method in spec.methods}
    scaled: Dict[str, List[float]] = {method: [] for method in spec.methods}
    wall = scaled_wall = 0.0
    children_peak = 0.0
    quality: Dict[str, List[float]] = {}
    scale = spec.workers != "process"
    for _ in range(size.segments):
        out.sample_host()
        markers = [_reference_stream_ms()] if scale else None
        trainers, seconds_taken = _set_up_trainers(out, spec, seed, size)
        _record_start_method(out, trainers)
        try:
            steps = _timed_steps(
                trainers, seconds / size.segments, size.quality_steps,
                markers=markers,
            )
        finally:
            children_peak = max(children_peak, _close_trainers(out, trainers))
        _check_losses(out, steps)
        slowdown = 1.0
        if scale:
            out.host_stream_ms += markers
            slowdown = statistics.median(markers) / REFERENCE_STREAM_MS
        measured_setups.append(seconds_taken)
        setups.append(seconds_taken / slowdown)
        wall += steps.wall
        scaled_wall += steps.wall / slowdown
        for method in spec.methods:
            times[method] += steps.times[method]
            scaled[method] += [t / slowdown for t in steps.times[method]]
            prefix = steps.losses[method][: size.quality_steps]
            if method in quality:
                out.check(
                    "same seed replays bit-identical losses",
                    int(prefix != quality[method]), 1, "segments",
                )
            else:
                quality[method] = prefix

    out.sample_host()
    pooled = [t for method in spec.methods for t in times[method]]
    pooled_scaled = [t for method in spec.methods for t in scaled[method]]
    steps_run = len(pooled)
    samples = steps_run * spec.world_size * spec.batch
    finals = {m: float(np.mean(quality[m][-4:])) for m in spec.methods}
    out.metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "throughput": (samples / scaled_wall, steps_run),
        "latency_ms_p50": (percentile(pooled_scaled, 50) * 1e3, steps_run),
        "latency_ms_tail": (percentile(pooled_scaled, 90) * 1e3, steps_run),
        "peak_rss_mb": (_rss_mb() + children_peak, 1),
    }
    out.extras = {
        "samples_per_s": (samples / wall, "samples/s", steps_run),
        "step_ms_p50": (percentile(pooled, 50) * 1e3, "ms", steps_run),
        "step_ms_p90": (percentile(pooled, 90) * 1e3, "ms", steps_run),
        "setup_s_measured": (statistics.median(measured_setups), "s",
                             len(measured_setups)),
        "loss_final": (float(np.mean(list(finals.values()))), "nats",
                       4 * len(finals)),
        "loss_digest": (
            loss_digest([x for m in spec.methods for x in quality[m]]),
            "sha256", size.quality_steps * len(spec.methods),
        ),
    }
    if scale:
        out.extras["host_slowdown"] = (
            statistics.median(out.host_stream_ms) / REFERENCE_STREAM_MS,
            "ratio", len(out.host_stream_ms),
        )
    if len(spec.methods) > 1:
        for method in spec.methods:
            n = len(times[method])
            for label, values in (("step_ms", times), ("latency_ms", scaled)):
                out.extras[f"{label}_p50.{method}"] = (
                    percentile(values[method], 50) * 1e3, "ms", n)
                tail = "p90" if label == "step_ms" else "tail"
                out.extras[f"{label}_{tail}.{method}"] = (
                    percentile(values[method], 90) * 1e3, "ms", n)
            out.extras[f"loss_final.{method}"] = (finals[method], "nats", 4)
    out.notes.append(
        "throughput = samples/s; latency = train_step() ms over all methods; "
        "tail = p90; "
        + ("the gated setup_s, throughput and latency figures and "
           "latency_ms_p50/tail.<method> are scaled by each segment's "
           f"slowdown (median host_stream_ms / {REFERENCE_STREAM_MS} ms); "
           "samples_per_s, step_ms_* and setup_s_measured are not; "
           if scale else "no figure is scaled (process workers); ")
        + f"loss_final = mean loss of timed steps "
        f"{size.quality_steps - 4}..{size.quality_steps - 1}; loss_digest "
        f"covers timed steps 0..{size.quality_steps - 1} of every method"
    )
    return out


def _install_train_tracer(tracer: Tracer, trainer: DataParallelTrainer) -> None:
    aggregator = trainer.aggregator
    counts = tracer.counts

    def bucket_done(result, span) -> None:
        counts["buckets"] += 1
        if tracer.inside("nn.backward"):
            counts["eager_buckets"] += 1

    if trainer.workers != "process":
        # Under process workers the model and the shards are used inside
        # the children only; the parent's copies never run.
        tracer.patch(trainer.model, "forward", "nn.forward")
        tracer.patch(trainer.model, "backward", "nn.backward")
        for shard in trainer.train_shards.values():
            tracer.patch(shard, "batch", "train.batch")
    for attr in ("aggregate", "begin_buckets", "finish_buckets"):
        tracer.patch(aggregator, attr, "optim.aggregate")
    tracer.patch(aggregator, "reduce_bucket", "optim.aggregate", bucket_done)
    for rank in aggregator.roster:
        state = aggregator.state_for(rank)
        for attr in COMPRESSION_METHODS:
            if state is not None and hasattr(state, attr):
                tracer.patch(state, attr, "compression")
    for attr in COLLECTIVES:
        tracer.patch(aggregator.group, attr, "comm")
    tracer.patch(trainer.optimizer, "step", "optim.step")


#: Span name -> per-layer metric (self time per step or query, in ms).
SELF_TIME_METRICS = {
    "nn.forward": "nn.forward_ms",
    "nn.backward": "nn.backward_ms",
    "train.batch": "train.batch_ms",
    "compression": "compression.ms",
    "optim.aggregate": "optim.aggregate_ms",
    "comm": "comm.ms",
    "optim.step": "optim.step_ms",
    "perf.run_step": "perf.run_step_ms",
    "perf.broadcast": "perf.broadcast_ms",
    "perf.replay": "perf.replay_ms",
    "sched.run": "sched.run_ms",
    "sim.autotune": "sim.autotune_ms",
    "sim.other": "sim.other_ms",
    "serve": "serve.ms",
}
#: Step counters, per method and pooled: counter -> metric.
STEP_COUNTS = {
    "comm.calls": "comm.calls_per_step",
    "comm.bytes": "comm.bytes_per_step",
    "fused_allocs": "perf.fused_allocs_per_step",
    "buckets": "train.reducer.buckets_per_step",
    "eager_steps": "train.reducer.eager_share",
}
#: Layers (span names) the traced op of each workload reaches; it
#: bypasses every other layer, whose metrics read 0 with no samples.
REACHES = {
    "train-compress": (
        "nn.forward", "nn.backward", "train.batch", "compression",
        "optim.aggregate", "comm", "optim.step",
    ),
    # Forward, backward and the shards' batches run inside the children.
    "train-process": (
        "compression", "optim.aggregate", "comm", "optim.step",
        "perf.run_step", "perf.broadcast", "perf.replay",
    ),
    "plan-mix": ("sched.run", "sim.autotune", "sim.other", "serve"),
}
#: Layers a method bypasses although its workload reaches them.
METHOD_BYPASSES = {"ssgd": ("compression",)}
PLAN_COUNTS = (
    "sched.tasks_per_miss", "serve.hit_us_p50", "serve.hit_rate",
    "serve.misses", "serve.coalesced",
)
#: Counters of the layers each workload bypasses.
BYPASSED_COUNTS = {
    "train-compress": ("perf.spawn_s",) + PLAN_COUNTS,
    "train-process": PLAN_COUNTS,
    "plan-mix": tuple(STEP_COUNTS.values()) + ("perf.spawn_s",),
}
#: Per-layer metrics also reported per method as ``<name>.<method>``.
PER_METHOD_METRICS = (
    "nn.forward_ms", "nn.backward_ms", "train.batch_ms", "compression.ms",
    "optim.aggregate_ms", "comm.ms", "optim.step_ms", "unaccounted_ms",
    "trace.op_ms", "comm.calls_per_step", "comm.bytes_per_step",
    "perf.fused_allocs_per_step",
)


def _reached(workload: str, method: Optional[str] = None) -> Tuple[str, ...]:
    skipped = METHOD_BYPASSES.get(method, ())
    return tuple(s for s in REACHES[workload] if s not in skipped)


def _bypassed_metrics(
    workload: str, methods: Tuple[str, ...]
) -> Dict[str, Tuple[float, int]]:
    """The per-layer metrics of the layers ``workload`` bypasses, at 0.

    A per-method metric is bypassed when its method is not trained or
    the method bypasses its layer.
    """
    names = list(BYPASSED_COUNTS[workload])
    names += [m for s, m in SELF_TIME_METRICS.items() if s not in REACHES[workload]]
    for method in METHODS:
        skipped = {
            SELF_TIME_METRICS[s] for s in SELF_TIME_METRICS
            if s not in _reached(workload, method)
        }
        names += [
            f"{name}.{method}" for name in PER_METHOD_METRICS
            if method not in methods or name in skipped
        ]
    return {name: (0.0, 0) for name in names}


def _self_time_metrics(
    out: Measurement,
    tracer: Tracer,
    root: str,
    reached: Tuple[str, ...],
    ops: Optional[set] = None,
    suffix: str = "",
) -> Dict[str, Tuple[float, int]]:
    """Self time per reached layer per op and the residual ``unaccounted_ms``.

    Checks that the traced ops reached exactly the ``reached`` layers and
    that the layers plus the residual add up to the traced op.
    """
    traced = tracer.durations(root, ops)
    count = len(traced)
    selfs = tracer.self_times(root, ops)
    recorded = {s for s in selfs if s != root}
    missing = sorted(set(reached) - recorded)
    surprise = sorted(recorded - set(reached))
    out.check(
        "traced ops reach exactly the layers declared for the workload",
        int(bool(missing or surprise)), 1,
        f"no spans of {missing}, unexpected spans of {surprise}{suffix}"
        if missing or surprise else "traced ops",
    )
    metrics = {}
    for span in reached:
        metrics[SELF_TIME_METRICS[span] + suffix] = (
            selfs.get(span, 0.0) / count * 1e3, count
        )
    layer_sum = sum(
        value for span, value in selfs.items() if span != root
    ) / count * 1e3
    unaccounted = selfs.get(root, 0.0) / count * 1e3
    mean_op = sum(traced) / count * 1e3
    metrics["unaccounted_ms" + suffix] = (unaccounted, count)
    metrics["trace.op_ms" + suffix] = (mean_op, count)
    residual = layer_sum + unaccounted - mean_op
    out.check(
        "layer self times + unaccounted_ms reconcile to the traced op time",
        int(abs(residual) > 1e-6 * max(1.0, mean_op)), 1,
        f"{layer_sum:.4f} + {unaccounted:.4f} vs {mean_op:.4f} ms{suffix}",
    )
    return metrics


def _overhead_metrics(
    tracer: Tracer, root: str, untraced: List[float]
) -> Dict[str, Tuple[float, int]]:
    traced = tracer.durations(root)
    untraced_p50 = percentile(untraced, 50) * 1e3
    traced_p50 = percentile(traced, 50) * 1e3
    return {
        "trace.untraced_ms_p50": (untraced_p50, len(untraced)),
        "trace.traced_ms_p50": (traced_p50, len(traced)),
        "trace.overhead_ms": (traced_p50 - untraced_p50, len(traced)),
    }


def trace_train(
    name: str, seed: int, seconds: float, size: Size, trace_path: str
) -> Measurement:
    """Alternating untraced and traced cycles on one set-up of the workload."""
    spec = TRAIN_SPECS[name]
    out = Measurement()
    tracer = Tracer()
    process = spec.workers == "process"
    if process:
        tracer.patch(ProcessWorkerPool, "ensure_ranks", "perf.spawn")
    try:
        trainers, _ = _set_up_trainers(out, spec, seed, size)
    finally:
        tracer.unpatch_all()
    _record_start_method(out, trainers)
    spawn_s = sum(tracer.durations("perf.spawn"))
    method_of_op: List[str] = []
    # Per-step counter values by method; counts are averaged over each
    # method's first ``trace_min_ops`` steps, so they repeat exactly from
    # run to run (ACP-SGD alternates its factor size between steps).
    per_step = {method: defaultdict(list) for method in spec.methods}
    counts = tracer.counts

    def traced_step(method: str, trainer: DataParallelTrainer) -> float:
        tracer.op = len(method_of_op)
        method_of_op.append(method)
        history = trainer.aggregator.group.history
        calls, allocs = len(history), ALLOC_STATS.fused_allocs
        buckets, eager = counts["buckets"], counts["eager_buckets"]
        index = tracer.open("step")
        try:
            loss = trainer.train_step()
        finally:
            tracer.close(index)
        values = per_step[method]
        values["comm.calls"].append(len(history) - calls)
        values["comm.bytes"].append(sum(s.total_bytes for s in history[calls:]))
        values["fused_allocs"].append(ALLOC_STATS.fused_allocs - allocs)
        values["buckets"].append(counts["buckets"] - buckets)
        values["eager_steps"].append(int(counts["eager_buckets"] > eager))
        return loss

    def install() -> None:
        for trainer in trainers.values():
            _install_train_tracer(tracer, trainer)
        for function in DECODE_FUNCTIONS:
            tracer.patch(aggregators, function, "compression")
        if process:
            for attr, span in (("broadcast_weights", "perf.broadcast"),
                               ("run_step", "perf.run_step"),
                               ("replay_batch_stats", "perf.replay"),
                               ("merge_alloc_stats", "perf.replay")):
                tracer.patch(ProcessWorkerPool, attr, span)

    # Untraced and traced cycles alternate, so both see the same slow and
    # fast periods of the machine and their difference is the overhead.
    untraced: List[float] = []
    cycle = 0
    deadline = time.perf_counter() + seconds
    try:
        while cycle < 2 * size.trace_min_ops or time.perf_counter() < deadline:
            if cycle % 2:
                install()
                try:
                    steps = _timed_steps(trainers, 0.0, 1, traced_step)
                finally:
                    tracer.unpatch_all()
            else:
                steps = _timed_steps(trainers, 0.0, 1)
                untraced += [t for times in steps.times.values() for t in times]
            _check_losses(out, steps)
            cycle += 1
    finally:
        _close_trainers(out, trainers)
    tracer.dump(trace_path)

    metrics = _bypassed_metrics(name, spec.methods)
    metrics.update(_self_time_metrics(out, tracer, "step", _reached(name)))
    metrics.update(_overhead_metrics(tracer, "step", untraced))
    window = size.trace_min_ops

    def count_per_step(method: str, counter: str) -> float:
        return float(np.mean(per_step[method][counter][:window]))

    for counter, metric in STEP_COUNTS.items():
        value = np.mean([count_per_step(m, counter) for m in spec.methods])
        metrics[metric] = (float(value), window * len(spec.methods))
    if process:
        metrics["perf.spawn_s"] = (spawn_s, 1)
    for method in spec.methods:
        ops = {op for op, m in enumerate(method_of_op) if m == method}
        suffix = f".{method}"
        metrics.update(_self_time_metrics(
            out, tracer, "step", _reached(name, method), ops, suffix
        ))
        for counter, metric in STEP_COUNTS.items():
            if metric in PER_METHOD_METRICS:
                metrics[metric + suffix] = (count_per_step(method, counter), window)
    out.metrics = metrics
    if process:
        out.notes.append(
            "process children are measured from the parent only: their "
            "forward/backward/batch time is inside perf.run_step_ms"
        )
    return out


# ---------------------------------------------------------------------------
# Planning workload
# ---------------------------------------------------------------------------


def plan_parts(size: Size) -> List[List[PlanQuery]]:
    """The key population (models x GPU counts x links x buffer tuning),
    split into one part per (GPU count, link) combination.

    Every part holds each (model, tuning) pair once, at a combination
    that rotates from part to part, so parts cost about the same and a
    full cycle of parts asks every key of the population.
    """
    combos = [(gpus, link) for gpus in size.plan_gpus for link in size.plan_links]
    parts = []
    for part in range(len(combos)):
        queries = []
        for index, model in enumerate(size.plan_models):
            for tune in (False, True):
                gpus, link = combos[
                    (part + index + tune * (len(combos) // 2)) % len(combos)
                ]
                queries.append(PlanQuery(
                    model=model, gpus=gpus, link=SIM_LINKS[link],
                    tune_buffer=tune,
                ))
        parts.append(queries)
    return parts


def plan_stream(rng: np.random.Generator, keys: int, length: int) -> List[int]:
    """A stream of ``length`` queries over ``keys`` keys in which every key appears.

    Each key's first appearance is a miss at a random position; every
    other position repeats an already-seen key, chosen uniformly, so it
    hits. The miss share is therefore ``keys / length``.
    """
    first_order = rng.permutation(keys)
    new_at = set(rng.choice(np.arange(1, length), size=keys - 1, replace=False))
    new_at.add(0)
    stream: List[int] = []
    seen: List[int] = []
    for position in range(length):
        if position in new_at:
            seen.append(int(first_order[len(seen)]))
            stream.append(seen[-1])
        else:
            stream.append(seen[int(rng.integers(len(seen)))])
    return stream


class PlanRounds:
    """Cold-cache rounds of the query stream; each round checks payloads.

    Round ``r`` asks the keys of one part (parts in a seeded order,
    cycled), every key once as a miss among repeats. A round's part and
    stream depend only on the seed and ``r``, so a fresh set-up can
    continue where the previous one stopped.
    """

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.parts = plan_parts(size)
        self.order = np.random.default_rng([seed, 2]).permutation(len(self.parts))
        # Lazy imports and first-call costs of the planner land in set-up.
        with PlannerService(max_workers=1) as warm:
            warm.submit(PlanQuery(model=size.plan_models[0], gpus=2,
                                  link=SIM_LINKS["1GbE"], tune_buffer=False))

    def run_round(
        self,
        index: int,
        out: Measurement,
        latencies: List[float],
        tracer: Optional[Tracer] = None,
    ) -> Tuple[float, Dict[str, object]]:
        """Round ``index`` on a fresh service; returns (loop seconds, stats)."""
        population = self.parts[self.order[index % len(self.parts)]]
        stream = plan_stream(
            np.random.default_rng([self.seed, 3, index]),
            len(population), self.size.plan_round_queries,
        )
        records: List[Tuple[int, Optional[str], str]] = []
        with PlannerService(max_workers=1) as service:
            if tracer is not None:
                tracer.patch(service, "submit", "serve", _hit_recorder(tracer))
            start = time.perf_counter()
            for key in stream:
                began = time.perf_counter()
                op = tracer.open("query") if tracer is not None else -1
                try:
                    result = service.submit(population[key])
                except Exception as error:  # noqa: BLE001 — counted, run goes on
                    records.append((key, None, repr(error)))
                else:
                    records.append((key, result.payload, result.source))
                finally:
                    if tracer is not None:
                        tracer.close(op)
                        tracer.op += 1
                latencies.append(time.perf_counter() - began)
            loop = time.perf_counter() - start
            stats = service.stats()
        self._check_round(out, records)
        return loop, stats

    @staticmethod
    def _check_round(out: Measurement, records) -> None:
        """Payloads parse under the plan schema; hits repeat misses byte for byte."""
        first: Dict[int, str] = {}
        bad: List[str] = []
        for key, payload, source in records:
            if payload is None:
                bad.append(f"key {key}: {source}")
                continue
            if key not in first:
                try:
                    doc = json.loads(payload)
                    ok = doc.get("schema") == PLAN_SCHEMA
                    plan_from_dict(doc)
                except (ValueError, KeyError, TypeError, AttributeError) as error:
                    ok = False
                    source = repr(error)
                if not ok or source != SOURCE_COMPUTED:
                    bad.append(f"key {key}: first answer {source}")
                first[key] = payload
            elif payload != first[key] or source != SOURCE_CACHE:
                bad.append(f"key {key}: repeat answer differs ({source})")
        out.check(
            "query answered; payload parses under repro.plan/2 and hits "
            "equal the miss byte for byte",
            len(bad), len(records), "; ".join(bad[:3]) or "queries",
        )


def _hit_recorder(tracer: Tracer):
    def record(result, span) -> None:
        if result.source == SOURCE_CACHE:
            tracer.samples["hit_s"].append(span[2] - span[1])

    return record


def _set_up_plan(seed: int, size: Size) -> Tuple[PlanRounds, float]:
    start = time.perf_counter()
    rounds = PlanRounds(seed, size)
    return rounds, time.perf_counter() - start


def window_figures(
    windows: List[Tuple[List[float], float, int]], tail: float
) -> Tuple[float, float, float]:
    """Throughput, p50 and tail latency (ms) as medians over windows.

    A run is cut into windows, each ``(latencies in s, wall s, items
    done)``. Every figure is taken per window and the median over
    windows is reported, so a burst of host contention shorter than a
    window moves one window, not the run.
    """
    return (
        statistics.median(items / wall for _, wall, items in windows),
        statistics.median(percentile(lat, 50) for lat, _, _ in windows) * 1e3,
        statistics.median(percentile(lat, tail) for lat, _, _ in windows) * 1e3,
    )


def run_plan(seed: int, seconds: float, size: Size) -> Measurement:
    """Whole cycles of rounds, one round per part, each cycle on a fresh set-up.

    Cycles continue while the next one would end less than half a cycle
    past ``seconds``, so a run ends within half a cycle of it. Every
    cycle asks every key of the population once as a miss, so the miss
    work of a run does not depend on the seed, and every cycle gives one
    set-up sample. Timings are medians over cycles (see
    ``window_figures``).
    """
    out = Measurement()
    setups: List[float] = []
    windows: List[Tuple[List[float], float, int]] = []
    misses: List[int] = []
    started = time.perf_counter()
    elapsed = 0.0
    while not windows or elapsed * (1 + 0.5 / len(windows)) < seconds:
        rounds, seconds_taken = _set_up_plan(seed, size)
        setups.append(seconds_taken)
        latencies: List[float] = []
        loop_total = 0.0
        for _ in rounds.parts:
            out.sample_host()
            loop, stats = rounds.run_round(len(misses), out, latencies)
            loop_total += loop
            misses.append(stats["computes"])
        windows.append((latencies, loop_total, len(latencies)))
        elapsed = time.perf_counter() - started
    out.sample_host()
    queries = sum(len(lat) for lat, _, _ in windows)
    queries_per_s, p50, p99 = window_figures(windows, 99)
    setup = statistics.median(setups)
    # This pure-Python work runs up to 1.8x slower in the shared host's
    # slow periods, which last minutes, and the host speed marker slows
    # with it; so the gated figures are scaled to the speed at which the
    # marker takes REFERENCE_LOOP_MS.
    slowdown = statistics.median(out.host_loop_ms) / REFERENCE_LOOP_MS
    out.metrics = {
        "setup_s": (setup / slowdown, len(setups)),
        "throughput": (queries_per_s * slowdown, queries),
        "latency_ms_p50": (p50 / slowdown, queries),
        "latency_ms_tail": (p99 / slowdown, queries),
        "peak_rss_mb": (_rss_mb(), 1),
    }
    out.extras = {
        "queries_per_s": (queries_per_s, "queries/s", queries),
        "query_ms_p50": (p50, "ms", queries),
        "query_ms_p99": (p99, "ms", queries),
        "setup_s_measured": (setup, "s", len(setups)),
        "host_slowdown": (slowdown, "ratio", len(out.host_loop_ms)),
        "misses_per_round": (float(np.mean(misses)), "count", len(misses)),
        "hit_rate": (1.0 - sum(misses) / queries, "ratio", queries),
    }
    out.notes.append(
        f"throughput = queries/s; latency = submit() ms; tail = p99; "
        f"timings are medians over cycles of each cycle's figure; the "
        f"gated setup_s, throughput and latency figures are scaled by "
        f"host_slowdown (median host_loop_ms / {REFERENCE_LOOP_MS} ms), "
        f"queries_per_s, query_ms_p50/p99 and setup_s_measured are not; "
        f"{len(setups)} cycles of {len(rounds.parts)} cold-cache rounds of "
        f"{size.plan_round_queries} queries, each over one part of "
        f"{len(rounds.parts[0])} keys; setup_s is the median over cycles "
        f"(the first cycle also pays the planner's first-call costs)"
    )
    return out


def trace_plan(
    seed: int, seconds: float, size: Size, trace_path: str
) -> Measurement:
    out = Measurement()
    rounds, _ = _set_up_plan(seed, size)
    tracer = Tracer()
    counts = tracer.counts

    def tasks_done(result, span) -> None:
        counts["sched.tasks"] += len(result)

    # Untraced and traced rounds alternate (see trace_train).
    untraced: List[float] = []
    traced: List[float] = []
    misses = []
    coalesced = 0
    tracer.op = 0
    index = 0
    started = time.perf_counter()
    while index < 2 or time.perf_counter() - started < seconds:
        if index % 2 == 0:
            rounds.run_round(index, out, untraced)
        else:
            tracer.patch(service_module, "compute_plan_payload", "sim.other")
            tracer.patch(repro.planner, "autotune_buffer_size", "sim.autotune")
            tracer.patch(EventLoop, "run", "sched.run", tasks_done)
            try:
                _, stats = rounds.run_round(index, out, traced, tracer)
            finally:
                tracer.unpatch_all()
            misses.append(stats["computes"])
            coalesced += stats["coalesced"]
        index += 1
    tracer.dump(trace_path)

    queries = len(traced)
    hit_s = tracer.samples["hit_s"]
    metrics = _bypassed_metrics("plan-mix", ())
    metrics.update(_self_time_metrics(out, tracer, "query", _reached("plan-mix")))
    metrics.update(_overhead_metrics(tracer, "query", untraced))
    metrics.update({
        "sched.tasks_per_miss": (counts["sched.tasks"] / sum(misses), sum(misses)),
        "serve.hit_us_p50": (percentile(hit_s, 50) * 1e6, len(hit_s)),
        "serve.hit_rate": (len(hit_s) / queries, queries),
        "serve.misses": (float(np.mean(misses)), len(misses)),
        "serve.coalesced": (float(coalesced), len(misses)),
    })
    out.metrics = metrics
    return out

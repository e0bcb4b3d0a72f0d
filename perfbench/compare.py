"""Compare two sets of benchmark runs, metric by metric.

Each side is a directory (searched recursively) or a single run report
written by ``run.py``. Only untraced runs are compared. For every workload
and end-to-end metric, and for each method's scaled step latency on
``train-compress`` (judged by the bound of the matching latency metric),
the table gives each side's median and quartiles and one verdict:

- ``better``: the change wins at least nine tenths of the pairs (runs
  paired by seed, ties counting for neither side) and the medians differ
  by more than the parent's quartile spread. Where the parent's relative
  spread exceeds the bound, every change run must also beat every
  parent run.
- ``worse beyond bound``: the change's median is worse than the
  parent's by more than the metric's bound (a share of the parent's
  median), and either the spread is within the bound or every change
  run is worse than every parent run.
- ``unresolved``: the parent's relative spread is wider than the bound
  and the runs do not separate, or a side has fewer than two runs.
- ``within bound``: otherwise.

For runs of the same seed on both sides the loss digests are compared:
equal digests mean bit-identical losses over the digested steps.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced run reports under ``path``, grouped by workload."""
    files = []
    if os.path.isdir(path):
        for directory, _, names in os.walk(path):
            files += [os.path.join(directory, n) for n in names if n.endswith(".json")]
    else:
        files.append(path)
    runs: Dict[str, List[dict]] = defaultdict(list)
    for file in sorted(files):
        with open(file, encoding="utf-8") as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and doc.get("trace") == 0 and "workload" in doc:
            runs[doc["workload"]].append(doc)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: List[Tuple[int, float]],
    change: List[Tuple[int, float]],
    better: str,
    bound: float,
) -> str:
    """Verdict for one metric; each side is a list of (seed, value)."""
    if len(parent) < 2 or len(change) < 2:
        return "unresolved"
    # Scores grow with quality whichever way the metric points.
    sign = -1.0 if better == "lower" else 1.0
    p_scores = [sign * v for _, v in parent]
    c_scores = [sign * v for _, v in change]
    p1, p_med, p3 = quartiles([v for _, v in parent])
    iqr = p3 - p1
    gain = sign * (statistics.median(v for _, v in change) - p_med)
    spread = iqr / abs(p_med) if p_med else float("inf")
    all_better = min(c_scores) > max(p_scores)
    all_worse = max(c_scores) < min(p_scores)
    by_seed = {seed: sign * v for seed, v in parent}
    pairs = [(by_seed[seed], sign * v) for seed, v in change if seed in by_seed]
    if not pairs:
        pairs = list(zip(sorted(p_scores), sorted(c_scores)))
    wins = sum(1 for p, c in pairs if c > p)
    if wins >= 0.9 * len(pairs) and gain > iqr and (spread <= bound or all_better):
        return "better"
    if spread > bound and not all_better and not all_worse:
        return "unresolved"
    if p_med and -gain / abs(p_med) > bound:
        return "worse beyond bound"
    return "within bound"


#: Workload-specific per-method numbers compared under a declared metric's
#: direction and bound: prefix -> declared metric.
PER_METHOD_ROWS = {"latency_ms_p50.": "latency_ms_p50", "latency_ms_tail.": "latency_ms_tail"}


def _rows(runs: List[dict], bench: dict) -> Dict[str, Tuple[dict, List[Tuple[int, float]]]]:
    """Metric name -> (declaration, [(seed, value)]) over one side's runs."""
    declared = {m["name"]: m for m in bench["end_to_end"]}
    rows: Dict[str, Tuple[dict, List[Tuple[int, float]]]] = {
        name: (metric, []) for name, metric in declared.items()
    }
    for run in runs:
        for name, entry in run.get("metrics", {}).items():
            if name in rows:
                rows[name][1].append((run["seed"], entry["value"]))
        for name, entry in run.get("extras", {}).items():
            for prefix, base in PER_METHOD_ROWS.items():
                if name.startswith(prefix):
                    rows.setdefault(name, (declared[base], []))[1].append(
                        (run["seed"], entry["value"]))
    return rows


def main(parent_path: str, change_path: str, bench: dict) -> int:
    parent_runs = load_runs(parent_path)
    change_runs = load_runs(change_path)
    header = (f"{'workload':16s} {'metric':22s} {'unit':8s} "
              f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in bench["workloads"]]:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        parent_rows = _rows(parent, bench)
        change_rows = _rows(change, bench)
        for name, (metric, parent_values) in parent_rows.items():
            change_values = change_rows.get(name, (metric, []))[1]
            cells = []
            for side in (parent_values, change_values):
                if side:
                    q1, med, q3 = quartiles([v for _, v in side])
                    cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g} n={len(side)}")
                else:
                    cells.append("no runs")
            result = verdict(
                parent_values, change_values, metric["better"], metric["bound"]
            )
            print(f"{workload:16s} {name:22s} {metric['unit']:8s} "
                  f"{cells[0]:>32s} {cells[1]:>32s}  {result}")
        digests = {
            run["seed"]: run.get("extras", {}).get("loss_digest", {}).get("value")
            for run in parent
        }
        same = [
            digests[run["seed"]] == run.get("extras", {}).get("loss_digest", {}).get("value")
            for run in change
            if digests.get(run["seed"]) is not None
        ]
        if same:
            print(f"{workload:16s} loss digest equal on {sum(same)} of "
                  f"{len(same)} shared seeds")
        # The host speed marker: sets that ran in different host speed
        # regimes differ here too, whatever the code did.
        markers = [
            [run["env"]["host_loop_ms_p50"] for run in side
             if "host_loop_ms_p50" in run.get("env", {})]
            for side in (parent, change)
        ]
        if all(markers):
            print(f"{workload:16s} host_loop_ms median parent "
                  f"{statistics.median(markers[0]):.4g}, change "
                  f"{statistics.median(markers[1]):.4g}")
    return 0

"""In-memory span tracer that wraps calls into the program from outside.

The program under test carries no tracing of its own, so the benchmark
records spans by replacing methods and functions on the objects it built
(or on the classes and modules the program calls through) with timing
wrappers, and restores them afterwards. A span is
``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the step or query id. Spans
stay in memory and are written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its
direct children. Everything runs on the caller's thread, so children
never overlap and the self times of one root's spans add up exactly to
the root's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_MISSING = object()


class Tracer:
    """Collects spans and counts; installs and removes call wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> list:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_exit: Optional[Callable[[object, list], None]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``on_exit(result, span)`` records counts."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if on_exit is not None:
                on_exit(result, span)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_exit: Optional[Callable[[object, list], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (instance, class or module) by a wrapper."""
        previous = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_exit))

    def unpatch_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis ------------------------------------------------------------

    def self_times(
        self, root: str, ops: Optional[set] = None
    ) -> Dict[str, float]:
        """Total self seconds per span name over the trees rooted at ``root``.

        The root spans' own self time is reported under ``root``. Only
        trees whose op id is in ``ops`` count, when it is given; spans of
        other trees (for example set-up) are ignored.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        counted = [False] * len(self.spans)
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if parent >= 0:
                counted[index] = counted[parent]
            else:
                counted[index] = name == root and (ops is None or op in ops)
            if counted[index]:
                totals[name] += end - start - child_time[index]
        return dict(totals)

    def durations(self, name: str, ops: Optional[set] = None) -> List[float]:
        """Durations (seconds) of the spans called ``name`` (in ``ops``)."""
        return [
            end - start
            for n, start, end, _, op in self.spans
            if n == name and (ops is None or op in ops)
        ]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

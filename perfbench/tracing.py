"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each fedseal layer by replacing the
module attribute through which the caller looks the function up, records one
span per call, and restores the originals afterwards.  Nothing under ``src/``
knows it is being traced.

A span is a tuple ``(id, parent, name, start, end, rows, cpu)``: ``rows`` is
the work count the wrapper read from the call's arguments, ``cpu`` the
thread's CPU seconds inside the call (only for wrappers asked to measure it).
The parent stack is thread-local, so spans opened by client worker threads
never nest under a span that is open on another thread.  A span opened on a
thread whose stack is empty is adopted by the innermost open *root* span
(``experiment.run_round``), which is the call that caused it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

ID, PARENT, NAME, START, END, ROWS, CPU = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # next() on a count and list.append are single bytecode-level calls
        # into C, so worker threads can share them without a lock.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rows=None, root: bool = False, cpu: bool = False):
        """Return ``fn`` wrapped so that each call records a span."""
        perf = time.perf_counter
        thread_time = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            n_rows = rows(*args, **kwargs) if rows is not None else 0
            stack.append(span_id)
            if root:
                outer_root, self._root = self._root, span_id
            cpu_start = thread_time() if cpu else 0.0
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                used = thread_time() - cpu_start if cpu else 0.0
                stack.pop()
                if root:
                    self._root = outer_root
                self.spans.append((span_id, parent, name, start, end, n_rows, used))

        return traced

    def patch(self, module, attr: str, name: str, **options) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **options))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def covered_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_seconds(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on several threads may overlap each other; the union is
    subtracted, so a parent waiting on two parallel children has no self
    time for the stretch either of them runs.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered_seconds(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total, self and CPU seconds, and rows."""
    own = self_seconds(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "rows": 0}
    )
    for span in spans:
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own[span[ID]]
        entry["cpu_s"] += span[CPU]
        entry["rows"] += span[ROWS]
    return dict(out)

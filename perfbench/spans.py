"""In-memory spans and per-function counters for the traced run.

``Tracer.instrument`` replaces every public module-level function of the
given modules with a wrapper that opens a span around the call.  The
replacement is made in every given module namespace that binds the
function, so calls through ``from .specfun import upper_incomplete_gamma``
and calls inside the defining module are both seen.  Nothing in the
program itself changes; ``restore`` puts the originals back.

Each thread keeps its own span stack and its own totals, so worker threads
(Monte Carlo chunks) never race on shared counters; ``totals`` merges them.
A span's self time is its duration minus the durations of its direct
children.  Children of one span run inside it and one after another in the
same thread, so that sum is exactly the part of the span they cover.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import threading
import time


class FnStats:
    """Totals for one traced function."""

    __slots__ = ("calls", "self_s", "incl_s", "outer_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        # Inclusive time is summed over outermost calls only, so a recursive
        # call is not counted twice.
        self.incl_s = 0.0
        self.outer_calls = 0

    def merge(self, other: "FnStats") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.incl_s += other.incl_s
        self.outer_calls += other.outer_calls


class _ThreadState:
    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.stack: list[list] = []  # [span_id, child_s]
        self.depth: dict[str, int] = {}
        self.stats: dict[str, FnStats] = {}
        self.counts: collections.Counter = collections.Counter()
        # Distinct keys seen within the current operation, per counter name.
        self.distinct: dict[str, set] = {}
        self.distinct_op = None


class Tracer:
    """Span recorder with per-function totals and observer counters.

    ``observers`` maps a traced name to ``f(tracer, state, args, kwargs,
    result, exc, duration)``; an observer adds to ``state.counts`` or calls
    ``tracer.distinct(state, key, item)``.  ``exc`` is the exception that
    left the call, or None when it returned.  The sidecar file keeps the first
    ``spans_per_op`` spans of each operation, up to ``max_spans`` in all;
    every span enters the totals.
    """

    def __init__(self, clock=time.perf_counter, spans_per_op: int = 2000,
                 max_spans: int = 50_000, observers: dict | None = None) -> None:
        self.clock = clock
        self.spans_per_op = spans_per_op
        self.max_spans = max_spans
        self.observers = dict(observers or {})
        self.op_id = -1
        self.spans: list[tuple] = []
        self._op_kept = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Tag the spans that follow with ``op_id``."""
        self.op_id = op_id
        self._op_kept = 0

    # -- wrapping ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        observe = self.observers.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            depth = st.depth.get(name, 0)
            st.depth[name] = depth + 1
            parent = stack[-1][0] if stack else -1
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                st.depth[name] = depth
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stats = st.stats.get(name)
                if stats is None:
                    stats = st.stats[name] = FnStats()
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if depth == 0:
                    stats.incl_s += dur
                    stats.outer_calls += 1
                if self._op_kept < self.spans_per_op and len(self.spans) < self.max_spans:
                    self._op_kept += 1
                    self.spans.append(
                        (frame[0], name, start, end, parent, self.op_id, st.thread)
                    )
                if observe is not None:
                    observe(self, st, args, kwargs, result, exc, dur)
            return result

        return traced

    def distinct(self, st: _ThreadState, key: str, item) -> None:
        """Count ``item`` towards the distinct items of ``key`` in this
        operation; see ``totals`` for how operations are combined."""
        if st.distinct_op != self.op_id:
            self._fold_distinct(st)
            st.distinct_op = self.op_id
        st.distinct.setdefault(key, set()).add(item)

    @staticmethod
    def _fold_distinct(st: _ThreadState) -> None:
        for key, items in st.distinct.items():
            st.counts[key + ".distinct"] += len(items)
        st.distinct = {}

    def instrument(self, modules, short_names: dict) -> list[str]:
        """Wrap the public functions defined in ``modules``.

        ``short_names`` maps a module's ``__name__`` to the prefix of its
        span names.  Returns the traced names.
        """
        wrapped = {}
        names = []
        for mod in modules:
            prefix = short_names[mod.__name__]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[obj] = self.wrap(f"{prefix}.{attr}", obj)
                names.append(f"{prefix}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))
        return sorted(names)

    def restore(self) -> None:
        """Undo ``instrument``."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- results ----------------------------------------------------------

    def totals(self):
        """Merged (stats by name, counters) over all threads.

        A ``<key>.distinct`` counter is the sum over operations of the
        number of distinct items seen in that operation.
        """
        stats: dict[str, FnStats] = {}
        counts: collections.Counter = collections.Counter()
        with self._states_lock:
            states = list(self._states)
        for st in states:
            self._fold_distinct(st)
            for name, s in st.stats.items():
                stats.setdefault(name, FnStats()).merge(s)
            counts.update(st.counts)
        return stats, counts

    def write_sidecar(self, path, extra: dict) -> None:
        """Write the kept spans and ``extra`` as one JSON document."""
        stats, _ = self.totals()
        total = sum(s.calls for s in stats.values())
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent", "op", "thread"]
        doc["names"] = names
        doc["spans_total"] = total
        doc["spans_dropped"] = total - len(self.spans)
        doc["spans"] = [
            [sid, index[name], round(start, 9), round(end, 9), parent, op, thread]
            for sid, name, start, end, parent, op, thread in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")

"""In-memory span tracer that wraps library functions from outside.

A traced call records one span: name, start, end, parent span, thread id and
op id.  A span opened on a thread with no open span of its own (a worker of a
thread pool) takes as parent the innermost open span of the thread that runs
the current op, so pool work nests under the call that submitted it.

Self time is a span's duration minus the union of its children's intervals,
clipped to the span; children on different threads may overlap each other.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, THREAD, OP = range(6)


@dataclass(frozen=True)
class Target:
    """One function to trace: ``attr`` is a module attribute (``"tensor"``)
    or a method on a module-level class (``"PureState.__post_init__"``).

    ``name`` is the span name, or a function of the call's (args, kwargs)
    that returns it.  ``on_result(tracer, args, kwargs, result)`` may add to
    the tracer's counters.
    """

    module: str
    attr: str
    name: str | Callable
    on_result: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.current_op = None
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._installed: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, stack: list[int]) -> int:
        if stack:
            parent = stack[-1]
        else:
            op_stack = self._op_stack
            parent = op_stack[-1] if op_stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, threading.get_ident(), self.current_op]
            )
        stack.append(sid)
        return sid

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counters[key] += value

    @contextmanager
    def op(self, op_id):
        """Mark the calls made inside the block as belonging to one op."""
        self.current_op = op_id
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self.current_op = None

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans, self.counters = [], Counter()
        return spans, counters

    def wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = tracer._enter(name if isinstance(name, str) else name(args, kwargs), stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[sid][END] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self, targets, package: str) -> None:
        """Replace each target by a traced wrapper.  A module function is
        replaced in every namespace of ``package`` that holds a reference to
        it; a method is replaced on its class.  Targets that do not exist are
        listed in ``missing`` and skipped."""
        self.missing = []
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for t in targets:
            module = sys.modules.get(t.module)
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapped = self.wrap(original, t.name, t.on_result)
            if owner_name:
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        self._installed.append((ns, key, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the span."""
    children = defaultdict(list)
    for sid, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(sid)
    out = []
    for sid, s in enumerate(spans):
        start, end = s[START], s[END]
        intervals = sorted(
            (max(spans[c][START], start), min(spans[c][END], end)) for c in children[sid]
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed self time and summed duration."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s[END] - s[START]
    return out


def write_spans(path, passes) -> None:
    """Write spans as gzipped JSON lines: one header, then one array per span
    ``[pass, id, name, start, end, parent, thread, op]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        f.write(json.dumps({"fields": ["pass", "id", "name", "start", "end", "parent", "thread", "op"]}) + "\n")
        for p, spans in passes:
            for sid, s in enumerate(spans):
                f.write(json.dumps([p, sid, *s]) + "\n")

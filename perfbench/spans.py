"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: around the calls the
benchmark makes itself, and by temporarily replacing a layer entry point in
the module where its caller looks it up.  Untraced runs never create a
Tracer, so they wrap nothing.

Each span keeps its parent id.  Pool threads (``threads=2`` batch runners)
start with an empty span stack, so they take the explicit parent that the
benchmark's own call-site span publishes while it is open.  Self time is a
span's duration minus the *union* of its children's intervals, because the
children of a threaded call overlap in time.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None          # "round:label" of the request being served
        self._worker_parent = None   # explicit parent for spans opened by pool threads
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record one span; yields a dict for counters set by the caller."""
        stack = self._stack()
        parent = stack[-1] if stack else self._worker_parent
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        rec = {"id": sid, "parent": parent, "name": name, "request": self.request,
               "thread": threading.get_ident(), "counters": {}}
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counters"]
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def call(self, name, fn, *args, counters=None, **kwargs):
        """Call-site span around a call the benchmark makes itself.

        While it is open, spans started by pool threads take it as parent.
        """
        with self.span(name) as ctr:
            outer = self._worker_parent
            self._worker_parent = self._stack()[-1]
            try:
                out = fn(*args, **kwargs)
            finally:
                self._worker_parent = outer
            if counters is not None:
                ctr.update(counters(args, kwargs, out))
        return out

    def wrap(self, module, attr, name, counters=None):
        """Replace ``module.attr`` by a spanning wrapper until :meth:`unwrap_all`."""
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            with self.span(name) as ctr:
                out = original(*args, **kwargs)
                if counters is not None:
                    ctr.update(counters(args, kwargs, out))
            return out

        setattr(module, attr, wrapped)
        self._patches.append((module, attr, original))

    def unwrap_all(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path, origin):
        """Write every span, times relative to ``origin``, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                out = dict(rec, start=rec["start"] - origin, end=rec["end"] - origin)
                fh.write(json.dumps(out) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> duration minus the union of its children's (clipped) intervals."""
    children = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append((rec["start"], rec["end"]))
    out = {}
    for rec in spans:
        lo, hi = rec["start"], rec["end"]
        kids = [(max(a, lo), min(b, hi)) for a, b in children[rec["id"]] if b > lo and a < hi]
        out[rec["id"]] = (hi - lo) - _union_length(kids)
    return out


def percentile(values, q):
    """Inclusive linear-interpolation percentile of ``values``, 1 <= q <= 99."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(spans):
    """Per span name: calls, self_s, p50_ms, p99_ms, max_ms and summed counters."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec["name"]].append(rec)
    out = {}
    for name, recs in by_name.items():
        durations = sorted((r["end"] - r["start"]) * 1e3 for r in recs)
        row = {
            "calls": len(recs),
            "self_s": sum(selfs[r["id"]] for r in recs),
            "p50_ms": percentile(durations, 50),
            "p99_ms": percentile(durations, 99),
            "max_ms": durations[-1],
        }
        for r in recs:
            for key, val in r["counters"].items():
                row[key] = row.get(key, 0) + val
        out[name] = row
    return out

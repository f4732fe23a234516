"""Spans recorded by the benchmark around its calls into dsums.

A traced instance keeps its spans in memory and writes them once, at exit,
as CSV rows (run_id, span_id, parent_id, name, start_ns, end_ns, attr).
The orchestrator reads them back and computes self times: a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder; one entry per span in parallel lists."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.attrs: list[int] = []
        self._stack = [-1]

    def _open(self, name: str, attr: int) -> int:
        sid = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.attrs.append(attr)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attr: int = 0):
        sid = self._open(name, attr)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, attr_arg: int | None = None):
        """`fn` with a span around each call; args[attr_arg] goes in `attr`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, args[attr_arg] if attr_arg is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def patch(self, module, attr: str, name: str, attr_arg: int | None = None) -> None:
        """Trace the calls a module makes through one of its global names."""
        setattr(module, attr, self.wrap(name, getattr(module, attr), attr_arg))

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "attr"])
            for sid, name in enumerate(self.names):
                out.writerow([self.run_id, sid, self.parents[sid], name,
                              self.starts[sid], self.ends[sid], self.attrs[sid]])


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    start_ns: int
    end_ns: int
    attr: int
    self_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def load_spans(path: str) -> list[Span]:
    """Spans of one traced instance, with self times filled in."""
    with open(path, newline="") as fh:
        spans = [Span(int(r["span_id"]), int(r["parent_id"]), r["name"], int(r["start_ns"]),
                      int(r["end_ns"]), int(r["attr"])) for r in csv.DictReader(fh)]
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    for s in spans:
        s.self_ns = s.end_ns - s.start_ns - _covered(s, children.get(s.span_id, []))
    return spans


def _covered(span: Span, kids: list[Span]) -> int:
    """Nanoseconds of `span` covered by the union of its children's intervals."""
    total = 0
    cur_lo = cur_hi = None
    for k in sorted(kids, key=lambda k: k.start_ns):
        lo, hi = max(k.start_ns, span.start_ns), min(k.end_ns, span.end_ns)
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def subtree(spans: list[Span], root_name: str) -> list[Span]:
    """The spans below (and including) the spans named `root_name`."""
    inside = {s.span_id for s in spans if s.name == root_name}
    out = []
    for s in spans:  # parents precede children: ids grow in opening order
        if s.span_id in inside or s.parent_id in inside:
            inside.add(s.span_id)
            out.append(s)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    vals = sorted(values)
    rank = max(1, -(-len(vals) * q // 100))
    return vals[int(rank) - 1]

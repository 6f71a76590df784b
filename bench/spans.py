"""Spans recorded around calls into paratower's public functions.

A `Tracer` replaces chosen functions and methods by timing wrappers, in
every module namespace that looks them up, and restores them on `remove`.
Each call records one span: its name, start, end, parent span and an
optional count taken from the result.  Spans stay in memory, in flat
arrays (a compare pass records about half a million), until the per-pass
totals are computed and the spans written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # -1 for a top-level span
        self.count = array("q")
        # 1 when the span runs inside another span of the same name
        self.nested = array("b")
        self.pass_starts: List[int] = []
        self._stack: List[int] = []
        self._open_names: Dict[int, int] = defaultdict(int)
        self._installed: List[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self))

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0)
        self.nested.append(self._open_names[nid] > 0)
        self.end.append(0.0)
        self._open_names[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_names[self.name[idx]] -= 1

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, owners, attr: str, name, count: Optional[Callable] = None) -> None:
        """Trace `attr` of each owner (module or class) under `name`.

        `name` is a string or a function of the call's arguments; `count`
        maps the result to the span's count.
        """
        for owner in owners:
            original = owner.__dict__[attr]
            namer = name if callable(name) else (lambda *a, _n=name, **k: _n)
            setattr(owner, attr, self._wrapper(original, namer, count))
            self._installed.append((owner, attr, original))

    def _wrapper(self, original, namer, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(namer(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.count[idx] = count(result)
            return result

        return traced

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation and output

    def pass_totals(self) -> List[Dict[str, float]]:
        """Per traced pass and span name: '<name>_s', the time inside calls
        not nested in a call of the same name; '<name>_self_s', the time
        minus that of child spans; '<name>_calls'; '<name>_count'."""
        child = [0.0] * len(self)
        for k in range(len(self)):
            if self.parent[k] >= 0:
                child[self.parent[k]] += self.end[k] - self.start[k]
        bounds = self.pass_starts + [len(self)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            totals: Dict[str, float] = defaultdict(float)
            for k in range(lo, hi):
                name = self.names[self.name[k]]
                took = self.end[k] - self.start[k]
                if not self.nested[k]:
                    totals[name + "_s"] += took
                totals[name + "_self_s"] += took - child[k]
                totals[name + "_calls"] += 1
                totals[name + "_count"] += self.count[k]
            out.append(dict(totals))
        return out

    def write_pass(self, fh, number: int = 0) -> None:
        """Write the spans of one traced pass as JSON lines."""
        bounds = self.pass_starts + [len(self)]
        lo, hi = bounds[number], bounds[number + 1]
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "count"]}) + "\n")
        for k in range(lo, hi):
            parent = self.parent[k] - lo if self.parent[k] >= 0 else -1
            fh.write(
                json.dumps(
                    [self.names[self.name[k]], self.start[k], self.end[k], parent, self.count[k]]
                )
                + "\n"
            )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False

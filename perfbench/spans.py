"""In-memory span recorder for the benchmark's traced run.

The traced run wraps public functions of the program from outside —
class attributes and module-level functions — so that every call records
one span ``(id, parent, group, name, t0, t1)``.  Spans nest through a
stack: a span opened while another is open is its child, and a span
opened with the stack empty starts a new *group*, so every span of one
shard or session shares its root's id.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One finished span: (id, parent id or 0, group id, name, start, end).
Span = Tuple[int, int, int, str, float, float]


class SpanRecorder:
    """Collects spans in memory; :meth:`wrap` makes a recording wrapper."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: per-name sums of a wrapped call's result (see ``on_result``)
        self.results: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[int, int]] = []   # (span id, group id)
        self._next_id = 1

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[object], float]] = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span ``name``.

        ``on_result`` maps the call's return value to a number added to
        ``results[name]`` (e.g. events fired, or 1 per refused packet).
        """
        clock = self.clock
        stack = self._stack
        spans = self.spans
        results = self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            if stack:
                parent, group = stack[-1]
            else:
                parent, group = 0, sid
            stack.append((sid, group))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, group, name, t0, t1))
            if on_result is not None:
                results[name] += on_result(out)
            return out

        return traced

    def write(self, path) -> None:
        """Write the spans out, one tab-separated line each, in id order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tgroup\tname\tt0\tt1\n")
            for s in sorted(self.spans):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % s)


def _covered(lo: float, hi: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    covered = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _group, _name, t0, t1 in spans:
        if parent:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
            for sid, _parent, _group, _name, t0, t1 in spans}


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Span name -> (calls, summed self time in seconds)."""
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span[3]] += 1
        self_s[span[3]] += own[span[0]]
    return {name: (calls[name], self_s[name]) for name in calls}


# ----------------------------------------------------------------------
# Installing wrappers on the program
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def defer(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` on :meth:`restore` (for changes not made by :meth:`set`)."""
        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def wrap_method(patches: Patches, rec: SpanRecorder, cls: type, attr: str,
                name: str, on_result=None) -> None:
    """Wrap ``cls.attr`` (plain method or classmethod) in place."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        patches.set(cls, attr, classmethod(rec.wrap(name, raw.__func__, on_result)))
    else:
        patches.set(cls, attr, rec.wrap(name, raw, on_result))


def wrap_function(patches: Patches, rec: SpanRecorder, fn: Callable,
                  name: str) -> None:
    """Wrap a module-level function in every ``repro`` module that binds it.

    Call sites look a function up in their own module's namespace, so a
    name imported with ``from m import f`` must be replaced there too.
    """
    traced = rec.wrap(name, fn)
    for modname, module in sorted(sys.modules.items()):
        if module is None or modname.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.set(module, attr, traced)

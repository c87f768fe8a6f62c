"""Exporters: Chrome trace events, qlog JSON lines, report snapshots.

Three consumers, three formats, one deterministic source of truth:

- :func:`chrome_trace_json` — the Chrome trace-event format (JSON
  object with a ``traceEvents`` array of ``"ph": "X"`` complete
  events), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Each frame's ``trace_id`` becomes the ``tid``,
  so concurrently in-flight frames render as separate named tracks.
- :func:`qlog_lines` — JSON lines in the :mod:`repro.core.qlog` event
  schema (``time``/``category``/``name``/``data``, sorted keys), so
  span completions, MARTP protocol events and a metrics snapshot
  interleave into one chronological stream.
- :func:`snapshot` — a plain dict for :mod:`repro.analysis.report`.

Timestamps in the Chrome export are integer microseconds.  Durations
are differences of *rounded endpoints*, not rounded differences: for
the contiguous stage children of a :class:`~repro.obs.spans.FrameTrace`
the rounding then telescopes, and child durations sum exactly to the
root's — the ±1 µs reconciliation guarantee.

All serialization is canonical (sorted keys, fixed separators): same
``(scenario, seed)`` → byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Tracer

_CANON = {"sort_keys": True, "separators": (",", ":")}


def _us(t: float) -> int:
    """Sim seconds → integer microseconds (the Chrome trace unit)."""
    return int(round(t * 1e6))


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def chrome_trace_events(tracer: Tracer, pid: int = 1,
                        process_name: str = "repro") -> List[dict]:
    """Build the ``traceEvents`` list (metadata + complete events)."""
    events: List[dict] = [{
        "args": {"name": process_name}, "cat": "__metadata",
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0, "ts": 0,
    }]
    named_tids = set()
    for span in tracer.spans:
        if span.parent_id is None and span.trace_id not in named_tids:
            named_tids.add(span.trace_id)
            label = f"frame {span.attrs['frame']}" if "frame" in span.attrs \
                else f"trace {span.trace_id}"
            events.append({
                "args": {"name": label}, "cat": "__metadata",
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": span.trace_id, "ts": 0,
            })
    for span in tracer.spans:
        if not span.finished:
            continue
        args: Dict[str, Any] = dict(sorted(span.attrs.items()))
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "args": args, "cat": span.cat, "dur": _us(span.end) - _us(span.start),
            "name": span.name, "ph": "X", "pid": pid, "tid": span.trace_id,
            "ts": _us(span.start),
        })
    return events


def chrome_trace_json(tracer: Tracer, pid: int = 1,
                      process_name: str = "repro") -> str:
    """Canonical Chrome-trace JSON (Perfetto-loadable), byte-stable."""
    doc = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(tracer, pid, process_name),
    }
    return json.dumps(doc, **_CANON)


def validate_chrome_trace(doc: Any) -> List[str]:
    """Minimal schema check; returns a list of problems (empty = valid).

    Checks the invariants Perfetto's importer actually depends on:
    a ``traceEvents`` array of objects, every event carrying string
    ``name``/``ph`` and integer ``pid``/``tid``/``ts``, and every
    complete (``"X"``) event a non-negative integer ``dur``.
    """
    problems: List[str] = []
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            return [f"not JSON: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["top level must be an object with a 'traceEvents' array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key, kind in (("name", str), ("ph", str)):
            if not isinstance(ev.get(key), kind):
                problems.append(f"event {i}: missing/invalid {key!r}")
        for key in ("pid", "tid", "ts"):
            if not isinstance(ev.get(key), int):
                problems.append(f"event {i}: missing/invalid {key!r}")
        if ev.get("ph") == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"event {i}: 'X' event needs integer dur >= 0")
            if isinstance(ev.get("ts"), int) and ev["ts"] < 0:
                problems.append(f"event {i}: negative ts")
    return problems


def reconcile_frame_spans(tracer: Tracer, tolerance_us: int = 1) -> List[str]:
    """Check the stage-sum-equals-frame invariant; returns problems.

    For every finished frame root, the exported (integer-µs) durations
    of its stage children must sum to the root's duration within
    ``tolerance_us``.  Because :class:`~repro.obs.spans.FrameTrace`
    makes stages contiguous and :func:`chrome_trace_events` rounds
    endpoints (not differences), the telescoping sum is normally exact
    — a failure here means an instrumentation hook opened a gap or
    overlap in the frame timeline.
    """
    problems: List[str] = []
    roots = tracer.frame_roots()
    if not roots:
        return ["no completed frame traces"]
    for root in roots:
        root_dur = _us(root.end) - _us(root.start)
        child_sum = sum(_us(c.end) - _us(c.start)
                        for c in root.children if c.finished)
        if any(not c.finished for c in root.children):
            problems.append(
                f"frame {root.attrs.get('frame')}: unfinished child span")
            continue
        if abs(child_sum - root_dur) > tolerance_us:
            problems.append(
                f"frame {root.attrs.get('frame')}: stage sum {child_sum} µs "
                f"!= frame {root_dur} µs (±{tolerance_us} µs)")
    return problems


# ----------------------------------------------------------------------
# qlog-style JSON lines
# ----------------------------------------------------------------------
def qlog_lines(tracer: Optional[Tracer] = None, log=None,
               registry: Optional[MetricsRegistry] = None) -> str:
    """One chronological qlog-schema stream from all three sources.

    Span completions become ``category="frame"`` records at their end
    time, a :class:`~repro.core.qlog.EventLog`'s protocol events keep
    their categories, and a registry contributes one final
    ``category="metric"`` snapshot record.  Records sort stably by
    time, so the merged stream is deterministic.
    """
    records: List[dict] = []
    if tracer is not None:
        for span in tracer.spans:
            if not span.finished:
                continue
            data = dict(sorted(span.attrs.items()))
            data.update(trace_id=span.trace_id, span_id=span.span_id,
                        start=span.start, duration=span.duration)
            if span.parent_id is not None:
                data["parent_id"] = span.parent_id
            records.append({"time": span.end, "category": "frame",
                            "name": span.name, "data": data})
    last_time = max((r["time"] for r in records), default=0.0)
    if log is not None:
        for event in log.events:
            records.append({"time": event.time, "category": event.category,
                            "name": event.name, "data": event.data})
            last_time = max(last_time, event.time)
        summary = log.summary()
        records.append({"time": last_time, "category": "meta",
                        "name": "log-summary", "data": summary})
    if registry is not None:
        records.append({"time": last_time, "category": "metric",
                        "name": "registry-snapshot",
                        "data": registry.to_dict()})
    records.sort(key=lambda r: r["time"])
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


# ----------------------------------------------------------------------
# Plain-dict snapshot for analysis/report
# ----------------------------------------------------------------------
def snapshot(registry: Optional[MetricsRegistry] = None,
             tracer: Optional[Tracer] = None) -> dict:
    """A report-friendly dict: headline stats, no raw bins or spans."""
    out: Dict[str, Any] = {}
    if registry is not None:
        hists = registry.histograms
        out["counters"] = dict(sorted(registry.counts.items()))
        out["gauges"] = {k: {"mean": m.mean, "count": m.count}
                         for k, m in sorted(registry.moments.items())
                         if k not in hists}
        out["histograms"] = {
            k: {"count": registry.moments[k].count,
                "mean": registry.moments[k].mean,
                "p50": h.p50, "p95": h.p95, "p99": h.p99}
            for k, h in sorted(hists.items())
        }
    if tracer is not None:
        roots = tracer.frame_roots()
        out["frames"] = {
            "traced": len(roots),
            "spans": len(tracer.spans),
            "unfinished": sum(1 for s in tracer.spans if not s.finished),
        }
    return out

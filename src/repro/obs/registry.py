"""The per-run metrics registry: an :class:`Aggregate` with the
``metrics.json`` layout.

No process-wide state: a :class:`MetricsRegistry` belongs to one run
(conventionally one per ``Simulator``), so parallel fleet workers never
share it and two runs of the same ``(scenario, seed)`` build identical
registries.

Recording and merging are :class:`~repro.analysis.stats.Aggregate`'s —
there is one metrics container.  Only the serialized form differs, so
``metrics.json``, the qlog ``registry-snapshot`` record and the selftest
payload keep their layout:

- ``counters`` — the counts;
- ``histograms`` — ``{bins, moments}`` for every histogram, paired with
  the moment of the same name;
- ``gauges`` — every remaining moment.

Serialization (:meth:`MetricsRegistry.to_json`) is canonical — sorted
keys, no whitespace — and
:func:`repro.fleet.aggregate.aggregate_from_registry` copies a registry
into a fleet aggregate under an ``obs.`` prefix.
"""

from __future__ import annotations

from repro.analysis.stats import Aggregate, FixedBinHistogram, StreamingMoments


class MetricsRegistry(Aggregate):
    """One run's metrics; names are dotted paths by convention
    (``link.<name>.bytes_sent``, ``queue.<name>.packets``,
    ``frame.latency``)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        hists = self.histograms
        return {
            "counters": dict(sorted(self.counts.items())),
            "gauges": {k: m.to_dict() for k, m in sorted(self.moments.items())
                       if k not in hists},
            "histograms": {
                k: {"bins": h.to_dict(), "moments": self.moments[k].to_dict()}
                for k, h in sorted(hists.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsRegistry":
        reg = cls()
        reg.counts = {k: int(v) for k, v in d.get("counters", {}).items()}
        reg.moments = {k: StreamingMoments.from_dict(m)
                       for k, m in d.get("gauges", {}).items()}
        for name, hv in d.get("histograms", {}).items():
            reg.histograms[name] = FixedBinHistogram.from_dict(hv["bins"])
            reg.moment(name).merge(StreamingMoments.from_dict(hv["moments"]))
        return reg

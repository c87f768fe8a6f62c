"""Mergeable streaming statistics for campaign shards.

A fleet worker must return an **O(1)-sized summary** of its shard, not
raw traces: a 10,000-seed campaign with per-message latency lists would
move gigabytes through the result queue.  The summary is an
:class:`Aggregate` — named integer counts, :class:`StreamingMoments`
(Welford count/mean/M2 plus min/max, merged with the Chan, Golub &
LeVeque parallel formula) and :class:`FixedBinHistogram` (fixed bins
merged by exact integer addition, p50/p95/p99 read off the cumulative
counts).  All three are defined in :mod:`repro.analysis.stats` (sim
domain) and re-exported here; the observability layer's
:class:`~repro.obs.registry.MetricsRegistry` is the same container with
its own serialized layout, so :func:`aggregate_from_registry` is a
prefixing copy, not a translation.

Determinism contract: serial and parallel campaign runs both compute
one :class:`Aggregate` per shard and merge them **in shard-index
order**, so the merged result — and any report rendered from it — is
byte-identical regardless of worker count or completion order.
Serialization (:meth:`Aggregate.to_json`) is canonical (sorted keys,
no whitespace), making the byte-equality testable and the on-disk
cache format stable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import Aggregate, FixedBinHistogram, StreamingMoments


def approx_equal_moments(a: StreamingMoments, b: StreamingMoments,
                         rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Merge-vs-onepass equality: exact on count/min/max, tolerant on
    the float accumulators (merging reassociates the sums)."""
    if a.count != b.count:
        return False
    if a.count == 0:
        return True
    return (a.minimum == b.minimum and a.maximum == b.maximum
            and math.isclose(a.mean, b.mean, rel_tol=rel, abs_tol=abs_tol)
            and math.isclose(a.m2, b.m2, rel_tol=rel, abs_tol=max(abs_tol, rel * a.count)))


class OrderedReducer:
    """Streaming index-order merge of per-shard aggregates.

    The fleet determinism contract requires merging shard aggregates in
    **shard-index order** (float merges reassociate, so order changes
    bytes).  A parallel runner, however, completes shards in arbitrary
    order.  This reducer reconciles the two: results are *offered* as
    they arrive, buffered only while an earlier index is outstanding,
    and merged — into the campaign-wide aggregate and the shard's
    per-point aggregate — the moment they become the next in-order
    index.  Memory is bounded by the out-of-order window (tracked in
    :attr:`max_buffered`), not the campaign size, and there is no
    end-of-run merge barrier.

    Quarantined shards are holes in the index sequence: mark them with
    ``offer(index, None)`` so the merge front can advance past them.
    """

    __slots__ = ("_labels", "_next", "_buffer", "_offered",
                 "aggregate", "per_point", "max_buffered")

    def __init__(self, point_labels: Sequence[str]) -> None:
        #: index -> grid-point label, in shard order
        self._labels = list(point_labels)
        self._next = 0
        self._buffer: Dict[int, Optional[Aggregate]] = {}
        self._offered: set = set()
        self.aggregate = Aggregate()
        #: insertion-ordered by first merged index = grid-point order
        self.per_point: Dict[str, Aggregate] = {}
        self.max_buffered = 0

    def offer(self, index: int, agg: Optional[Aggregate]) -> None:
        """Feed one shard's aggregate (or ``None`` for a skipped shard)."""
        if not 0 <= index < len(self._labels):
            raise IndexError(f"shard index {index} out of range")
        if index < self._next or index in self._buffer:
            raise ValueError(f"shard index {index} offered twice")
        self._offered.add(index)
        self._buffer[index] = agg
        self.max_buffered = max(self.max_buffered, len(self._buffer))
        while self._next in self._buffer:
            ready = self._buffer.pop(self._next)
            if ready is not None:
                self.aggregate.merge(ready)
                label = self._labels[self._next]
                point = self.per_point.get(label)
                if point is None:
                    self.per_point[label] = Aggregate().merge(ready)
                else:
                    point.merge(ready)
            self._next += 1

    @property
    def merged_through(self) -> int:
        """Number of leading indices already folded into the totals."""
        return self._next

    @property
    def pending(self) -> int:
        """Results buffered while an earlier index is outstanding."""
        return len(self._buffer)

    def finish(self) -> "Aggregate":
        """Assert every index was offered and return the final merge."""
        missing = [i for i in range(len(self._labels))
                   if i not in self._offered]
        if missing:
            raise ValueError(
                f"reducer finished with unmerged shard indices {missing[:5]}"
                f"{'…' if len(missing) > 5 else ''}")
        return self.aggregate


def aggregate_from_registry(registry: Aggregate,
                            prefix: str = "obs") -> Aggregate:
    """Copy a :class:`repro.obs.registry.MetricsRegistry` (or any
    :class:`Aggregate`) into a plain Aggregate under ``<prefix>.``, so
    registry-derived metrics never collide with a scenario's own keys.
    """
    agg = Aggregate()
    for name, n in registry.counts.items():
        agg.counts[f"{prefix}.{name}"] = n
    for name, m in registry.moments.items():
        agg.moments[f"{prefix}.{name}"] = StreamingMoments().merge(m)
    for name, h in registry.histograms.items():
        agg.histograms[f"{prefix}.{name}"] = FixedBinHistogram.from_dict(
            h.to_dict())
    return agg


__all__: List[str] = [
    "StreamingMoments",
    "FixedBinHistogram",
    "Aggregate",
    "OrderedReducer",
    "aggregate_from_registry",
    "approx_equal_moments",
]

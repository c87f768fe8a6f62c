"""Periodic instrumentation: queue occupancy and link utilization.

Benchmarks mostly measure end-to-end observables; when a result needs
explaining ("where did the latency come from?"), these monitors sample
the inside of the network on a fixed tick:

- :class:`QueueMonitor` — samples a queue's depth (packets and bytes),
  yielding occupancy time series and peak/mean statistics — the direct
  view of bufferbloat.
- :class:`LinkMonitor` — samples a link's cumulative counters into
  per-interval throughput and utilization series.

Both monitors are bounded: pass ``horizon`` to stop ticking at a known
scenario end, or call :meth:`stop` — without one of these a monitor
would keep the event heap non-empty forever, so ``sim.run()`` with no
``until`` would never drain.  Samples can additionally feed a
:class:`~repro.obs.registry.MetricsRegistry` or any other
:class:`~repro.analysis.stats.Aggregate` (``registry=``), putting queue
depth and link utilization on the same mergeable export path as every
other metric.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.queues import QueueDiscipline


class QueueMonitor:
    """Samples a queue's occupancy every ``interval`` seconds.

    Parameters
    ----------
    horizon:
        If given, the last tick at or before this sim time is the final
        one — the monitor then stops rescheduling and lets the heap
        drain.
    registry:
        Optional metrics registry; each tick also feeds
        ``queue.<name>.packets`` (histogram) and ``queue.<name>.bytes``
        (gauge).
    name:
        Instrument-name component when ``registry`` is used.
    """

    def __init__(self, sim: Simulator, queue: QueueDiscipline,
                 interval: float = 0.05, horizon: Optional[float] = None,
                 registry=None, name: str = "queue") -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.queue = queue
        self.interval = interval
        self.horizon = horizon
        self.name = name
        self.samples: List[Tuple[float, int, int]] = []   # (t, pkts, bytes)
        self._stopped = False
        self._hist = None
        if registry is not None:
            self._hist = registry.histogram(f"queue.{name}.packets",
                                            0.0, 256.0, 256)
            self._hist_moments = registry.moment(f"queue.{name}.packets")
            self._gauge = registry.moment(f"queue.{name}.bytes")
        sim.schedule(0.0, self._tick)

    def stop(self) -> None:
        """Stop sampling; the pending tick becomes a no-op."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        pkts = len(self.queue)
        nbytes = self.queue.backlog_bytes
        self.samples.append((self.sim.now, pkts, nbytes))
        if self._hist is not None:
            self._hist.add(float(pkts))
            self._hist_moments.add(float(pkts))
            self._gauge.add(float(nbytes))
        if self.horizon is not None and self.sim.now + self.interval > self.horizon:
            return
        self.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    def peak_packets(self) -> int:
        return max((p for _, p, _ in self.samples), default=0)

    def mean_packets(self) -> float:
        if not self.samples:
            return 0.0
        return sum(p for _, p, _ in self.samples) / len(self.samples)

    def mean_queuing_delay(self, drain_rate_bps: float) -> float:
        """Average queueing delay implied by occupancy at a drain rate."""
        if not self.samples or drain_rate_bps <= 0:
            return 0.0
        mean_bytes = sum(b for _, _, b in self.samples) / len(self.samples)
        return mean_bytes * 8 / drain_rate_bps

    def occupancy_series(self) -> List[Tuple[float, int]]:
        return [(t, p) for t, p, _ in self.samples]


class LinkMonitor:
    """Derives per-interval throughput/utilization from a link's counters.

    Accepts the same ``horizon``/``registry`` bounds as
    :class:`QueueMonitor`; registry ticks feed
    ``link.<name>.tick_utilization`` (histogram of per-tick samples,
    distinct from the whole-run ``link.<name>.utilization`` gauge that
    :func:`repro.obs.instrument.collect_links` records) and
    ``link.<name>.throughput_bps`` (gauge).
    """

    def __init__(self, sim: Simulator, link: Link, interval: float = 0.5,
                 horizon: Optional[float] = None, registry=None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.link = link
        self.interval = interval
        self.horizon = horizon
        self.samples: List[Tuple[float, float, float]] = []  # (t, bps, util)
        self._last_bytes = link.bytes_sent
        self._stopped = False
        self._hist = None
        if registry is not None:
            key = f"link.{link.name}.tick_utilization"
            self._hist = registry.histogram(key, 0.0, 1.0, 100)
            self._hist_moments = registry.moment(key)
            self._gauge = registry.moment(f"link.{link.name}.throughput_bps")
        sim.schedule(interval, self._tick)

    def stop(self) -> None:
        """Stop sampling; the pending tick becomes a no-op."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        delta = self.link.bytes_sent - self._last_bytes
        self._last_bytes = self.link.bytes_sent
        bps = delta * 8 / self.interval
        utilization = min(1.0, bps / self.link.rate_bps) if self.link.rate_bps else 0.0
        self.samples.append((self.sim.now, bps, utilization))
        if self._hist is not None:
            self._hist.add(utilization)
            self._hist_moments.add(utilization)
            self._gauge.add(bps)
        if self.horizon is not None and self.sim.now + self.interval > self.horizon:
            return
        self.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    def mean_utilization(self) -> float:
        if not self.samples:
            return 0.0
        return sum(u for _, _, u in self.samples) / len(self.samples)

    def peak_throughput_bps(self) -> float:
        return max((bps for _, bps, _ in self.samples), default=0.0)

    def throughput_series(self) -> List[Tuple[float, float]]:
        return [(t, bps) for t, bps, _ in self.samples]

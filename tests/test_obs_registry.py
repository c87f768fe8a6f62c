"""Tests for the per-Simulator metrics registry.

A :class:`MetricsRegistry` is an :class:`Aggregate` with the
``metrics.json`` layout.  The property that matters for the fleet:
merging per-shard registries must be **order-independent** — exact for
counters and histogram bins, up to float reassociation for the Welford
moments — because parallel campaign shards complete in nondeterministic
order while the merged report must stay byte-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import (
    Aggregate,
    aggregate_from_registry,
    approx_equal_moments,
)
from repro.obs import run_obs_scenario
from repro.obs.registry import MetricsRegistry

finite = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
chunks = st.lists(st.lists(finite, min_size=1, max_size=20),
                  min_size=1, max_size=6)


def fill(reg: MetricsRegistry, values) -> MetricsRegistry:
    for v in values:
        reg.count("events")
        reg.moment("depth").add(v)
        reg.histogram("latency", 0.0, 100.0, 50).add(v)
        reg.moment("latency").add(v)
    return reg


class TestPrimitives:
    def test_counter_inc_and_negative_rejected(self):
        reg = MetricsRegistry()
        reg.count("frames")
        reg.count("frames", 4)
        assert reg.counts["frames"] == 5
        with pytest.raises(ValueError):
            reg.count("frames", -1)

    def test_counter_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        reg.count("x")
        reg.count("x")
        assert list(reg.counts) == ["x"]
        assert reg.moment("y") is reg.moment("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_gauge_tracks_moments(self):
        reg = MetricsRegistry()
        g = reg.moment("queue.bytes")
        for v in (10.0, 30.0, 20.0):
            g.add(v)
        assert g.count == 3
        assert g.maximum == 30.0
        assert reg.to_dict()["gauges"]["queue.bytes"] == g.to_dict()

    def test_histogram_percentiles_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", 0.0, 1.0, 100)
        m = reg.moment("latency")
        for i in range(100):
            h.add(i / 100.0)
            m.add(i / 100.0)
        assert m.count == 100
        assert m.mean == pytest.approx(0.495, abs=0.01)
        assert h.percentile(50) == pytest.approx(0.5, abs=0.02)
        assert h.percentile(95) == pytest.approx(0.95, abs=0.02)


class TestMergeOrderIndependence:
    @given(chunks)
    @settings(max_examples=100)
    def test_merge_matches_onepass(self, parts):
        onepass = fill(MetricsRegistry(), [v for part in parts for v in part])
        merged = MetricsRegistry.merged(fill(MetricsRegistry(), part)
                                        for part in parts)
        assert merged.counts["events"] == onepass.counts["events"]
        assert merged.histograms["latency"].bins == \
            onepass.histograms["latency"].bins
        assert approx_equal_moments(merged.moments["latency"],
                                    onepass.moments["latency"])
        assert approx_equal_moments(merged.moments["depth"],
                                    onepass.moments["depth"])

    @given(chunks)
    @settings(max_examples=100)
    def test_reversed_merge_is_order_independent(self, parts):
        """Reversing the merge order must not change the result —
        exactly for counters and bins, up to float reassociation for
        moments (which is why the fleet still merges shards in index
        order before serializing).  Gauges are moments only, with no
        last-written value, precisely so this holds.
        """
        forward = MetricsRegistry.merged(fill(MetricsRegistry(), part)
                                         for part in parts)
        reverse = MetricsRegistry.merged(fill(MetricsRegistry(), part)
                                         for part in reversed(parts))
        assert forward.counts["events"] == reverse.counts["events"]
        assert forward.histograms["latency"] == \
            reverse.histograms["latency"]
        assert approx_equal_moments(forward.moments["latency"],
                                    reverse.moments["latency"])
        assert approx_equal_moments(forward.moments["depth"],
                                    reverse.moments["depth"])

    @given(chunks)
    @settings(max_examples=50)
    def test_aggregate_lift_is_order_independent(self, parts):
        """Registries lifted into fleet Aggregates merge the same way."""
        def lift(ordered):
            agg = Aggregate()
            for part in ordered:
                agg.merge(aggregate_from_registry(
                    fill(MetricsRegistry(), part)))
            return agg

        forward, reverse = lift(parts), lift(list(reversed(parts)))
        assert forward.counts == reverse.counts
        assert forward.histograms["obs.latency"].bins == \
            reverse.histograms["obs.latency"].bins
        assert approx_equal_moments(forward.moments["obs.latency"],
                                    reverse.moments["obs.latency"])


class TestSerialization:
    def test_json_round_trip(self):
        reg = fill(MetricsRegistry(), [1.0, 2.0, 50.0])
        clone = MetricsRegistry.from_json(reg.to_json())
        assert clone == reg
        assert clone.to_json() == reg.to_json()

    def test_canonical_json_is_byte_stable(self):
        a = fill(MetricsRegistry(), [3.0, 1.0])
        b = fill(MetricsRegistry(), [3.0, 1.0])
        assert a.to_json() == b.to_json()

    def test_merged_registry_round_trips_through_aggregate(self):
        reg = fill(MetricsRegistry(), [5.0, 15.0, 25.0])
        agg = aggregate_from_registry(reg)
        assert agg.counts["obs.events"] == 3
        assert agg.histograms["obs.latency"].total == 3
        # Lifted histogram preserves binning, so percentiles agree.
        assert agg.histograms["obs.latency"].p50 == \
            pytest.approx(reg.histograms["latency"].percentile(50))


class TestObservedRunLift:
    def test_link_tick_histogram_and_run_gauge_stay_apart(self):
        """The LinkMonitor's per-tick utilization histogram and the
        whole-run utilization gauge from collect_links must land on
        different keys: in one container a shared name would fold the
        gauge's single value into the histogram's moment."""
        run = run_obs_scenario("cell_offload", seed=11, frames=30)
        lifted = aggregate_from_registry(run.registry)
        for name, hist in lifted.histograms.items():
            assert lifted.moments[name].count == hist.total, name
        uplink = "obs.link.server<->client:up"
        ticks = lifted.histograms[f"{uplink}.tick_utilization"].total
        assert ticks > 1
        assert lifted.moments[f"{uplink}.tick_utilization"].count == ticks
        assert lifted.moments[f"{uplink}.utilization"].count == 1

"""Fluid background population model: determinism, aggregation, merge."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import Aggregate, approx_equal_moments
from repro.scale.population import (
    CellProcess,
    CellSpec,
    profile_by_name,
    run_cell,
)
from repro.simnet.engine import Simulator


def make_spec(cell_id=0, load=0.8, profile="LTE", dt=0.5, **kwargs):
    p = profile_by_name(profile)
    capacity = p.up_mean * 4.0
    capacity_users = capacity / 2e5
    defaults = dict(
        cell_id=cell_id,
        profile=profile,
        initial_users=load * capacity_users,
        arrival_rate=load * capacity_users / 30.0,
        mean_holding=30.0,
        demand_up_bps=2e5,
        capacity_up_bps=capacity,
        dt=dt,
    )
    defaults.update(kwargs)
    return CellSpec(**defaults)


class TestCellSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(dt=0.0)
        with pytest.raises(ValueError):
            make_spec(mean_holding=0.0)
        with pytest.raises(ValueError):
            make_spec(capacity_up_bps=0.0)

    def test_capacity_users(self):
        spec = make_spec()
        assert spec.capacity_users == pytest.approx(
            spec.capacity_up_bps / spec.demand_up_bps)

    def test_unknown_profile_raises(self):
        spec = make_spec(profile="LTE")
        object.__setattr__(spec, "profile", "nope")
        with pytest.raises(KeyError):
            profile_by_name("nope")


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        a = run_cell(make_spec(), seed=5, duration=60.0)
        b = run_cell(make_spec(), seed=5, duration=60.0)
        assert a.timeline.samples == b.timeline.samples
        assert a.aggregate().to_json() == b.aggregate().to_json()

    def test_different_seed_different_timeline(self):
        a = run_cell(make_spec(), seed=5, duration=60.0)
        b = run_cell(make_spec(), seed=6, duration=60.0)
        assert a.timeline.samples != b.timeline.samples

    def test_cells_independent_of_simulator_sharing(self):
        # A cell's draws come from child_rng(f"scale.cell.{id}"), so its
        # trajectory must not depend on which other cells share the sim.
        alone = run_cell(make_spec(cell_id=3), seed=9, duration=30.0)
        sim = Simulator(seed=9)
        p_other = CellProcess(sim, make_spec(cell_id=1))
        p_three = CellProcess(sim, make_spec(cell_id=3))
        sim.run(until=30.0)
        assert p_three.timeline.samples == alone.timeline.samples
        assert p_other.timeline.samples != p_three.timeline.samples


class TestTimeline:
    def test_accounting_integrals(self):
        process = run_cell(make_spec(load=1.3), seed=2, duration=120.0)
        tl = process.timeline
        assert tl.user_seconds > 0
        assert tl.arrivals > 0
        assert tl.distinct_users >= int(tl.spec.initial_users)
        assert 0.0 <= tl.service_fraction <= 1.0
        # overloaded cell must shed something
        assert tl.blocked_user_seconds > 0
        assert tl.service_fraction < 1.0

    def test_zero_load_cell_is_flat(self):
        spec = make_spec(load=0.0, burstiness=0.0, diurnal_amplitude=0.0)
        tl = run_cell(spec, seed=4, duration=30.0).timeline
        assert all(rho == 0.0 for _t, _n, rho in tl.samples)
        assert tl.service_fraction == 1.0
        assert tl.mean_utilization(0.0, 30.0) == 0.0

    def test_window_and_utilization_at(self):
        tl = run_cell(make_spec(), seed=7, duration=20.0).timeline
        t_mid, _n, rho_mid = tl.samples[len(tl.samples) // 2]
        assert tl.utilization_at(t_mid) == rho_mid
        window = tl.window(t_mid, t_mid + 5.0)
        assert window[0] == (t_mid, rho_mid)
        assert all(t_mid <= t < t_mid + 5.0 for t, _ in window)
        # piecewise-constant mean sits inside the sample range
        rhos = [r for _t, r in window]
        assert min(rhos) <= tl.mean_utilization(t_mid, t_mid + 5.0) <= max(rhos)

    def test_mar_ready_fraction_bounds(self):
        quiet = run_cell(make_spec(profile="5G(KPI)", load=0.0,
                                   burstiness=0.0, diurnal_amplitude=0.0),
                         seed=1, duration=20.0)
        busy = run_cell(make_spec(profile="5G(KPI)", load=1.4),
                        seed=1, duration=20.0)
        assert quiet.timeline.mar_ready_fraction() == 1.0
        assert 0.0 <= busy.timeline.mar_ready_fraction() \
            <= quiet.timeline.mar_ready_fraction()


class TestAggregation:
    def test_aggregate_keys(self):
        agg = run_cell(make_spec(), seed=3, duration=60.0).aggregate()
        assert agg.counts["scale.cells"] == 1
        assert agg.counts["scale.users"] > 0
        assert agg.counts["obs.scale.cells"] == 1
        assert agg.counts["obs.scale.users"] == agg.counts["scale.users"]
        assert "scale.utilization" in agg.moments
        assert "obs.scale.utilization" in agg.histograms
        assert agg.moments["scale.utilization"].count == len(
            agg.histograms["obs.scale.utilization"].bins) \
            or agg.moments["scale.utilization"].count > 0

    def test_registry_feed_counts_match_timeline(self):
        process = run_cell(make_spec(load=1.2), seed=8, duration=60.0)
        counts = process.aggregate().counts
        tl = process.timeline
        assert counts["obs.scale.fluid_steps"] == len(tl.samples)
        assert counts["obs.scale.users"] == tl.distinct_users
        contended = counts["obs.scale.contended_samples"]
        overloaded = counts["obs.scale.overloaded_samples"]
        assert 0 <= overloaded <= contended <= len(tl.samples)

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=6),
           order_seed=st.integers(0, 2**16))
    def test_cell_aggregates_merge_order_independently(self, seeds, order_seed):
        """The hypothesis property the hierarchical shard map relies on:
        merging per-cell fluid aggregates in any order gives identical
        counts/histograms and float-tolerant-identical moments."""
        aggs = [run_cell(make_spec(cell_id=i), seed=s, duration=20.0).aggregate()
                for i, s in enumerate(seeds)]

        forward = Aggregate()
        for a in aggs:
            forward.merge(a)
        shuffled = list(aggs)
        random.Random(order_seed).shuffle(shuffled)
        other = Aggregate()
        for a in shuffled:
            other.merge(a)

        assert forward.counts == other.counts
        assert forward.histograms.keys() == other.histograms.keys()
        for name in forward.histograms:
            assert forward.histograms[name].bins == other.histograms[name].bins
        assert forward.moments.keys() == other.moments.keys()
        for name in forward.moments:
            assert approx_equal_moments(forward.moments[name],
                                        other.moments[name])

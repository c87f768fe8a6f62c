"""The benchmark's four workloads, driven only through public entry points.

Each workload has a ``setup(seed, workdir)`` that pays every one-off cost
a user pays once per process (imports, building the scenario or campaign,
lazy imports, filling a cache) and returns a :class:`Prepared`.
One call of ``run(workers, telemetry=None)`` is one timed repetition at
the workload's fixed input size; it returns an :class:`Outcome` carrying
the digest the output check compares.  Everything a workload writes goes
under ``workdir``, which the caller removes.

Why each workload exists (see README.md for the layer each one isolates):

- ``martp_session`` — one long MARTP session in one process: the
  per-message chain (engine, link, UDP socket, MARTP sender/receiver,
  qlog) does almost all the work; fleet and scale are bypassed.
- ``fleet_cell`` — the ``cell256`` campaign (4 RTTs x 64 seeds of 1 s
  sessions) run cold into a fresh result cache: the same per-message
  stack cut into 256 short sessions, so per-shard build, aggregate
  collection, pickling, cache writes and pool dispatch all show.
- ``city_campaign`` — ``city_coverage`` at the ``small`` budget (128
  cells): the fluid tier dominates; per-message code runs only in the
  short pressured and promoted sessions.
- ``fleet_rerun`` — a 4,000-shard campaign whose every shard is already
  cached: no simulation, only cache reads, aggregate decoding and the
  ordered merge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Callable, Dict

from spans import wrap_function, wrap_method

#: Pool size of the pooled workloads (capped by the usable CPUs).
POOL_WORKERS = 2

#: MARTP session length in frames (30 frames per simulated second).
MARTP_FRAMES = 1800

#: Seeds per RTT point of the re-read campaign (4 points -> 4,000 shards).
RERUN_SEEDS = 1000


@dataclasses.dataclass
class Outcome:
    """What one timed repetition produced."""

    digest: str
    attempted: int
    failed: int
    #: a campaign's result, for the traced run's per-layer counts
    result: object = None


@dataclasses.dataclass
class Prepared:
    """A set-up workload: ``run(workers, telemetry)`` is one repetition."""

    run: Callable[..., Outcome]
    campaign: object = None
    #: processes that do the timed work, so the calibration runs on as
    #: many cores (README.md: "Raw or normalised timings")
    cores: int = 1


def sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def pool_workers() -> int:
    from repro.fleet.workers import usable_cpus

    return max(1, min(POOL_WORKERS, usable_cpus()))


def campaign_outcome(result, *extra: str) -> Outcome:
    """Digest of the merged aggregate (+ extra parts); quarantines fail."""
    failed = sum(1 for o in result.outcomes if o.status != "ok")
    return Outcome(sha256(result.aggregate.to_json(), *extra),
                   attempted=len(result.outcomes), failed=failed,
                   result=result)


# ----------------------------------------------------------------------
def setup_martp_session(seed: int, workdir: pathlib.Path) -> Prepared:
    import repro.core  # noqa: F401  (the runner imports it on first call)
    from repro.obs.runner import run_obs_scenario

    def run(workers: int, telemetry=None) -> Outcome:
        obs = run_obs_scenario("martp_session", seed, MARTP_FRAMES)
        digest = sha256(json.dumps(obs.summary, sort_keys=True),
                        obs.registry.to_json())
        return Outcome(digest, attempted=1, failed=0)

    return Prepared(run)


def setup_fleet_cell(seed: int, workdir: pathlib.Path) -> Prepared:
    from repro.fleet.cache import ResultCache
    from repro.fleet.scenarios import demo_campaigns
    from repro.fleet.workers import run_campaign

    campaign = dataclasses.replace(demo_campaigns()["cell256"], base_seed=seed)
    campaign.fingerprint()
    counter = [0]

    def run(workers: int, telemetry=None) -> Outcome:
        counter[0] += 1
        result = run_campaign(
            campaign, workers=workers, telemetry=telemetry,
            cache=ResultCache(workdir / f"cell-cache-{counter[0]}"))
        out = campaign_outcome(result)
        if result.cache_misses != campaign.n_shards:
            out.failed += campaign.n_shards - result.cache_misses
        return out

    return Prepared(run, campaign, cores=pool_workers())


def setup_city_campaign(seed: int, workdir: pathlib.Path) -> Prepared:
    # A city shard's first promotion imports repro.edge (and with it
    # scipy.optimize); importing it here, before the pool forks, keeps
    # that one-off cost in set-up for the main process and every worker.
    import repro.edge  # noqa: F401
    from repro.fleet.workers import run_campaign
    from repro.scale.shards import city_coverage_campaign, city_users

    campaign = city_coverage_campaign("small", city_seed=seed, base_seed=seed)
    campaign.fingerprint()

    def run(workers: int, telemetry=None) -> Outcome:
        result = run_campaign(campaign, workers=workers, telemetry=telemetry)
        return campaign_outcome(result, str(city_users(result.aggregate)))

    return Prepared(run, campaign, cores=pool_workers())


def setup_fleet_rerun(seed: int, workdir: pathlib.Path) -> Prepared:
    from repro.fleet.cache import ResultCache
    from repro.fleet.scenarios import demo_campaigns
    from repro.fleet.workers import run_campaign

    # The smoke sweep's cheap 1-frame shards, many of them: re-reading
    # is the whole workload, so the count, not the shard, sets its size.
    campaign = dataclasses.replace(
        demo_campaigns()["smoke"], name="smoke_rerun", seeds=RERUN_SEEDS,
        base_seed=seed, params={"n_frames": 1})
    root = workdir / "rerun-cache"
    filled = campaign_outcome(run_campaign(
        campaign, workers=pool_workers(), cache=ResultCache(root)))
    if filled.failed:
        raise RuntimeError(f"filling the rerun cache failed "
                           f"{filled.failed} shards")

    def run(workers: int, telemetry=None) -> Outcome:
        result = run_campaign(campaign, workers=workers, telemetry=telemetry,
                              cache=ResultCache(root))
        out = campaign_outcome(result)
        if result.cache_hits != campaign.n_shards:
            out.failed += campaign.n_shards - result.cache_hits
        if out.digest != filled.digest:
            out.failed += 1
        return out

    return Prepared(run, campaign)


WORKLOADS: Dict[str, Callable[[int, pathlib.Path], Prepared]] = {
    "martp_session": setup_martp_session,
    "fleet_cell": setup_fleet_cell,
    "city_campaign": setup_city_campaign,
    "fleet_rerun": setup_fleet_rerun,
}


# ----------------------------------------------------------------------
# Traced run: which public functions are wrapped, under which span name
# ----------------------------------------------------------------------
def install_tracing(patches, rec, campaign=None) -> None:
    """Wrap the layer entry points named in README.md's layer table."""
    from repro.core.degradation import DegradationController
    from repro.core.protocol import MartpSender
    from repro.core.qlog import EventLog
    from repro.core.scheduler import MultipathScheduler
    from repro.core.session import OffloadSession, ScenarioBuilder
    from repro.fleet import aggregate as fleet_aggregate
    from repro.fleet.aggregate import Aggregate
    from repro.fleet.cache import ResultCache
    from repro.fleet.campaign import Campaign, get_scenario, register_scenario
    from repro.mar.offload import OffloadExecutor
    from repro.obs import instrument
    from repro.scale import coupling, population
    from repro.simnet.engine import Simulator
    from repro.simnet.link import Link
    from repro.transport.udp import UdpSocket

    methods = [
        (Simulator, "run", "simnet.run", float),
        (Link, "send", "simnet.link.send", lambda ok: 0.0 if ok else 1.0),
        (UdpSocket, "sendto", "transport.udp.sendto", None),
        (MartpSender, "submit", "core.martp.submit", None),
        (MultipathScheduler, "select", "core.scheduler.select", None),
        (DegradationController, "allocate", "core.degradation.allocate", None),
        (EventLog, "emit", "core.qlog.emit", None),
        (ScenarioBuilder, "single_path", "core.session.build", None),
        (OffloadSession, "__init__", "core.session.build", None),
        (OffloadSession, "run", "core.session.run", None),
        (OffloadExecutor, "for_cell", "mar.for_cell", None),
        (OffloadExecutor, "run", "mar.offload.run", None),
        (population.CellProcess, "aggregate", "scale.cell_aggregate", None),
        (population.CellTimeline, "mar_ready_fraction", "scale.mar_ready", None),
        (Aggregate, "from_json", "fleet.decode", None),
        (Aggregate, "to_json", "fleet.encode", None),
        (Aggregate, "merge", "fleet.merge", None),
        (ResultCache, "get", "fleet.cache.get", None),
        (ResultCache, "put", "fleet.cache.put", None),
        (Campaign, "fingerprint", "fleet.fingerprint", None),
    ]
    for cls, attr, name, on_result in methods:
        wrap_method(patches, rec, cls, attr, name, on_result)
    for fn, name in [
        (instrument.collect_martp, "obs.collect"),
        (instrument.collect_links, "obs.collect"),
        (fleet_aggregate.aggregate_from_registry, "obs.lift"),
        (population.run_cell, "scale.run_cell"),
        (coupling.run_pressured_session, "scale.pressured_session"),
        (coupling.promote_user, "scale.promote"),
    ]:
        wrap_function(patches, rec, fn, name)

    if campaign is not None:
        # One root span per shard, so all in-shard spans share its group.
        # Re-registering under the same name and version leaves the
        # campaign fingerprint unchanged.
        sdef = get_scenario(campaign.scenario)

        def reregister(fn):
            register_scenario(sdef.name, sdef.version,
                              latency_key=sdef.latency_key,
                              rate_key=sdef.rate_key,
                              moment_keys=sdef.moment_keys,
                              cost_hint=sdef.cost_hint)(fn)

        reregister(rec.wrap("fleet.shard", sdef.fn))
        patches.defer(lambda: reregister(sdef.fn))

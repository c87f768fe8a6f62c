"""Golden bytes: metric artifacts must not drift from one commit to the next.

Other determinism tests compare two runs of the same code.  These pin
recorded sha256 values of a metrics registry, a qlog stream, a fleet
shard aggregate and a city-cell aggregate, so a refactor of the
recording or serialization path that changes a single byte fails here.
Regenerate a value only together with a documented schema or
scenario-version change.
"""

import hashlib

from repro.fleet.scenarios import run_cell_offload
from repro.obs import qlog_lines, run_obs_scenario
from repro.scale.population import CellSpec, run_cell

MARTP_REGISTRY_SHA = \
    "6a04bc8c1230acec95e8e2c4ca0a8c4d27c1c652c1af497e22e92c9f7acfb9b4"
MARTP_QLOG_SHA = \
    "e81df23954ba2fe811eb8e7ab2efa1179322640f38e198971c30ef9896044386"
CELL_OFFLOAD_SHARD_SHA = \
    "7b2c781effd8e8633dc7cb50fe16c29c931819d8d44409fd32a43ed35936b54a"
CITY_CELL_SHA = \
    "470e67b8c415b1b2c025a186fae889ac465a19310156ea26532b7c59730949b7"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_martp_session_registry_and_qlog_bytes():
    run = run_obs_scenario("martp_session", 5, 30)
    assert sha256(run.registry.to_json()) == MARTP_REGISTRY_SHA
    qlog = qlog_lines(tracer=run.tracer, log=run.event_log,
                      registry=run.registry)
    assert sha256(qlog) == MARTP_QLOG_SHA


def test_cell_offload_shard_aggregate_bytes():
    agg = run_cell_offload(3, {"duration": 1.0})
    assert sha256(agg.to_json()) == CELL_OFFLOAD_SHARD_SHA


def test_city_cell_aggregate_bytes():
    spec = CellSpec(cell_id=4, profile="LTE", initial_users=200.0,
                    arrival_rate=8.0, mean_holding=30.0,
                    demand_up_bps=2e5, capacity_up_bps=4e7)
    agg = run_cell(spec, seed=9, duration=60.0).aggregate()
    assert sha256(agg.to_json()) == CITY_CELL_SHA

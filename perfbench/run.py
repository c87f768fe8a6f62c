#!/usr/bin/env python3
"""Benchmark harness: run one workload, check its outputs, print its metrics.

Usage (from the root of a repository checkout)::

    python3 perfbench/run.py --workload martp_session --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  The run
starts ``SETUPS`` fresh processes one after another; each pays the
workload's whole set-up (imports, campaign build, lazy imports, cache
fill) and then repeats the workload for ``--seconds / SETUPS`` seconds.
``setup_s`` and ``peak_rss_mb`` are medians over the processes,
``wall_s`` and ``cpu_s`` medians over every repetition.

``--trace 1`` prints the per-layer metrics instead, from a traced run
in this process, made twice: an untraced serial repetition, a traced
serial repetition, and a pooled repetition with the fleet telemetry
collector.  The two traced passes must repeat every deterministic count
exactly; ``trace.overhead`` is the traced over the untraced serial wall
time (medians of the two).

Every repetition's output digest must match ``expected.json`` for the
seed named there, and every other repetition of the same seed otherwise.
The last line of standard output is the result object; the line before
it is the host record (calibration, CPUs, Python, raw timings).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
from typing import Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh processes (set-ups) per untraced run.
SETUPS = 3
#: Iterations of the calibration loop (20-40 ms of pure Python on the
#: 2-core host of README.md).
CALIB_LOOPS = 300_000
#: Calibration time of the reference host that times are normalised to.
REF_CALIB_S = 0.025
#: Seconds after which an untraced run is abandoned (its processes killed).
RUN_TIMEOUT = 170.0

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Counts the two traced passes must repeat exactly.
DETERMINISTIC = ("simnet.events", "simnet.link.drops", "fleet.shards",
                 "fleet.batches", "scale.users")


def _calibration_loop() -> Tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop."""
    t0, c0 = time.perf_counter(), time.process_time()
    x = 0
    for i in range(CALIB_LOOPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - t0, time.process_time() - c0


def calibrate(cores: int = 1) -> Tuple[float, float]:
    """Wall and CPU seconds of a fixed loop: the host's current speed.

    Wall time also counts time the host gave to other work, CPU time
    does not; each normalises the timing of the same kind.  With
    ``cores`` > 1 the loop runs at once on that many usable CPUs, one
    process pinned to each (this one and ``cores - 1`` forks), and the
    means are returned, so that a pooled workload is normalised by the
    speed of every core it uses.  Unpinned, a fork often starts on its
    parent's CPU and the loops share one core.
    """
    cpus = sorted(os.sched_getaffinity(0))[:cores]
    if len(cpus) <= 1:
        return _calibration_loop()
    read_fd, write_fd = os.pipe()
    pids = []
    for cpu in cpus[1:]:
        pid = os.fork()
        if pid == 0:
            try:  # the fork must never return into the caller's code
                os.close(read_fd)
                os.sched_setaffinity(0, {cpu})
                os.write(write_fd, struct.pack("2d", *_calibration_loop()))
            finally:
                os._exit(0)
        pids.append(pid)
    os.close(write_fd)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        times = [_calibration_loop()]
    finally:
        os.sched_setaffinity(0, allowed)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    for pid in pids:
        os.waitpid(pid, 0)
    times += [struct.unpack_from("2d", data, k) for k in range(0, len(data), 16)]
    if len(times) != len(cpus):
        raise RuntimeError(f"calibration got {len(times)} of {len(cpus)} timings")
    return (statistics.fmean(t[0] for t in times),
            statistics.fmean(t[1] for t in times))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def declared_metrics() -> dict:
    """BENCHMARK.json's metric declarations: mode -> {name: unit}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, units: dict) -> str:
    """The final result object; every declared metric, nothing else."""
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics computed {sorted(set(values) ^ set(units))} differ "
            f"from those declared in BENCHMARK.json")
    bad = [name for name in values if not METRIC_NAME.match(name)]
    if bad:
        raise RuntimeError(f"illegal metric names: {bad}")
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in sorted(values)}})


def expected_digest(workload: str, seed: int):
    """The committed digest for ``workload`` at ``seed``, or None."""
    doc = json.loads((HERE / "expected.json").read_text())
    return doc["digests"][workload] if seed == doc["seed"] else None


def output_check(workload: str, seed: int, digests) -> list:
    """Problems with a run's digests (empty when the outputs are right)."""
    distinct = sorted(set(digests))
    if len(distinct) != 1:
        return [f"{len(distinct)} different outputs for one seed: {distinct}"]
    want = expected_digest(workload, seed)
    if want is not None and distinct[0] != want:
        return [f"output digest {distinct[0]} != expected {want}"]
    return []


def _import_program():
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


# ----------------------------------------------------------------------
# --trace 0: untraced repetitions in fresh processes
# ----------------------------------------------------------------------
def child(args) -> dict:
    """One set-up, then repetitions for ``args.seconds`` (runs in a child)."""
    workloads = _import_program()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_calib = calibrate()
        t0 = time.perf_counter()
        prepared = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - t0
        setup_calib = [setup_calib, calibrate()]
        workers = workloads.pool_workers()
        reps = []
        deadline = time.perf_counter() + args.seconds
        while not reps or time.perf_counter() < deadline:
            gc.collect()  # no repetition inherits the last one's garbage
            calib0 = calibrate(prepared.cores)
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            out = prepared.run(workers)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            calib1 = calibrate(prepared.cores)
            reps.append({"wall_s": wall, "cpu_s": cpu,
                         "calib_wall_s": [calib0[0], calib1[0]],
                         "calib_cpu_s": [calib0[1], calib1[1]],
                         "digest": out.digest, "attempted": out.attempted,
                         "failed": out.failed})
            if len(reps) == 1:
                peak = peak_rss_mb()  # set-up plus one repetition
        return {"setup_s": setup_s,
                "calib_wall_s": [c[0] for c in setup_calib],
                "peak_rss_mb": peak, "workers": workers, "reps": reps}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def normalised(seconds: float, calibs) -> float:
    """``seconds`` scaled to a host whose calibration takes REF_CALIB_S."""
    return seconds * REF_CALIB_S / statistics.fmean(calibs)


def end_to_end(runs) -> dict:
    """The end-to-end metrics from the set-up processes' records.

    Each time is normalised by the calibrations taken just before and
    just after it, so that a host running slower or faster for minutes
    at a time moves the figures less (README.md has the measurements).
    """
    reps = [rep for run in runs for rep in run["reps"]]
    return {
        "setup_s": statistics.median(normalised(run["setup_s"], run["calib_wall_s"])
                                     for run in runs),
        "wall_s": statistics.median(normalised(rep["wall_s"], rep["calib_wall_s"])
                                    for rep in reps),
        "cpu_s": statistics.median(normalised(rep["cpu_s"], rep["calib_cpu_s"])
                                   for rep in reps),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def measure(args) -> int:
    units = declared_metrics()[0]
    runs = []
    deadline = time.monotonic() + RUN_TIMEOUT
    for _ in range(SETUPS):
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--child", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / SETUPS), "--trace", "0"]
        try:
            proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT:.0f} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: {args.workload} set-up process failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout.decode().splitlines()[-1]))

    reps = [rep for run in runs for rep in run["reps"]]
    problems = output_check(args.workload, args.seed,
                            [rep["digest"] for rep in reps])
    values = end_to_end(runs)
    print(json.dumps({"host": host_record(
        statistics.median(c for rep in reps for c in rep["calib_wall_s"]), runs)}))
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(result_line(not problems, sum(rep["attempted"] for rep in reps),
                      sum(rep["failed"] for rep in reps), values, units))
    return 1 if problems else 0


def host_record(calib_s: float, runs=None) -> dict:
    _import_program()
    from repro.fleet.workers import usable_cpus

    record = {"calib_s": calib_s, "usable_cpus": usable_cpus(),
              "python": platform.python_version()}
    if runs is not None:
        record["raw"] = [
            {key: run[key] for key in ("setup_s", "calib_wall_s", "peak_rss_mb",
                                       "workers")}
            | {"reps": [{k: rep[k] for k in ("wall_s", "cpu_s", "calib_wall_s",
                                             "calib_cpu_s")}
                        for rep in run["reps"]]}
            for run in runs]
    return record


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics from a traced run
# ----------------------------------------------------------------------
def dispatch_metrics(result) -> dict:
    """Pool dispatch figures from a run with the telemetry collector."""
    doc = result.telemetry if result is not None else None
    out = {"fleet.shards": 0, "fleet.batches": 0, "fleet.worker.busy_frac": 0.0,
           "fleet.worker.idle_s": 0.0, "fleet.straggler_s": 0.0,
           "fleet.retries": 0, "fleet.quarantined": 0, "fleet.max_buffered": 0}
    if doc is None:
        return out
    out.update({"fleet.shards": doc["campaign"]["shards"],
                "fleet.batches": doc["run"]["batches"],
                "fleet.retries": doc["shards"]["retries"],
                "fleet.quarantined": doc["shards"]["quarantined"],
                "fleet.max_buffered": doc["run"]["max_buffered"]})
    finish = {}
    for event in doc["events"]:
        if event.get("ev") == "batch":
            finish[event["pid"]] = max(finish.get(event["pid"], 0.0), event["t1"])
    if finish:
        # Worker capacity counts from the collector's epoch, just before
        # the run started, to the last batch's end.
        capacity = doc["run"]["workers"] * max(finish.values())
        busy = sum(w["busy_s"] for w in doc["workers"].values())
        out.update({"fleet.worker.busy_frac": busy / capacity,
                    "fleet.worker.idle_s": capacity - busy,
                    "fleet.straggler_s": max(finish.values()) - min(finish.values())})
    return out


def layer_metrics(rec, outcome, telemetry_result) -> dict:
    """Every per-layer metric except the host and overhead rows."""
    from spans import layer_totals

    totals = layer_totals(rec.spans)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    events = rec.results.get("simnet.run", 0.0)
    values = {
        "simnet.events": events,
        "simnet.run.self_s": self_s("simnet.run"),
        "simnet.us_per_event": (self_s("simnet.run") / events * 1e6
                                if events else 0.0),
        "simnet.link.drops": rec.results.get("simnet.link.send", 0.0),
        "obs.collect.self_s": self_s("obs.collect"),
        "obs.lift.self_s": self_s("obs.lift"),
        "mar.for_cell.self_s": self_s("mar.for_cell"),
        "scale.cell_aggregate.self_s": self_s("scale.cell_aggregate"),
        "scale.mar_ready.self_s": self_s("scale.mar_ready"),
        "scale.pressured_session.self_s": self_s("scale.pressured_session"),
        "fleet.encode.self_s": self_s("fleet.encode"),
        "fleet.merge.self_s": self_s("fleet.merge"),
        "fleet.fingerprint.self_s": self_s("fleet.fingerprint"),
        "core.session.run.self_s": self_s("core.session.run"),
    }
    for name in ("simnet.link.send", "transport.udp.sendto", "core.martp.submit",
                 "core.scheduler.select", "core.degradation.allocate",
                 "core.qlog.emit", "core.session.build", "mar.offload.run",
                 "scale.run_cell", "scale.promote", "fleet.decode",
                 "fleet.cache.get", "fleet.cache.put"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)

    result = outcome.result
    users = 0
    hit_ratio = 0.0
    if result is not None:
        users = result.aggregate.counts.get("scale.users", 0)
        looked_up = result.cache_hits + result.cache_misses
        hit_ratio = result.cache_hits / looked_up if looked_up else 0.0
    values["scale.users"] = users
    values["fleet.cache.hit_ratio"] = hit_ratio
    values.update(dispatch_metrics(telemetry_result))
    return values


def traced(args) -> int:
    units = declared_metrics()[1]
    workloads = _import_program()
    from repro.fleet.telemetry import TelemetryCollector
    from spans import Patches, SpanRecorder

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workers = workloads.pool_workers()
        calib = calibrate()[0]
        passes = []
        for k in range(2):
            t0 = time.perf_counter()
            base = prepared.run(1)
            base_wall = time.perf_counter() - t0
            rec = SpanRecorder()
            patches = Patches()
            workloads.install_tracing(patches, rec, prepared.campaign)
            try:
                t0 = time.perf_counter()
                outcome = prepared.run(1)
                wall = time.perf_counter() - t0
            finally:
                patches.restore()
            pooled = (prepared.run(workers, telemetry=TelemetryCollector())
                      if prepared.campaign is not None else outcome)
            if k == 0:
                spans_dir = WORK / "spans"
                spans_dir.mkdir(parents=True, exist_ok=True)
                rec.write(spans_dir / f"{args.workload}.tsv")
            passes.append({"base": base, "base_wall": base_wall,
                           "outcome": outcome, "wall": wall, "pooled": pooled,
                           "spans": len(rec.spans),
                           "metrics": layer_metrics(rec, outcome, pooled.result)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, again = passes[0]["metrics"], passes[1]["metrics"]
    outcomes = [p[key] for p in passes for key in ("base", "outcome", "pooled")]
    problems = output_check(args.workload, args.seed,
                            [o.digest for o in outcomes])
    counts = [n for n in values if n.endswith(".calls") or n in DETERMINISTIC]
    moved = {n: (values[n], again[n]) for n in counts if values[n] != again[n]}
    if moved:
        problems.append(f"counts differ between two traced runs: {moved}")

    host = host_record(calib)
    base_wall = statistics.median(p["base_wall"] for p in passes)
    values.update({
        "host.calib_s": calib, "host.raw_wall_s": base_wall,
        "host.usable_cpus": host["usable_cpus"],
        "trace.overhead": statistics.median(p["wall"] for p in passes) / base_wall})
    print(json.dumps({"host": host,
                      "trace": {"span_mode": "serial traced pass in the main process; "
                                "dispatch row from a pooled pass with "
                                "TelemetryCollector",
                                "spans": [p["spans"] for p in passes],
                                "counts_repeat": not moved}}))
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(result_line(not problems, sum(o.attempted for o in outcomes),
                      sum(o.failed for o in outcomes), values, units))
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    if args.workload not in _import_program().WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    return traced(args) if args.trace else measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark harness.

Run from the root of a repository checkout::

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, SpanRecorder, layer_totals, self_times, wrap_method  # noqa: E402


class FakeClock:
    """A clock that returns the scripted instants in order."""

    def __init__(self, *instants: float) -> None:
        self._instants = list(instants)

    def __call__(self) -> float:
        return self._instants.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_child_covering_part_of_parent(self):
        spans = [(1, 0, 1, "parent", 0.0, 10.0),
                 (2, 1, 1, "child", 2.0, 5.0)]
        self.assertEqual(self_times(spans), {1: 7.0, 2: 3.0})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [(1, 0, 1, "parent", 0.0, 10.0),
                 (2, 1, 1, "child", 2.0, 5.0),
                 (3, 1, 1, "child", 4.0, 6.0),    # overlaps the first
                 (4, 1, 1, "child", 9.0, 12.0)]   # runs past the parent
        self.assertAlmostEqual(self_times(spans)[1], 10.0 - 4.0 - 1.0)

    def test_recorder_nests_groups_and_totals(self):
        rec = SpanRecorder(clock=FakeClock(0.0, 2.0, 5.0, 10.0, 20.0, 21.0))
        inner = rec.wrap("inner", lambda: 7, on_result=float)
        outer = rec.wrap("outer", lambda: inner())
        self.assertEqual(outer(), 7)
        self.assertEqual(inner(), 7)        # a new root: its own group
        outer_span, nested, root = sorted(rec.spans)
        self.assertEqual((outer_span[1], nested[1], root[1]), (0, 1, 0))
        self.assertEqual((outer_span[2], nested[2], root[2]), (1, 1, 3))
        totals = layer_totals(rec.spans)
        self.assertEqual(totals["outer"], (1, 7.0))
        self.assertEqual(totals["inner"], (2, 4.0))
        self.assertEqual(rec.results["inner"], 14.0)

    def test_patches_restore_the_original_attributes(self):
        from repro.fleet.aggregate import Aggregate
        from repro.simnet.link import Link

        before = (Link.__dict__["send"], Aggregate.__dict__["from_json"])
        patches = Patches()
        rec = SpanRecorder()
        wrap_method(patches, rec, Link, "send", "simnet.link.send")
        wrap_method(patches, rec, Aggregate, "from_json", "fleet.decode")
        self.assertIsNot(Link.__dict__["send"], before[0])
        self.assertIsInstance(Aggregate.__dict__["from_json"], classmethod)
        patches.restore()
        self.assertEqual((Link.__dict__["send"], Aggregate.__dict__["from_json"]),
                         before)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.work = run.WORK / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_tampered_aggregate_fails_the_check(self):
        from repro.fleet.cache import ResultCache
        from repro.fleet.scenarios import demo_campaigns
        from repro.fleet.workers import run_campaign

        campaign = dataclasses.replace(demo_campaigns()["smoke"], seeds=2,
                                       params={"n_frames": 1})
        cache = ResultCache(self.work / "cache")
        fresh = workloads.campaign_outcome(run_campaign(campaign, cache=cache))
        reread = workloads.campaign_outcome(run_campaign(campaign, cache=cache))
        self.assertEqual(run.output_check("fleet_rerun", 99,
                                          [fresh.digest, reread.digest]), [])

        # Change one count in one cached shard, as a corrupt cache would.
        shard = sorted(cache.campaign_dir(campaign).glob("0*.json"))[0]
        doc = json.loads(shard.read_text())
        doc["counts"]["sessions"] += 1
        shard.write_text(json.dumps(doc, sort_keys=True))
        tampered = workloads.campaign_outcome(run_campaign(campaign, cache=cache))
        self.assertNotEqual(tampered.digest, fresh.digest)
        self.assertTrue(run.output_check("fleet_rerun", 99,
                                         [fresh.digest, tampered.digest]))
        committed = json.loads((HERE / "expected.json").read_text())["seed"]
        self.assertTrue(run.output_check("fleet_rerun", committed,
                                         [tampered.digest]))

    def test_no_program_source_exits_nonzero_without_a_result(self):
        bare = self.work / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "martp_session",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class MetricNamesTest(unittest.TestCase):
    def test_printed_names_are_legal_and_declared(self):
        declared = run.declared_metrics()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))

        rep = {"wall_s": 1.0, "cpu_s": 1.0, "calib_wall_s": [0.02, 0.03],
               "calib_cpu_s": [0.02, 0.03]}
        e2e = run.end_to_end([{"setup_s": 1.0, "calib_wall_s": [0.02, 0.02],
                               "peak_rss_mb": 50.0, "reps": [rep]}])
        layers = run.layer_metrics(SpanRecorder(),
                                   workloads.Outcome("", 1, 0), None)
        layers.update({"host.calib_s": 0.02, "host.raw_wall_s": 1.0,
                       "host.usable_cpus": 2, "trace.overhead": 1.1})
        for mode, values in ((0, e2e), (1, layers)):
            printed = json.loads(run.result_line(True, 1, 0, values,
                                                 declared[mode]))["metrics"]
            self.assertEqual(set(printed), set(declared[mode]))
            for name in printed:
                self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

    def test_times_are_normalised_by_their_own_calibrations(self):
        ref = run.REF_CALIB_S
        # Preempted, not slower: wall and its calibration double, CPU not.
        busy = {"wall_s": 2.0, "cpu_s": 2.0, "calib_wall_s": [2 * ref, 2 * ref],
                "calib_cpu_s": [ref, ref]}
        idle = {"wall_s": 1.0, "cpu_s": 2.0, "calib_wall_s": [ref, ref],
                "calib_cpu_s": [ref, ref]}
        e2e = run.end_to_end([
            {"setup_s": 3.0, "calib_wall_s": [ref, 2 * ref],
             "peak_rss_mb": 50.0, "reps": [busy, idle, busy]}])
        self.assertAlmostEqual(e2e["wall_s"], 1.0)
        self.assertAlmostEqual(e2e["cpu_s"], 2.0)
        self.assertAlmostEqual(e2e["setup_s"], 2.0)

    def test_undeclared_metric_is_refused(self):
        with self.assertRaises(RuntimeError):
            run.result_line(True, 1, 0, {"wall_s": 1.0, "extra": 2.0},
                            {"wall_s": "s"})


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The end-to-end cases build the driver (as run.py does) and run real
repetitions of weather64, so they take about a minute on a fresh tree.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

STATS = {
    "schema": "limitless-stats-v1",
    "cycles": 1000,
    "aggregate": {"proc": {"ops": 64}},
    "host": {"seconds": 0.5, "events": 10},
}


def rep_for(stats):
    return {"digest": run.deterministic_digest(stats),
            "proc_ops": stats["aggregate"]["proc"]["ops"]}


class DigestTest(unittest.TestCase):
    def test_host_block_is_ignored(self):
        other = copy.deepcopy(STATS)
        other["host"] = {"seconds": 9.0, "events": 11, "hostname": "x"}
        self.assertEqual(run.deterministic_digest(STATS),
                         run.deterministic_digest(other))

    def test_deterministic_field_changes_digest(self):
        other = copy.deepcopy(STATS)
        other["cycles"] += 1
        self.assertNotEqual(run.deterministic_digest(STATS),
                            run.deterministic_digest(other))

    def test_matching_record_passes(self):
        rep = run.check_rep(rep_for(STATS), rep_for(STATS), 1)
        self.assertTrue(rep["ok"])

    def test_perturbed_digest_fails(self):
        expected = rep_for(STATS)
        expected["digest"] = expected["digest"][::-1]
        rep = run.check_rep(rep_for(STATS), expected, 1)
        self.assertFalse(rep["ok"])
        self.assertIn("digest", rep["why"])

    def test_missing_record_fails(self):
        rep = run.check_rep(rep_for(STATS), None, 300)
        self.assertFalse(rep["ok"])
        self.assertIn("no recorded digest for seed 300", rep["why"])

    def test_proc_ops_mismatch_fails(self):
        expected = rep_for(STATS)
        expected["proc_ops"] += 1
        self.assertFalse(run.check_rep(rep_for(STATS), expected, 1)["ok"])

    def test_crashed_repetition_fails(self):
        rep = run.check_rep({"error": "exit -6"}, rep_for(STATS), 1)
        self.assertFalse(rep["ok"])

    def test_seed_lookup(self):
        table = {"stress64": {"7": {"digest": "a", "proc_ops": 1}},
                 "weather64": {"*": {"digest": "b", "proc_ops": 2}}}
        self.assertEqual(run.expected_record(table, "stress64", 7)["digest"],
                         "a")
        self.assertIsNone(run.expected_record(table, "stress64", 8))
        self.assertEqual(run.expected_record(table, "weather64", 8)["digest"],
                         "b")

    def test_every_seeded_input_has_a_record(self):
        with open(run.DEFAULT_DIGESTS) as f:
            table = json.load(f)
        for name, wl in run.WORKLOADS.items():
            keys = ({str(s) for s in range(run.RECORDED_SEEDS)}
                    if wl["seeded"] else {"*"})
            self.assertEqual(set(table[name]), keys, name)


class MetricsTest(unittest.TestCase):
    REP = {"cpu_s": 2.0, "setup_cpu_s": 0.2, "peak_rss_kb": 1024,
           "proc_ops": 1000}

    def metrics(self, probe):
        return run.end_to_end_metrics([dict(self.REP, probe_cpu_s=probe)])

    def test_reference_speed_leaves_cpu_seconds(self):
        m = self.metrics(run.PROBE_REF_S)
        self.assertAlmostEqual(m["run_norm_s"][0], 2.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        self.assertAlmostEqual(m["sim_refs_per_norm_s"][0], 500.0)
        self.assertAlmostEqual(m["peak_rss_mb"][0], 1.0)

    def test_slow_host_is_scaled_back(self):
        m = self.metrics(2 * run.PROBE_REF_S)
        self.assertAlmostEqual(m["run_norm_s"][0], 1.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.1)
        self.assertAlmostEqual(m["sim_refs_per_norm_s"][0], 1000.0)

    def test_rep_kinds(self):
        self.assertEqual(run.rep_kinds("torus1024", 0), [(False, 1)])
        self.assertEqual(run.rep_kinds("stress64", 1),
                         [(False, 1), (True, 1)])
        self.assertEqual(run.rep_kinds("torus1024", 1),
                         [(False, 1), (True, 1), (True, 2)])


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class EndToEndTest(unittest.TestCase):
    WORK_DIR = os.path.join(run.ROOT, ".bench_build", "selftest")

    def setUp(self):
        shutil.rmtree(self.WORK_DIR, ignore_errors=True)
        os.makedirs(self.WORK_DIR)

    def tearDown(self):
        shutil.rmtree(self.WORK_DIR, ignore_errors=True)

    def bench(self, *args, cwd=run.ROOT, script=None):
        return subprocess.run(
            [sys.executable, script or os.path.join(run.HERE, "run.py"),
             "--workload", "weather64", "--seconds", "1"] + list(args),
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)

    def test_recorded_digest_passes(self):
        proc = self.bench()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc.stdout)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], run.MIN_REPS)

    def test_perturbed_digest_fails_the_run(self):
        with open(run.DEFAULT_DIGESTS) as f:
            table = json.load(f)
        record = table["weather64"]["*"]
        record["digest"] = ("0" if record["digest"][0] != "0" else "1") + \
            record["digest"][1:]
        path = os.path.join(self.WORK_DIR, "perturbed.json")
        with open(path, "w") as f:
            json.dump(table, f)
        out = io.StringIO()
        with mock.patch.object(run, "DEFAULT_DIGESTS", path), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "weather64", "--seconds", "1"])
        self.assertEqual(code, 0)
        result = last_json(out.getvalue())
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_without_sources_exits_nonzero(self):
        shutil.copytree(run.HERE, os.path.join(self.WORK_DIR, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), self.WORK_DIR)
        proc = self.bench(cwd=self.WORK_DIR, script=os.path.join(
            self.WORK_DIR, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

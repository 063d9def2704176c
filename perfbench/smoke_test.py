#!/usr/bin/env python3
"""The benchmark's own tests: every workload in smoke mode, untraced and traced.

    python3 perfbench/smoke_test.py

Smoke mode uses quick shapes and one sample per run, but emits every metric
and runs every correctness check, so these tests pin the result-line
contract against BENCHMARK.json.  Takes about a minute after the build.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


class Smoke(unittest.TestCase):
    def check_result(self, workload, trace):
        p = run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stderr[-4000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], p.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return p.stdout, result["metrics"]

    def test_batch_cold(self):
        self.check_result("batch-cold", 0)
        _, layer = self.check_result("batch-cold", 1)
        self.assertEqual(layer["telemetry.template_cache_hit_rate"]["value"], 0)
        self.assertGreater(layer["columns.fold_s"]["value"], 0)

    def test_batch_sweep(self):
        self.check_result("batch-sweep", 0)
        _, layer = self.check_result("batch-sweep", 1)
        self.assertGreater(layer["telemetry.template_cache_hit_rate"]["value"], 0)
        self.assertGreater(layer["faults.injected"]["value"], 0)

    def test_daemon_mixed(self):
        report, _ = self.check_result("daemon-mixed", 0)
        for name in ("block_ack_p50_ms", "query_p90_ms", "error_rate"):
            self.assertIn(name, report)
        _, layer = self.check_result("daemon-mixed", 1)
        self.assertGreater(layer["stream.ingest_s"]["value"], 0)
        self.assertEqual(layer["pmssd.block_accept_ratio"]["value"], 1)

    def test_unknown_workload_fails_without_a_result(self):
        p = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()

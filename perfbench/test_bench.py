#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

- p160k (all cores) and p160k_serial (one thread) run the same inputs, so
  they must print the same family digest, precision and sensitivity, on the
  default seed and on a held-out seed.
- Every run is correct and prints exactly the metrics BENCHMARK.json
  declares, with the declared units.
- The traced runs show the SIMD leak the benchmark was built to expose:
  RR reaches the batch engine only when the pool has more than one thread,
  and BGG never does.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    families = next(l for l in lines if l.startswith("families: "))
    return dict(re.findall(r"(\w+)=(\S+)", families)), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})

    def test_threads_do_not_change_families(self):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            pooled, pooled_json = bench("p160k", seed, 0)
            serial, serial_json = bench("p160k_serial", seed, 0)
            self.assertEqual(pooled, serial, f"seed {seed}")
            self.check_result(pooled_json, self.spec["end_to_end"])
            self.check_result(serial_json, self.spec["end_to_end"])

    def test_audit_workload_is_correct(self):
        _, result = bench("p22k_bm_audit", DEFAULT_SEED, 0)
        self.check_result(result, self.spec["end_to_end"])

    def test_traced_breakdown(self):
        layers = {}
        for workload in ("p160k", "p160k_serial", "p22k_bm_audit"):
            _, result = bench(workload, DEFAULT_SEED, 1)
            self.check_result(result, self.spec["per_layer"])
            layers[workload] = {k: v["value"]
                                for k, v in result["metrics"].items()}
            self.assertGreaterEqual(layers[workload]["trace.coverage"], 0.95)
        self.assertEqual(layers["p160k_serial"]["rr.simd_batches"], 0)
        self.assertGreater(layers["p160k"]["rr.simd_batches"], 0)
        self.assertEqual(layers["p160k_serial"]["bgg.simd_batches"], 0)
        self.assertEqual(layers["p160k"]["bgg.simd_batches"], 0)
        self.assertGreater(layers["p22k_bm_audit"]["prov.edges"], 0)
        self.assertGreater(layers["p22k_bm_audit"]["ckpt.bytes_written"], 0)
        self.assertEqual(layers["p160k"]["prov.edges"], 0)


if __name__ == "__main__":
    unittest.main()

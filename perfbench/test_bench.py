#!/usr/bin/env python3
"""Self-test of the benchmark, on toy-sized inputs.

    python3 perfbench/test_bench.py

- every workload, untraced and traced, prints every metric that
  BENCHMARK.json names, with its unit, and passes its output checks;
- a corrupted reference makes the run fail: error_ratio > 0 and a
  nonzero exit code.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELFTEST = ROOT / ".bench_build" / "selftest"


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"] +
        list(extra), cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class ToyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, proc = bench(w["name"], trace)
                    self.assertEqual(code, 0, proc.stdout + proc.stderr)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_corrupted_reference_fails(self):
        ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        toy = ref["toy"]
        toy["validate-cold"]["hist_digest"] = "0" * 64
        cells = toy["explore-scenarios"]["scenarios"]["cells"]
        exact = next(c for c in cells.values() if c["status"] == "exact")
        exact["reachable"] = exact["reachable"][1:] + ["0:r0=7;"]
        SELFTEST.mkdir(parents=True, exist_ok=True)
        bad = SELFTEST / "corrupted-reference.json"
        bad.write_text(json.dumps(ref))
        for workload in ("validate-cold", "explore-scenarios"):
            with self.subTest(workload=workload):
                code, result, proc = bench(workload, 0, "--reference",
                                           str(bad))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"], proc.stdout)
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)
                ratio = re.search(r"^error_ratio (\S+)", proc.stdout,
                                  re.MULTILINE)
                self.assertGreater(float(ratio.group(1)), 0.0)


if __name__ == "__main__":
    unittest.main()

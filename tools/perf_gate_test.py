#!/usr/bin/env python3
"""Self-test of the perf gate's decision rule on canned perfbench records.

    python3 tools/perf_gate_test.py

Runs no simulator: each case builds the pairs perf_gate.decide() would see
and checks the verdict. Registered in ctest under the `unit` label.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate as gate  # noqa: E402

HOST = {"cpu_model": "Intel(R) Xeon(R) CPU @ 2.00GHz", "nproc": 4}


def record(workload, value):
    return {"workload": workload, "correct": True, "attempted": 12,
            "failed": 0, **HOST,
            "metrics": {gate.METRIC: {"value": value, "unit": "1/s"}}}


def pairs(head_scale, base=None, head=None):
    """PAIRS pairs whose head reads head_scale x base, with +-2% pair noise.
    `base` / `head` override the record fields of the first pair."""
    out = []
    for i in range(gate.PAIRS):
        noise = 1.0 + 0.02 * ((i % 3) - 1)
        pair = {}
        for w in gate.WORKLOADS:
            b = 100000.0 * (1.0 + 0.15 * (i % 2))  # slow and fast host phases
            pair[w] = {"base": record(w, b),
                       "head": record(w, b * head_scale * noise)}
            if i == 0:
                pair[w]["base"].update(base or {})
                pair[w]["head"].update(head or {})
        out.append(pair)
    return out


class Decide(unittest.TestCase):
    def test_a_a_passes(self):
        v = gate.decide(pairs(1.0))
        self.assertTrue(v["pass"], v["reasons"])
        for w in gate.WORKLOADS:
            self.assertAlmostEqual(v["workloads"][w]["median_ratio"], 1.0)
            self.assertEqual(len(v["workloads"][w]["ratios"]), gate.PAIRS)

    def test_ratio_below_bound_fails(self):
        v = gate.decide(pairs(gate.BOUND - 0.04))
        self.assertFalse(v["pass"])
        self.assertEqual(len(v["reasons"]), len(gate.WORKLOADS))

    def test_one_slow_workload_fails(self):
        p = pairs(1.0)
        for pair in p:
            h = pair["noc_8x8"]["head"]["metrics"][gate.METRIC]
            h["value"] *= gate.BOUND - 0.04
        v = gate.decide(p)
        self.assertFalse(v["pass"])
        self.assertIn("noc_8x8", v["reasons"][0])

    def test_one_slow_pair_does_not_decide(self):
        p = pairs(1.0)
        p[0]["cmp_fig5"]["head"]["metrics"][gate.METRIC]["value"] /= 2
        self.assertTrue(gate.decide(p)["pass"])

    def test_incorrect_run_fails(self):
        for side in ("base", "head"):
            v = gate.decide(pairs(1.0, **{side: {"correct": False}}))
            self.assertFalse(v["pass"], side)

    def test_failed_operations_fail(self):
        for side in ("base", "head"):
            v = gate.decide(pairs(1.0, **{side: {"failed": 1}}))
            self.assertFalse(v["pass"], side)

    def test_crashed_run_fails(self):
        p = pairs(1.0)
        p[2]["cmp_fig5"]["head"] = {"workload": "cmp_fig5", "correct": False,
                                    "error": "run.py exited with code 1"}
        v = gate.decide(p)
        self.assertFalse(v["pass"])
        self.assertIn("exited with code 1", v["reasons"][0])

    def test_host_mismatch_fails(self):
        for field, other in (("cpu_model", "AMD EPYC 7B13"), ("nproc", 2)):
            v = gate.decide(pairs(1.0, head={field: other}))
            self.assertFalse(v["pass"], field)
            self.assertIn("different hosts", v["reasons"][0])


if __name__ == "__main__":
    unittest.main()

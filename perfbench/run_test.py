#!/usr/bin/env python3
"""Self-test of run.py's result-line validation (stdlib unittest only).

    python3 perfbench/run_test.py
"""
import json
import unittest

import run

DECLARED = {"latency_ms": "ms", "setup_s": "s"}


def line(**overrides):
    obj = {"correct": True, "attempted": 10, "failed": 0,
           "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"},
                       "setup_s": {"value": 0.5, "unit": "s"}}}
    obj.update(overrides)
    return json.dumps(obj)


class CheckResultTest(unittest.TestCase):
    def test_valid_line(self):
        self.assertEqual(run.check_result(line(), DECLARED), "")

    def test_every_declared_metric_is_required(self):
        m = {"setup_s": {"value": 0.5, "unit": "s"}}
        self.assertIn("missing: latency_ms",
                      run.check_result(line(metrics=m), DECLARED))

    def test_failures_counted_against_attempts(self):
        self.assertEqual(run.check_result(line(failed=3), DECLARED), "")
        self.assertIn("range", run.check_result(line(failed=11), DECLARED))
        self.assertIn("range", run.check_result(line(attempted=0), DECLARED))
        self.assertIn("whole", run.check_result(line(failed=1.5), DECLARED))
        self.assertIn("whole", run.check_result(line(attempted=True),
                                                DECLARED))

    def test_not_json(self):
        self.assertIn("JSON", run.check_result("ops attempted=3", DECLARED))

    def test_extra_or_missing_keys(self):
        obj = json.loads(line())
        obj["extra"] = 1
        self.assertIn("keys", run.check_result(json.dumps(obj), DECLARED))
        del obj["extra"], obj["failed"]
        self.assertIn("keys", run.check_result(json.dumps(obj), DECLARED))

    def test_undeclared_metric(self):
        m = {"other_ms": {"value": 1.0, "unit": "ms"}}
        self.assertIn("not declared",
                      run.check_result(line(metrics=m), DECLARED))

    def test_unit_mismatch(self):
        m = {"setup_s": {"value": 1.0, "unit": "ms"}}
        self.assertIn("unit", run.check_result(line(metrics=m), DECLARED))

    def test_non_finite_or_non_numeric_value(self):
        for v in ("1.0", None, True):
            m = {"setup_s": {"value": v, "unit": "s"}}
            self.assertIn("finite",
                          run.check_result(line(metrics=m), DECLARED))
        bad = line().replace("1.25", "NaN")
        self.assertIn("finite", run.check_result(bad, DECLARED))

    def test_correct_must_be_boolean(self):
        self.assertIn("boolean", run.check_result(line(correct=1), DECLARED))

    def test_declared_metrics_match_benchmark_json(self):
        e2e = run.declared_metrics(False)
        layers = run.declared_metrics(True)
        self.assertEqual(e2e["setup_s"], "s")
        self.assertFalse(set(e2e) & set(layers))

    def test_workloads_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(names, run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()

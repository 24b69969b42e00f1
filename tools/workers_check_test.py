#!/usr/bin/env python3
"""Unit tests for tools/workers_check.py (run by ctest as workers_check_py).

Covers the exit-code contract for GET /debug/workers bodies: 0 = a
consistent document (with its summary line), 1 = a consistency violation
(a worker's steals above its tasks, busy_ns beyond the slack over the
scheduler's uptime, a flight-recorder t_ns going backwards), 2 =
unparseable input.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workers_check  # noqa: E402


def valid_workers():
    return {"schedulers": [{
        "workers": 2, "uptime_ns": 1000000, "pending": 0,
        "caller_tasks": 4, "caller_busy_ns": 2000, "total_tasks": 14,
        "worker_list": [
            {"worker": 0, "tasks": 6, "steals": 1, "steal_fails": 3,
             "busy_ns": 400000, "idle_ns": 500000},
            {"worker": 1, "tasks": 4, "steals": 4, "steal_fails": 0,
             "busy_ns": 300000, "idle_ns": 600000},
        ],
        "flight": [
            {"t_ns": 100, "pending": 3, "tasks": 2, "steals": 0},
            {"t_ns": 200, "pending": 0, "tasks": 14, "steals": 5},
        ],
    }]}


class WorkersCheckTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def run_check(self, doc=None, raw=None):
        path = os.path.join(self._dir.name, "workers.json")
        with open(path, "w") as f:
            f.write(raw if raw is not None else json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = workers_check.check(path)
        return rc, out.getvalue(), err.getvalue()

    def test_consistent_document_exits_zero(self):
        rc, out, _ = self.run_check(valid_workers())
        self.assertEqual(rc, 0)
        self.assertIn("1 scheduler(s), 2 worker(s), 14 task(s), 5 steal(s)",
                      out)

    def test_more_steals_than_tasks_exits_one(self):
        doc = valid_workers()
        doc["schedulers"][0]["worker_list"][1]["steals"] = 5
        rc, _, err = self.run_check(doc)
        self.assertEqual(rc, 1)
        self.assertIn("5 steals exceed 4 tasks", err)

    def test_busy_beyond_uptime_slack_exits_one(self):
        doc = valid_workers()
        worker = doc["schedulers"][0]["worker_list"][0]
        worker["idle_ns"] = 0
        worker["busy_ns"] = 1050000  # exactly 1.05 x uptime: still allowed
        self.assertEqual(self.run_check(doc)[0], 0)
        worker["busy_ns"] = 1050001
        rc, _, err = self.run_check(doc)
        self.assertEqual(rc, 1)
        self.assertIn("busy_ns 1050001 exceeds scheduler uptime", err)

    def test_flight_time_going_backwards_exits_one(self):
        doc = valid_workers()
        doc["schedulers"][0]["flight"][1]["t_ns"] = 50
        rc, _, err = self.run_check(doc)
        self.assertEqual(rc, 1)
        self.assertIn("t_ns not ascending", err)

    def test_unparseable_input_exits_two(self):
        rc, _, err = self.run_check(raw="{not json")
        self.assertEqual(rc, 2)
        self.assertIn("cannot load", err)


if __name__ == "__main__":
    unittest.main()

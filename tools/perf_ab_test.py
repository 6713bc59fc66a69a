#!/usr/bin/env python3
"""Unit tests for the perf_ab.py verdict rule, on fabricated pair results.

    python3 tools/perf_ab_test.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402

SPEC = {
    "workloads": [{"name": "drive_thru"}],
    "end_to_end": [
        {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "cpu_ms_per_round", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}
BASE = {"rounds_per_s": 40.0, "cpu_ms_per_round": 25.0}


def run(metrics=None, correct=True, failed=0, returncode=0):
    values = dict(BASE, **(metrics or {}))
    return {"returncode": returncode,
            "result": {"correct": correct, "attempted": 17, "failed": failed,
                       "metrics": {k: {"value": v} for k, v in values.items()}}}


def pairs(parent_cpu, change_cpu):
    """Ten pairs that differ only in cpu_ms_per_round."""
    return {"drive_thru": [
        {"parent": run({"cpu_ms_per_round": p}),
         "change": run({"cpu_ms_per_round": c})}
        for p, c in zip(parent_cpu, change_cpu)]}


def rows_by_metric(rows):
    return {row["metric"]: row for row in rows}


class VerdictTest(unittest.TestCase):
    def test_equal_sides_are_same_and_pass(self):
        rows, code, problems = perf_ab.judge(SPEC, pairs([25.0] * 10, [25.0] * 10))
        self.assertEqual(code, 0)
        self.assertEqual(problems, [])
        self.assertEqual({r["verdict"] for r in rows}, {"same"})
        self.assertEqual({r["won"] for r in rows}, {0})  # ties win nothing

    def test_thirty_percent_slower_cpu_regresses(self):
        rows, code, _ = perf_ab.judge(SPEC, pairs([25.0] * 10, [32.5] * 10))
        self.assertEqual(code, 1)
        row = rows_by_metric(rows)["cpu_ms_per_round"]
        self.assertEqual(row["verdict"], "regressed")
        self.assertAlmostEqual(row["delta_pct"], 30.0)
        self.assertEqual(rows_by_metric(rows)["rounds_per_s"]["verdict"], "same")

    def test_slowdown_inside_the_bound_is_same(self):
        rows, code, _ = perf_ab.judge(SPEC, pairs([25.0] * 10, [30.0] * 10))
        self.assertEqual(code, 0)
        self.assertEqual(rows_by_metric(rows)["cpu_ms_per_round"]["verdict"], "same")

    def test_clear_win_in_every_pair_is_a_gain(self):
        rows, code, _ = perf_ab.judge(SPEC, pairs([25.0] * 10, [20.0] * 10))
        self.assertEqual(code, 0)
        self.assertEqual(rows_by_metric(rows)["cpu_ms_per_round"]["verdict"], "gain")

    def test_eight_of_ten_pairs_won_is_no_gain(self):
        rows, _, _ = perf_ab.judge(SPEC, pairs([25.0] * 10, [20.0] * 8 + [26.0] * 2))
        row = rows_by_metric(rows)["cpu_ms_per_round"]
        self.assertEqual(row["won"], 8)
        self.assertEqual(row["verdict"], "same")

    def test_ten_of_ten_inside_the_parent_iqr_is_no_gain(self):
        parent = [20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0]
        change = [p - 1.0 for p in parent]  # wins every pair by 1 ms
        rows, _, _ = perf_ab.judge(SPEC, pairs(parent, change))
        row = rows_by_metric(rows)["cpu_ms_per_round"]
        self.assertEqual(row["won"], 10)
        self.assertGreater(row["parent_iqr"], 1.0)
        self.assertEqual(row["verdict"], "same")

    def test_change_side_incorrect_run_fails(self):
        runs = pairs([25.0] * 10, [25.0] * 10)
        runs["drive_thru"][3]["change"] = run(correct=False)
        rows, code, problems = perf_ab.judge(SPEC, runs)
        self.assertEqual(code, 1)
        self.assertEqual(rows, [])
        self.assertIn("change run drive_thru pair 3 (seed 2011)", problems[0])

    def test_change_side_failed_operations_fail(self):
        runs = pairs([25.0] * 10, [25.0] * 10)
        runs["drive_thru"][0]["change"] = run(failed=2)
        self.assertEqual(perf_ab.judge(SPEC, runs)[1], 1)

    def test_parent_side_failure_gives_no_verdict(self):
        runs = pairs([25.0] * 10, [32.5] * 10)
        runs["drive_thru"][5]["parent"] = {"returncode": 1, "result": None}
        rows, code, problems = perf_ab.judge(SPEC, runs)
        self.assertEqual(code, 2)
        self.assertEqual(rows, [])
        self.assertIn("parent run drive_thru pair 5 (seed 2013): exited 1",
                      problems[0])

    def test_collection_stopped_mid_pair_is_judged_on_the_failure(self):
        runs = pairs([25.0] * 2, [25.0] * 2)
        runs["drive_thru"].append({"parent": run(correct=False)})
        self.assertEqual(perf_ab.judge(SPEC, runs)[1], 2)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the A/B driver's statistics and verdicts on synthetic results.

    python3 scripts/test_ab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_us", "better": "lower", "bound": 0.25},
    ]
}
# A base with a 4 % spread: IQR/median well inside every bound.
BASE_RATE = [1000.0, 1010.0, 990.0, 1020.0, 980.0, 1005.0, 995.0, 1015.0, 985.0, 1000.0]


def result(rate, latency, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"verdicts_per_s": {"value": rate}, "latency_p50_us": {"value": latency}},
    }


def pairs(base_rates, candidate_rates):
    """Pairs whose latency is the reciprocal of the rate, in microseconds."""
    return [(result(b, 1e6 / b), result(c, 1e6 / c)) for b, c in zip(base_rates, candidate_rates)]


def rows_by_metric(rows):
    return {row["metric"]: row for row in rows}


class Verdicts(unittest.TestCase):
    def test_identical_sides_pass_with_no_gain(self):
        verdict, rows, deviations = ab.evaluate(SPEC, {"w": pairs(BASE_RATE, BASE_RATE)}, [])
        self.assertEqual(verdict, "pass")
        self.assertEqual(deviations, [])
        for row in rows:
            self.assertEqual(row["verdict"], "PASS")
            self.assertFalse(row["gain"])
            self.assertEqual((row["wins"], row["losses"]), (0, 0))
            self.assertEqual(row["ratio"], (1.0, 1.0, 1.0))

    def test_a_side_forty_percent_slower_fails(self):
        slower = [rate * 0.6 for rate in BASE_RATE]
        verdict, rows, _ = ab.evaluate(SPEC, {"w": pairs(BASE_RATE, slower)}, [])
        self.assertEqual(verdict, "fail")
        by_metric = rows_by_metric(rows)
        self.assertEqual(by_metric["verdicts_per_s"]["verdict"], "FAIL")
        self.assertEqual(by_metric["latency_p50_us"]["verdict"], "FAIL")
        self.assertEqual(by_metric["verdicts_per_s"]["losses"], 10)

    def test_ten_wins_beyond_the_base_iqr_are_a_gain(self):
        faster = [rate * 1.1 for rate in BASE_RATE]
        verdict, rows, _ = ab.evaluate(SPEC, {"w": pairs(BASE_RATE, faster)}, [])
        self.assertEqual(verdict, "pass")
        for row in rows:
            self.assertEqual((row["verdict"], row["gain"], row["wins"]), ("PASS", True, 10))

    def test_wins_inside_the_base_iqr_are_no_gain(self):
        row = ab.judge(BASE_RATE, [rate * 1.001 for rate in BASE_RATE], "higher", 0.25)
        self.assertEqual(row["wins"], 10)
        self.assertFalse(row["gain"])

    def test_ties_count_for_neither_side(self):
        # Two ties, seven wins, one loss: 7 of 10 is no gain, 9 of 10 would be.
        candidate = list(BASE_RATE)
        for k in range(2, 9):
            candidate[k] = BASE_RATE[k] * 1.2
        candidate[9] = BASE_RATE[9] * 0.99
        row = ab.judge(BASE_RATE, candidate, "higher", 0.25)
        self.assertEqual((row["wins"], row["losses"], row["pairs"]), (7, 1, 10))
        self.assertFalse(row["gain"])
        self.assertEqual(ab.wins_text(row), "7-1/10")

    def test_an_incorrect_run_fails_with_a_deviation(self):
        runs = pairs(BASE_RATE, BASE_RATE)
        runs[3] = (runs[3][0], result(BASE_RATE[3], 1e6 / BASE_RATE[3], correct=False))
        verdict, rows, deviations = ab.evaluate(SPEC, {"w": runs}, [])
        self.assertEqual(verdict, "fail")
        self.assertTrue(all(row["verdict"] == "PASS" for row in rows))
        self.assertEqual(deviations, ["w pair 4 candidate: audit failed (correct: false)"])

    def test_a_larger_failed_op_share_fails(self):
        runs = pairs(BASE_RATE, BASE_RATE)
        runs[0] = (runs[0][0], result(BASE_RATE[0], 1e6 / BASE_RATE[0], failed=1))
        verdict, _, deviations = ab.evaluate(SPEC, {"w": runs}, [])
        self.assertEqual(verdict, "fail")
        self.assertIn("failed-op share", deviations[0])

    def test_a_base_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins(self):
        wide = [600.0, 1400.0, 700.0, 1300.0, 800.0, 1200.0, 900.0, 1100.0, 1000.0, 1000.0]
        row = ab.judge(wide, list(wide), "higher", 0.25)
        self.assertEqual(row["verdict"], "UNRESOLVED")
        verdict, _, deviations = ab.evaluate(SPEC, {"w": pairs(wide, wide)}, [])
        self.assertEqual(verdict, "pass")
        self.assertTrue(any("exceeds the bound" in d for d in deviations))
        above_all = [1500.0 + k for k in range(10)]
        self.assertEqual(ab.judge(wide, above_all, "higher", 0.25)["verdict"], "PASS")

    def test_lower_is_better_metrics_are_judged_in_their_direction(self):
        base = [23.0, 23.5, 22.5, 23.2, 22.8, 23.1, 22.9, 23.3, 22.7, 23.0]
        slower = [latency * 1.9 for latency in base]
        faster = [latency * 0.8 for latency in base]
        self.assertEqual(ab.judge(base, slower, "lower", 0.25)["verdict"], "FAIL")
        row = ab.judge(base, faster, "lower", 0.25)
        self.assertEqual((row["verdict"], row["gain"], row["wins"]), ("PASS", True, 10))
        self.assertEqual(ab.judge(base, slower, "higher", 0.25)["verdict"], "PASS")

    def test_differing_benchmark_code_is_incomplete(self):
        verdict, _, deviations = ab.evaluate(SPEC, {"w": pairs(BASE_RATE, BASE_RATE)}, ["perfbench/src/main.rs"])
        self.assertEqual(verdict, "incomplete")
        self.assertIn("perfbench/src/main.rs", deviations[-1])

    def test_the_record_carries_the_verdict_rows_and_deviations(self):
        verdict, rows, deviations = ab.evaluate(SPEC, {"w": pairs(BASE_RATE, BASE_RATE)}, ["BENCHMARK.json"])
        environment = {"base": "a" * 40, "candidate": "b" * 40, "pairs": ab.PAIRS, "seeds": ab.seeds("a", "b")}
        record = ab.render_rslt(verdict, environment, rows, deviations)
        self.assertIn("verdict: incomplete", record)
        self.assertIn("- step: w.latency_p50_us", record)
        self.assertIn("BENCHMARK.json", record.split("deviations:")[1])
        self.assertIn("verdicts_per_s", ab.render_table(rows))


class Seeds(unittest.TestCase):
    def test_seeds_repeat_for_a_revision_pair_and_differ_across_pairs(self):
        first = ab.seeds("1" * 40, "2" * 40)
        self.assertEqual(first, ab.seeds("1" * 40, "2" * 40))
        self.assertEqual(len(first), ab.PAIRS)
        self.assertEqual(len(set(first)), ab.PAIRS)
        self.assertNotEqual(first, ab.seeds("1" * 40, "3" * 40))
        self.assertEqual(len(set(ab.seeds("4" * 40, "4" * 40))), ab.PAIRS)


if __name__ == "__main__":
    unittest.main()

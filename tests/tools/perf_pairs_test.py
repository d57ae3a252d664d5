#!/usr/bin/env python3
"""Verdict logic and output parsing of scripts/perf_pairs.py on canned
runs."""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "scripts"))
import perf_pairs  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(perf_pairs.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(perf_pairs.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))

    def test_one_run_is_its_own_quartiles(self):
        self.assertEqual(perf_pairs.quartiles([7.0]), (7.0, 7.0, 7.0))


class PairsWonTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        base = [10, 10, 10, 10]
        change = [9, 10, 11, 8]
        self.assertEqual(perf_pairs.pairs_won(base, change, "lower"), 2)
        self.assertEqual(perf_pairs.pairs_won(base, change, "higher"), 1)


class VerdictTest(unittest.TestCase):
    BASE = [24.0, 24.5, 23.5, 24.8, 23.9, 24.2, 24.1, 23.6, 24.6, 24.3]

    def test_clear_speedup_is_a_gain(self):
        change = [x * 0.6 for x in self.BASE]
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "lower", 0.25),
                         "gain")

    def test_direction_flips_for_higher_is_better(self):
        change = [x * 0.6 for x in self.BASE]
        self.assertEqual(perf_pairs.verdict(change, self.BASE, "higher", 0.25),
                         "gain")
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "higher", 0.25),
                         "worse")

    def test_eight_of_ten_pairs_is_no_gain(self):
        change = [x * 0.6 for x in self.BASE]
        change[0] = change[1] = 30.0
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "lower", 0.25),
                         "no worse")

    def test_nine_of_ten_pairs_suffice(self):
        change = [x * 0.6 for x in self.BASE]
        change[0] = 30.0
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "lower", 0.25),
                         "gain")

    def test_fewer_than_ten_pairs_are_never_a_gain(self):
        # Every pair won by a wide margin, but too few pairs to claim it.
        for pairs in (1, 3, 9):
            base = self.BASE[:pairs]
            change = [x * 0.6 for x in base]
            self.assertEqual(perf_pairs.verdict(base, change, "lower", 0.25),
                             "no worse", "%d pairs" % pairs)

    def test_win_inside_the_base_spread_is_no_gain(self):
        # Wins every pair, but by less than the base's quartile distance.
        change = [x - 0.1 for x in self.BASE]
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "lower", 0.25),
                         "no worse")

    def test_identical_runs_are_no_worse(self):
        sim = [0.15002280112399999] * 10
        self.assertEqual(perf_pairs.verdict(sim, sim, "lower", 0.02),
                         "no worse")

    def test_small_slowdown_within_the_bound_is_no_worse(self):
        change = [x * 1.05 for x in self.BASE]
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "lower", 0.25),
                         "no worse")

    def test_slowdown_beyond_the_bound_is_worse(self):
        change = [x * 1.3 for x in self.BASE]
        self.assertEqual(perf_pairs.verdict(self.BASE, change, "lower", 0.25),
                         "worse")

    def test_noisy_runs_are_unresolved(self):
        base = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
        change = [11.0, 10.0, 14.0, 10.0, 15.0, 10.0, 14.0, 10.0]
        self.assertEqual(perf_pairs.verdict(base, change, "lower", 0.1),
                         "unresolved")

    def test_noisy_but_every_change_run_better_is_not_unresolved(self):
        base = [20.0, 28.0, 20.0, 28.0]
        # Every change run beats every base run, but the medians differ by
        # less than the base's quartile distance (8): no gain, and no
        # doubt either.
        change = [19.5, 19.9, 19.0, 19.8]
        self.assertEqual(perf_pairs.verdict(base, change, "lower", 0.01),
                         "no worse")

    def test_noisy_but_every_change_run_worse_is_worse(self):
        base = [10.0, 14.0, 10.0, 14.0]
        change = [20.0, 30.0, 20.0, 30.0]
        self.assertEqual(perf_pairs.verdict(base, change, "lower", 0.1),
                         "worse")

    def test_zero_base_median(self):
        self.assertEqual(perf_pairs.verdict([0, 0, 0], [0, 0, 0], "lower",
                                            0.02), "no worse")
        self.assertEqual(perf_pairs.verdict([0, 0, 0], [1, 1, 1], "lower",
                                            0.02), "worse")

    def test_unpaired_runs_are_rejected(self):
        with self.assertRaises(perf_pairs.PairsError):
            perf_pairs.verdict([1.0, 2.0], [1.0], "lower", 0.1)
        with self.assertRaises(perf_pairs.PairsError):
            perf_pairs.verdict([1.0], [1.0], "sideways", 0.1)


class SummarizeTest(unittest.TestCase):
    def test_one_row_per_metric_in_benchmark_order(self):
        metrics = [
            {"name": "host_ref", "unit": "ref", "better": "lower",
             "bound": 0.25},
            {"name": "sim_s", "unit": "sim_s", "better": "lower",
             "bound": 0.02},
        ]
        base = [{"host_ref": 24.0 + i * 0.1, "sim_s": 0.15} for i in range(10)]
        change = [{"host_ref": 14.0 + i * 0.1, "sim_s": 0.15}
                  for i in range(10)]
        rows = perf_pairs.summarize(metrics, base, change)
        self.assertEqual([r["metric"] for r in rows], ["host_ref", "sim_s"])
        self.assertEqual(rows[0]["verdict"], "gain")
        self.assertEqual(rows[0]["won"], 10)
        self.assertEqual(rows[1]["verdict"], "no worse")
        self.assertEqual(rows[1]["won"], 0)
        table = perf_pairs.format_rows(rows)
        self.assertIn("10/10", table)
        self.assertIn("0/10", table)


class ParseOutputTest(unittest.TestCase):
    DIGEST = "sim_digest compile_ept seed=42 cf76e769681ef1ea"
    RESULT = '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}'

    def test_returns_the_digest_line_and_the_result(self):
        out = "set-up note\n%s\n%s\n" % (self.DIGEST, self.RESULT)
        line, result = perf_pairs.parse_output(out)
        self.assertEqual(line, self.DIGEST)
        self.assertEqual(result["attempted"], 4)

    def test_incorrect_or_failed_runs_are_rejected(self):
        for result in (self.RESULT.replace("true", "false"),
                       self.RESULT.replace('"failed": 0', '"failed": 1'),
                       '{"attempted": 4, "failed": 0}'):
            with self.assertRaises(perf_pairs.PairsError, msg=result):
                perf_pairs.parse_output("%s\n%s" % (self.DIGEST, result))

    def test_missing_or_malformed_lines_are_rejected(self):
        for out in ("", self.RESULT, "%s\nnot json" % self.DIGEST):
            with self.assertRaises(perf_pairs.PairsError, msg=out):
                perf_pairs.parse_output(out)


if __name__ == "__main__":
    unittest.main()

"""Tests for pair.py's statistics and verdicts.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pair  # noqa: E402


class QuartileTests(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        self.assertEqual(pair.quartiles(list(range(1, 11))), (2.75, 8.25))
        self.assertEqual(pair.quartiles([5, 1, 4, 2, 3]), (1.5, 4.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(pair.spread([9, 10, 10, 10, 11]), 0.1)
        self.assertEqual(pair.spread([0, 0, 0]), 0.0)


class VerdictTests(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]

    def test_wins_count_pairs_and_ties_count_for_neither(self):
        self.assertEqual(pair.win_fraction([1, 1, 1, 1], [0, 1, 2, 0], "lower"), 0.5)
        self.assertEqual(pair.win_fraction([1, 1], [2, 1], "higher"), 0.5)

    def test_clear_gain(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(pair.verdict(self.parent, change, "lower", 0.1), "gain")

    def test_regression_beyond_bound(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(pair.verdict(self.parent, change, "lower", 0.1), "regression")
        self.assertEqual(pair.verdict(self.parent, change, "higher", 0.1), "gain")

    def test_noise_is_same(self):
        change = list(reversed(self.parent))
        self.assertEqual(pair.verdict(self.parent, change, "lower", 0.1), "same")

    def test_wide_spread_is_unresolved_unless_dominated(self):
        noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
        self.assertEqual(pair.verdict(noisy, noisy[::-1], "lower", 0.1), "unresolved")
        tiny = [1.0, 1.5, 0.5, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7]
        self.assertNotEqual(pair.verdict(noisy, tiny, "lower", 10.0), "unresolved")
        self.assertEqual(pair.verdict(noisy, [0.1] * 10, "lower", 0.1), "gain")

    def test_per_layer_metrics_without_bound_are_never_unresolved(self):
        noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
        self.assertEqual(pair.verdict(noisy, noisy[::-1], "lower", None), "same")


class HostKeyTests(unittest.TestCase):
    def test_records_compare_only_on_same_cpus_and_engines(self):
        a = {"nproc": 2, "engines": {"replay": 85}}
        b = {"nproc": 2, "engines": {"replay": 90}}
        c = {"nproc": 1, "engines": {"interleaved": 85}}
        self.assertEqual(len({pair.host_key(a), pair.host_key(b)}), 1)
        self.assertEqual(len({pair.host_key(a), pair.host_key(c)}), 2)


if __name__ == "__main__":
    unittest.main()

"""Tests for run.py's helpers: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import unittest

import run


class RunTimeout(unittest.TestCase):
    def test_grows_with_the_measured_seconds(self):
        self.assertEqual(run.run_timeout_s(30), 170)
        self.assertEqual(run.run_timeout_s(60), 260)
        self.assertGreater(run.run_timeout_s(200), 3 * 200)


if __name__ == "__main__":
    unittest.main()

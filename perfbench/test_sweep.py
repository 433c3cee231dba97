"""Unit tests for the bound comparison in sweep.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import statistics
import unittest

from sweep import regressions, spread_failures, summarize, worse_by

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "throughput_aps", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


class SummarizeTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        vals = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        s = summarize(vals)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / statistics.median(vals))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(summarize([5.0] * 10)["spread"], 0.0)


class BoundTest(unittest.TestCase):
    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(worse_by(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(worse_by(100.0, 90.0, "higher"), 0.10)

    def test_regression_only_beyond_bound(self):
        old = {"latency_p50_ms": {"median": 100.0}, "throughput_aps": {"median": 1000.0},
               "setup_s": {"median": 20.0}}
        new = {"latency_p50_ms": {"median": 109.0}, "throughput_aps": {"median": 880.0},
               "setup_s": {"median": 26.0}}
        found = regressions(old, new, SPEC)
        self.assertEqual([f.split(":")[0] for f in found], ["setup_s", "throughput_aps"])

    def test_improvements_never_regress(self):
        old = {"latency_p50_ms": {"median": 100.0}}
        new = {"latency_p50_ms": {"median": 50.0}}
        self.assertEqual(regressions(old, new, SPEC), [])

    def test_spread_check_exempts_setup(self):
        sums = {"setup_s": {"spread": 0.9}, "latency_p50_ms": {"spread": 0.2},
                "throughput_aps": {"spread": 0.05}}
        found = spread_failures(sums, SPEC)
        self.assertEqual([f.split(":")[0] for f in found], ["latency_p50_ms"])


if __name__ == "__main__":
    unittest.main()

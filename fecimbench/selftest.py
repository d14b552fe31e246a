"""Self-tests for the benchmark's own arithmetic (metrics.py).

run.py runs them before every measurement; `python3 fecimbench/selftest.py`
runs them alone.
"""

import math
import unittest

import metrics


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50.0), 50)
        self.assertEqual(metrics.nearest_rank(values, 95.0), 95)
        self.assertEqual(metrics.nearest_rank(values, 100.0), 100)
        self.assertEqual(metrics.nearest_rank([7.0], 95.0), 7.0)

    def test_ten_beyond_rule(self):
        # 200 samples: 10 lie above p95, 2 above p99.
        self.assertEqual(metrics.samples_beyond(200, 95.0), 10)
        self.assertEqual(metrics.highest_supported_percentile(200), 95.0)
        self.assertEqual(metrics.highest_supported_percentile(199), 90.0)
        self.assertEqual(metrics.highest_supported_percentile(1000), 99.0)
        self.assertEqual(metrics.highest_supported_percentile(10000), 99.9)
        # 20 samples: exactly 10 above the median; 19 leave only 9.
        self.assertEqual(metrics.highest_supported_percentile(20), 50.0)
        self.assertIsNone(metrics.highest_supported_percentile(19))


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_merge(self):
        spans = [["job", -1, False, 0.0, 10.0],
                 ["a", 0, False, 1.0, 4.0],
                 ["b", 0, False, 3.0, 6.0],   # overlaps a: [1, 6] counts once
                 ["c", 0, False, 8.0, 12.0]]  # clipped to the parent: [8, 10]
        times = metrics.span_times(spans)
        self.assertEqual(times[0], (10.0, 3.0))
        self.assertEqual(times[1], (3.0, 3.0))

    def test_estimates_anchor_end_to_end(self):
        spans = [["construct", -1, False, 5.0, 15.0],
                 ["program", 0, True, 0.0, 2.0],   # laid at [5, 7]
                 ["irdrop", 0, True, 0.0, 3.0],    # laid at [7, 10]
                 ["probe", 0, False, 9.0, 12.0]]   # overlaps irdrop
        times = metrics.span_times(spans)
        self.assertAlmostEqual(times[0][1], 3.0)
        self.assertEqual(times[1], (2.0, 2.0))

    def test_nested_self_time(self):
        spans = [["job", -1, False, 0.0, 4.0],
                 ["campaign", 0, False, 1.0, 4.0],
                 ["run", 1, False, 1.0, 3.5],
                 ["run", 1, False, 1.0, 3.0]]
        times = metrics.span_times(spans)
        self.assertEqual([t[1] for t in times], [1.0, 0.5, 2.5, 2.0])


class ParallelEfficiencyTest(unittest.TestCase):
    def test_single_campaign(self):
        self.assertAlmostEqual(
            metrics.parallel_efficiency([1.0, 1.0, 1.0, 1.0], [(4, 1.25)]), 0.8)

    def test_pool_width_per_campaign(self):
        # A 2-run campaign can keep only 2 of 4 threads busy.
        self.assertAlmostEqual(
            metrics.parallel_efficiency([1.0, 1.0, 2.0], [(2, 1.0), (1, 2.0)]),
            1.0)
        self.assertEqual(metrics.parallel_efficiency([], []), 0.0)


class ObjectiveGapTest(unittest.TestCase):
    def test_sense(self):
        self.assertAlmostEqual(metrics.objective_gap(90.0, 100.0, True), 0.1)
        self.assertAlmostEqual(metrics.objective_gap(110.0, 100.0, False), 0.1)
        # Beating the reference is a negative gap in either sense.
        self.assertAlmostEqual(metrics.objective_gap(105.0, 100.0, True), -0.05)
        self.assertAlmostEqual(metrics.objective_gap(95.0, 100.0, False), -0.05)

    def test_negative_reference(self):
        # QUBO minimization: reference -50, best -45 trails it by 10 %.
        self.assertAlmostEqual(metrics.objective_gap(-45.0, -50.0, False), 0.1)
        self.assertAlmostEqual(metrics.objective_gap(-55.0, -50.0, True), 0.1)

    def test_degenerate(self):
        self.assertIsNone(metrics.objective_gap(0.0, 0.0, False))
        self.assertEqual(metrics.objective_gap(None, 3.0, False), 1.0)
        self.assertEqual(metrics.objective_gap(math.nan, 3.0, True), 1.0)


def run():
    """Run the suite quietly; True when every test passes."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        __import__(__name__))
    result = unittest.TextTestRunner(verbosity=0, stream=_Null()).run(suite)
    for _, trace in result.failures + result.errors:
        print(trace)
    return result.wasSuccessful()


class _Null:
    def write(self, _):
        pass

    def flush(self):
        pass


if __name__ == "__main__":
    unittest.main()

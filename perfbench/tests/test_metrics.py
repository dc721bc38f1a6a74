"""Tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import metrics  # noqa: E402
from spans import NullTracer, Tracer, covered, self_times  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 0.9), (90, 10))
        self.assertEqual(metrics.percentile(values, 0.5), (50, 50))
        self.assertEqual(metrics.percentile(values, 1.0), (100, 0))

    def test_order_of_input_does_not_matter(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(metrics.percentile(values, 0.5), (3, 2))

    def test_small_sample_rounds_rank_up(self):
        # ceil(0.9 * 15) = 14: the 14th smallest, one sample beyond.
        self.assertEqual(metrics.percentile(range(15), 0.9), (13, 1))

    def test_failures_sort_last(self):
        values = [0.1] * 95 + [math.inf] * 5
        self.assertEqual(metrics.percentile(values, 0.9), (0.1, 10))
        values = [0.1] * 85 + [math.inf] * 15
        self.assertEqual(metrics.percentile(values, 0.9), (math.inf, 10))

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 0.0)


class FailShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(metrics.fail_share(0, 10), 0.0)
        self.assertEqual(metrics.fail_share(3, 100), 0.03)
        self.assertEqual(metrics.fail_share(7, 7), 1.0)

    def test_rejects_impossible_counts(self):
        for failed, attempted in ((1, 0), (-1, 5), (6, 5)):
            with self.assertRaises(ValueError):
                metrics.fail_share(failed, attempted)

    def test_end_to_end_counts_failures_against_attempts(self):
        latencies = [1.0] * 8 + [2.0, 3.0]
        failed = [False] * 9 + [True]
        e2e = metrics.end_to_end(latencies, failed, [0] * 10)
        self.assertEqual(e2e["ok_share"][0], 0.9)
        # Nine jobs completed in 13 s of busy time, the failure included.
        self.assertAlmostEqual(e2e["jobs_per_s"][0], 9 / 13)
        # The failed 3 s job counts as infinitely slow.
        self.assertEqual(e2e["job_s.p90"][0], 2.0)
        self.assertEqual(e2e["job_s.p50"][0], 1.0)
        self.assertIn("1 beyond", e2e["job_s.p90"][2])

    def test_throughput_is_the_median_over_rounds(self):
        # Rounds at 1, 2 and 10 jobs/s; the slow spell does not drag the
        # median the way it drags the pooled rate.
        latencies = [1.0, 1.0, 0.5, 0.5, 0.1, 0.1]
        e2e = metrics.end_to_end(latencies, [False] * 6, [0, 0, 1, 1, 2, 2])
        self.assertEqual(e2e["jobs_per_s"][0], 2.0)
        self.assertIn("median of 3 rounds", e2e["jobs_per_s"][2])

    def test_percentiles_are_medians_over_rounds(self):
        # Three rounds of ten jobs; the third ran in a slow spell.  Pooled,
        # its jobs would fill the tail and the 90th percentile would double.
        fast = [0.1] * 8 + [1.0, 2.0]
        slow = [0.5] * 8 + [5.0, 10.0]
        e2e = metrics.end_to_end(fast + fast + slow, [False] * 30,
                                 [0] * 10 + [1] * 10 + [2] * 10)
        self.assertEqual(e2e["job_s.p90"][0], 1.0)
        self.assertEqual(e2e["job_s.p50"][0], 0.1)
        self.assertIn("median of 3 rounds", e2e["job_s.p90"][2])
        self.assertIn("3 beyond", e2e["job_s.p90"][2])
        self.assertEqual(metrics.percentile(fast + fast + slow, 0.9)[0], 2.0)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]), 4)
        self.assertEqual(covered([]), 0)

    def test_self_time_subtracts_children(self):
        spans = [("job", 0.0, 10.0, None, "j"),
                 ("maps.search", 1.0, 3.0, 0, "j"),
                 ("cli.verify", 5.0, 6.0, 0, "j"),
                 ("job", 10.0, 12.0, None, "k"),
                 ("maps.search", 10.5, 11.0, 3, "k")]
        out = self_times(spans)
        self.assertAlmostEqual(out["job"], 7.0 + 1.5)
        self.assertAlmostEqual(out["maps.search"], 2.5)
        self.assertAlmostEqual(out["cli.verify"], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("job", 0.0, 4.0, None, "j"),
                 ("a", 1.0, 3.0, 0, "j"),
                 ("b", 2.0, 5.0, 0, "j")]
        self.assertAlmostEqual(self_times(spans)["job"], 1.0)

    def test_tracer_records_parent_and_failed_calls(self):
        tr = Tracer()
        tr.begin_job("j1")
        self.assertEqual(tr.call("x.f", lambda a: a + 1, 1), 2)
        with self.assertRaises(ZeroDivisionError):
            tr.call("x.g", lambda: 1 / 0)
        tr.count("x.items", 3)
        tr.end_job()
        names = [s[0] for s in tr.spans]
        self.assertEqual(names, ["job", "x.f", "x.g"])
        self.assertEqual({s[3] for s in tr.spans[1:]}, {0})
        self.assertEqual({s[4] for s in tr.spans}, {"j1"})
        job = tr.spans[0]
        self.assertTrue(all(job[1] <= s[1] <= s[2] <= job[2]
                            for s in tr.spans[1:]))
        self.assertEqual(tr.counts["x.items"], 3)

    def test_null_tracer_only_calls(self):
        tr = NullTracer()
        tr.begin_job("j")
        self.assertEqual(tr.call("x.f", max, 1, 2), 2)
        tr.count("x.items")
        tr.end_job()

    def test_busy_shares_split_job_time_by_self_time(self):
        spans = [("job", 0.0, 10.0, None, "j"),
                 ("maps.search", 1.0, 3.0, 0, "j"),
                 ("cli.verify", 5.0, 6.0, 0, "j"),
                 ("job", 10.0, 20.0, None, "k"),
                 ("maps.search", 10.0, 14.0, 3, "k")]
        out = metrics.busy_shares(spans)
        self.assertEqual(list(out), ["job", "maps.search", "cli.verify"])
        self.assertAlmostEqual(out["job"], 13 / 20)
        self.assertAlmostEqual(out["maps.search"], 6 / 20)
        self.assertAlmostEqual(out["cli.verify"], 1 / 20)
        self.assertAlmostEqual(sum(out.values()), 1.0)
        with self.assertRaises(ValueError):
            metrics.busy_shares([])

    def test_per_layer_divides_by_jobs(self):
        spans = [("job", 0.0, 4.0, None, "j"),
                 ("maps.search", 0.0, 1.0, 0, "j"),
                 ("maps.search", 1.0, 2.0, 0, "j"),
                 ("job", 4.0, 6.0, None, "k")]
        counts = {"maps.search_decided": 1, "spirals.cover_vertices": 30,
                  "spirals.input_edges": 10}
        out = metrics.per_layer(spans, counts, jobs=2)
        self.assertAlmostEqual(out["maps.search_s"][0], 1.0)
        self.assertEqual(out["maps.search_calls"][0], 1.0)
        self.assertEqual(out["maps.search_decided_ratio"][0], 0.5)
        self.assertEqual(out["spirals.vertices_per_edge"][0], 3.0)
        self.assertEqual(out["tower.top_vertices"][0], 0.0)


if __name__ == "__main__":
    unittest.main()

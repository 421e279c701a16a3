"""Tests of perfbench/run.py's aggregation over repetitions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import run


def rep(run_id, wall, setup=1.0, cpu=None, ops=100, p99=50.0, failed=0):
    return {
        "run_id": run_id, "attempted": ops, "failed": failed,
        "host": {"run_wall_s": wall, "run_cpu_s": cpu or wall,
                 "setup_s": setup, "peak_rss_mib": 64.0},
        "sim": {"ops": ops, "sim_ops_per_s": ops / 2.0, "sim_p50_us": 9.0,
                "sim_p99_us": p99, "latency_samples": ops, "tail_p": 90.0,
                "tail_us": 40.0},
        "layer": {"sim.events_per_op": 30.0, "core.check_s": wall / 10},
    }


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles_over_median(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.8, 10.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(run.quartile_spread([4.0] * 5), 0.0)

    def test_degenerate_inputs_read_zero(self):
        self.assertEqual(run.quartile_spread([3.0]), 0.0)
        self.assertEqual(run.quartile_spread([0.0, 0.0, 0.0]), 0.0)

    def test_median_of_even_count_averages_the_middle_pair(self):
        self.assertEqual(run.median([1.0, 4.0, 2.0, 3.0]), 2.5)


class StartAnother(unittest.TestCase):
    def test_minimum_repetitions_run_past_the_budget(self):
        self.assertTrue(run.start_another(0, 0.0, 10, 3))
        self.assertTrue(run.start_another(2, 40.0, 10, 3))

    def test_stops_when_the_next_would_end_past_the_budget(self):
        # three repetitions of 10 s each: a fourth would end at 40 s.
        self.assertTrue(run.start_another(3, 30.0, 40, 3))
        self.assertFalse(run.start_another(3, 30.0, 39, 3))

    def test_no_repetition_starts_after_the_deadline(self):
        self.assertFalse(run.start_another(1, run.START_DEADLINE_S, 1000, 3))


class EndToEnd(unittest.TestCase):
    def test_host_figures_are_listed_per_repetition(self):
        rows = [rep("a", 2.0, setup=1.0), rep("b", 5.0, setup=3.0),
                rep("c", 3.0, setup=2.0)]
        e2e = run.end_to_end(rows)
        self.assertEqual(e2e["run_wall_s"], [2.0, 5.0, 3.0])
        self.assertEqual(run.mean(e2e["setup_s"]), 2.0)
        # ops per host second is taken per repetition, then averaged.
        self.assertEqual(e2e["sim_ops_per_host_s"], [50.0, 20.0, 100 / 3.0])
        self.assertEqual(e2e["sim_p99_us"], [50.0])

    def test_mean_passes_identical_values_unchanged(self):
        x = 0.1 + 0.2
        self.assertEqual(run.mean([x] * 7), x)
        self.assertEqual(run.mean([2.0, 4.0, 9.0]), 5.0)

    def test_failures_count_against_attempted(self):
        rows = [rep("a", 1.0, ops=100, failed=5), rep("b", 1.0, ops=100)]
        self.assertEqual(run.end_to_end(rows)["completed_op_share"], [0.975])


class Determinism(unittest.TestCase):
    def test_identical_simulated_figures_pass(self):
        self.assertEqual(run.check_identical([rep("a", 1.0), rep("b", 2.0)],
                                             "reps"), [])

    def test_any_simulated_difference_fails(self):
        failures = run.check_identical(
            [rep("a", 1.0), rep("b", 1.0, p99=50.000001)], "reps")
        self.assertEqual(len(failures), 1)
        self.assertIn("b differs from a", failures[0])


class PerLayer(unittest.TestCase):
    def test_trace_overhead_compares_median_walls(self):
        untraced = [rep("u0", 2.0), rep("u1", 2.0)]
        traced = [rep("t0", 2.5), rep("t1", 2.6)]
        layer = run.per_layer(untraced, traced)
        self.assertAlmostEqual(layer["obs.trace_overhead"][0], 2.55 / 2.0 - 1)
        self.assertEqual(layer["core.check_s"], [0.25, 0.26])
        self.assertEqual(layer["workload.latency_samples"], [100])


if __name__ == "__main__":
    unittest.main()

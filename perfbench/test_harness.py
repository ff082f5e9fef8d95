"""Self-tests of the benchmark harness: `python3 perfbench/test_harness.py`.

The output checker's own tests (planted wrong and missing occurrences)
are Rust unit tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_reports_only_with_ten_samples_beyond(self):
        # p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        self.assertEqual(run.percentile(range(1000), 0.99), 989)
        self.assertIsNone(run.percentile(range(999), 0.99))
        # A median needs twenty samples.
        self.assertEqual(run.percentile(range(20), 0.5), 9)
        self.assertIsNone(run.percentile(range(19), 0.5))
        self.assertIsNone(run.percentile([], 0.5))

    def test_tail_falls_back_to_the_highest_reportable_percentile(self):
        self.assertEqual(run.tail(range(200)), (0.95, 189))
        with self.assertRaises(run.BenchError):
            run.tail(range(5))

    def test_window_p50_is_the_lower_quartile_of_per_second_medians(self):
        # Five seconds at 20/s, two of them slow.
        lat = [1000.0] * 20 + [9000.0] * 20 + [1100.0] * 20 + [8000.0] * 20 + [1200.0] * 20
        self.assertAlmostEqual(run.window_p50({"rate": 20, "latency_us": lat}), 1.05)


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["root", 0, 100, None, None],
            ["a", 10, 40, 0, 1],
            ["b", 30, 60, 0, 2],  # overlaps a: the union is covered once
            ["a.inner", 15, 20, 1, 1],
        ]
        self.assertEqual(run.self_times(spans), [50, 25, 30, 5])
        selfs, durs = run.layer_totals(spans)
        self.assertEqual(selfs["a"], 25)
        self.assertEqual(durs["a"], 30)

    def test_a_child_overrunning_its_parent_fails(self):
        spans = [["root", 0, 100, None, None], ["late", 90, 101, 0, None]]
        with self.assertRaises(run.BenchError):
            run.self_times(spans)


class LayerSum(unittest.TestCase):
    def test_overlapping_noise_passes(self):
        # Pipelines and `kmm map` walls (ns) from one map-a-k3 run: two
        # pipelines are slower than their own pair's `kmm map`.
        pipes = [3535e6, 3313e6, 3291e6, 3402e6, 2504e6]
        walls = [3677e6, 3330e6, 2992e6, 3003e6, 2522e6]
        run.check_layer_sum(pipes, walls)

    def test_a_double_counted_search_fails(self):
        walls = [3677e6, 3330e6, 2992e6, 3003e6, 2522e6]
        with self.assertRaises(run.BenchError):
            run.check_layer_sum([2 * w for w in walls], walls)


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

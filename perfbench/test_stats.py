"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The tracer's self-time accounting is tested in Rust:

    cargo test --offline --manifest-path perfbench/tracer/Cargo.toml
"""

import json
import os
import unittest

import run
import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 95), 95)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7.0], 95), 7.0)
        self.assertEqual(stats.percentile(reversed(xs), 95), 95)

    def test_ten_samples_beyond(self):
        # p95 needs 200 samples before ten of them lie beyond it.
        self.assertEqual(stats.min_samples_for(95), 200)
        self.assertEqual(stats.min_samples_for(99), 1000)
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertEqual(stats.samples_beyond(199, 95), 9)
        xs = list(range(200))
        p95 = stats.percentile(xs, 95)
        self.assertEqual(sum(1 for x in xs if x > p95), 10)

    def test_daemon_mixed_nominal_phase_is_large_enough(self):
        nominal, _, _ = run.mixed_phases(seed=1, seconds=1)
        self.assertGreaterEqual(stats.samples_beyond(len(nominal), 95), 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.median([])


class LatencyTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        due = {"a": 0.0, "b": 1.0, "c": 2.0}
        sent = {"a": 0.5, "b": 1.0, "c": 2.0}  # the sender stalled on "a"
        done = {"a": 1.0, "b": 1.2}            # "c" was never answered
        lat = stats.latencies_from_due(due, done)
        self.assertEqual(lat, {"a": 1.0, "b": 1.2 - 1.0})
        self.assertEqual(sorted(stats.sender_lag(due, sent)), [0.0, 0.0, 0.5])


class GoodputTest(unittest.TestCase):
    def test_refusals_and_late_answers_are_misses(self):
        outcomes = [
            (True, 0.10),   # good
            (True, 0.50),   # good: at the limit
            (True, 0.60),   # late
            (False, 0.01),  # refused (busy) or expired, however fast
            (False, None),  # failed
            (True, None),   # never answered
        ]
        self.assertEqual(stats.goodput_rps(outcomes, 0.5, 2.0), 1.0)
        with self.assertRaises(ValueError):
            stats.goodput_rps(outcomes, 0.5, 0.0)


class SlowdownTest(unittest.TestCase):
    def test_mean_reading_over_the_padded_interval(self):
        times = [0.0, 1.0, 2.0, 3.0, 10.0]
        readings = [100, 200, 300, 400, 1000]
        # [1.0, 2.0] padded by 0.5 takes the readings at 1.0, 2.0 only.
        self.assertEqual(stats.slowdown(times, readings, 1.0, 2.0, 100, pad_s=0.5), 2.5)
        # A short interval between readings reaches them through the pad.
        self.assertEqual(stats.slowdown(times, readings, 2.9, 3.0, 200, pad_s=0.1), 2.0)
        with self.assertRaises(ValueError):
            stats.slowdown(times, readings, 5.0, 6.0, 100, pad_s=0.5)
        with self.assertRaises(ValueError):
            stats.slowdown(times, readings, 2.0, 1.0, 100)

    def test_scaling_timings_and_rates(self):
        # The same work on cores running at half speed: the witness loop
        # takes twice as long, so the scaled timing and rate come back.
        slow = stats.slowdown([0.0, 1.0], [840_000, 840_000], 0.0, 1.0, 420_000)
        self.assertEqual(3.0 / slow, 1.5)
        self.assertEqual(10.0 * slow, 20.0)


class FailPctTest(unittest.TestCase):
    def test_base_is_requests_sent(self):
        self.assertEqual(stats.fail_pct(sent=10, answered_ok=9), 10.0)
        self.assertEqual(stats.fail_pct(sent=4, answered_ok=0), 100.0)
        self.assertEqual(stats.fail_pct(sent=240, answered_ok=240), 0.0)
        with self.assertRaises(ValueError):
            stats.fail_pct(sent=0, answered_ok=0)
        with self.assertRaises(ValueError):
            stats.fail_pct(sent=1, answered_ok=2)

    def test_ratio_and_geomean(self):
        self.assertEqual(stats.ratio_pct(1, 4), 25.0)
        self.assertEqual(stats.ratio_pct(3, 0), 0.0)
        self.assertAlmostEqual(stats.geomean([1.0, 4.0]), 2.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class InputsTest(unittest.TestCase):
    def test_streams_are_seeded(self):
        a = run.mixed_phases(seed=7, seconds=20)
        b = run.mixed_phases(seed=7, seconds=20)
        c = run.mixed_phases(seed=8, seconds=20)
        self.assertEqual(a, b)
        self.assertNotEqual(a[0], c[0])
        self.assertEqual(run.sub_seed(7, "dse"), run.sub_seed(7, "dse"))
        self.assertNotEqual(run.sub_seed(7, "dse"), run.sub_seed(8, "dse"))

    def test_stream_mix_overflows_the_request_memo(self):
        nominal, overload, phase_s = run.mixed_phases(seed=3, seconds=20)
        keys = [run.map_key(r) for _, _, r in nominal + overload]
        self.assertGreater(len(set(keys)), 256)
        self.assertLess(len(set(keys)), len(keys))  # exact repeats
        iters_only = {(k[0], k[1], k[3]) for k in keys}
        self.assertLess(len(iters_only), len(set(keys)))  # iters variants
        self.assertEqual(phase_s, run.OVERLOAD_SHARE * 20)
        self.assertTrue(all(r["deadline_ms"] == run.LATENCY_LIMIT_MS for _, _, r in overload))

    def test_nominal_phase_is_whole_blocks_of_one_mix(self):
        def mix(seed):
            nominal, _, _ = run.mixed_phases(seed=seed, seconds=28)
            return sorted((r["model"], r["batch"]) for _, _, r in nominal)
        block = len(run.MIX_POOL) + run.MIX_REPEATS + run.MIX_VARIANTS
        self.assertEqual(len(mix(1)) % block, 0)
        self.assertEqual(mix(1), mix(2))

    def test_canonical_payloads_ignore_number_spelling(self):
        self.assertEqual(run.canonical({"a": 1, "b": [2.0]}), run.canonical({"b": [2], "a": 1.0}))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()

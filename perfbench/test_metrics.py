"""Tests of the benchmark's own metric arithmetic.

Run from the repository root with `python3 -m pytest perfbench` or
`python3 -m unittest discover -s perfbench`. They use fake CLIs and
hand-made spans, so they do not need the solvers.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from metrics import Span  # noqa: E402
from tracing import Tracer  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_harrell_davis_on_evenly_spaced_times(self):
        times = [float(t) for t in range(1, 101)]
        self.assertAlmostEqual(metrics.percentile(times, 0, 50, 999.0), 50.5)
        self.assertAlmostEqual(metrics.percentile(times, 0, 90, 999.0), 90.5, places=6)
        self.assertAlmostEqual(metrics.percentile([0.25] * 7, 0, 90, 999.0), 0.25)
        self.assertEqual(metrics.samples_beyond(100, 90), 10)

    def test_incomplete_beta_closed_forms(self):
        for x in (0.1, 0.37, 0.8):
            self.assertAlmostEqual(metrics.betainc(1, 1, x), x)
            self.assertAlmostEqual(metrics.betainc(3.5, 1, x), x**3.5)
            self.assertAlmostEqual(metrics.betainc(1, 2.5, x), 1 - (1 - x) ** 2.5)
            self.assertAlmostEqual(metrics.betainc(40.4, 60.6, x) + metrics.betainc(60.6, 40.4, 1 - x), 1.0)

    def test_failures_rank_above_every_completed_request(self):
        completed = [0.1 * k for k in range(1, 10)]
        with_failure = metrics.percentile(completed, 1, 90, 99.0)
        self.assertGreater(with_failure, max(completed))
        self.assertGreater(metrics.percentile(completed[:8], 2, 90, 99.0), with_failure)

    def test_fast_failure_turned_success_never_looks_slower(self):
        completed = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.1]
        for q in (50, 90):
            before = metrics.percentile(completed, 1, q, 10.0)
            after = metrics.percentile(completed + [0.01], 0, q, 10.0)
            self.assertLessEqual(after, before)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0, 50, 1.0)
        for q in (0, 100):
            with self.assertRaises(ValueError):
                metrics.percentile([1.0], 0, q, 1.0)


class PerRequestTest(unittest.TestCase):
    def test_repeated_requests_take_their_median_and_failures_split_off(self):
        runs = [(0, "ok", 0.0), (1, "failed", 0.0), (2, "ok", 0.0), (0, "ok", 0.0), (0, "ok", 0.0), (1, "failed", 0.0)]
        completed, failed = metrics.per_request(runs, [1.0, 5.0, 2.0, 3.0, 9.0, 7.0])
        self.assertEqual(sorted(completed), [2.0, 3.0])
        self.assertEqual(failed, [6.0])

    def test_fail_and_completed_counts_are_per_distinct_request(self):
        runs = [(k % 3, "failed" if k % 3 == 1 else "ok", 0.0) for k in range(7)]
        completed, failed = metrics.per_request(runs, [1.0] * 7)
        self.assertEqual((len(completed), len(failed)), (2, 1))


class HostSpeedTest(unittest.TestCase):
    def test_a_slow_spell_cancels_out(self):
        nominal = hostspeed.NOMINAL_S
        times = [0.1] * 6 + [0.2] * 6
        kernel_times = [nominal] * 6 + [2 * nominal] * 6
        self.assertEqual(hostspeed.corrected(times, kernel_times, half_window=1), [0.1] * 6 + [0.1] * 6)

    def test_local_median_ignores_a_lone_slow_kernel_run(self):
        nominal = hostspeed.NOMINAL_S
        kernel_times = [nominal, nominal, 5 * nominal, nominal, nominal]
        self.assertEqual(hostspeed.corrected([0.5] * 5, kernel_times, half_window=2), [0.5] * 5)

    def test_one_kernel_time_per_timing(self):
        with self.assertRaises(ValueError):
            hostspeed.corrected([0.1, 0.2], [0.003])


class SpanTest(unittest.TestCase):
    def spans(self):
        # a [0,10] > b [1,4] > c [2,3];  a > d [5,9];  e [11,12] on its own.
        return [
            Span(2, "c", 2.0, 3.0, 1, 0),
            Span(1, "b", 1.0, 4.0, 0, 0),
            Span(3, "d", 5.0, 9.0, 0, 0, "guard"),
            Span(0, "a", 0.0, 10.0, None, 0),
            Span(4, "e", 11.0, 12.0, None, 1),
        ]

    def test_self_time_subtracts_children(self):
        selfs = metrics.self_times(self.spans())
        self.assertEqual(selfs, {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0})

    def test_overlapping_children_counted_once(self):
        spans = [
            Span(0, "p", 0.0, 10.0, None, 0),
            Span(1, "x", 1.0, 5.0, 0, 0),
            Span(2, "y", 3.0, 7.0, 0, 0),
        ]
        self.assertEqual(metrics.self_times(spans)[0], 4.0)

    def test_nested_calls_of_one_layer_are_busy_once(self):
        spans = [
            Span(0, "x", 0.0, 10.0, None, 0),
            Span(1, "y", 1.0, 8.0, 0, 0),
            Span(2, "x", 2.0, 5.0, 1, 0),
        ]
        stats = metrics.layer_stats(spans)
        self.assertEqual(stats["x"].calls, 2)
        self.assertEqual(stats["x"].busy_s, 10.0)
        self.assertEqual(stats["x"].self_s, 3.0 + 3.0)

    def test_guard_trips_and_coverage(self):
        stats = metrics.layer_stats(self.spans())
        self.assertEqual(stats["d"].guard_trips, 1)
        self.assertEqual(stats["a"].guard_trips, 0)
        # Children of the "a" root cover b (3) + d (4) of 10 seconds.
        self.assertEqual(metrics.top_level_coverage(self.spans(), "a", 10.0), 0.7)


class TracerTest(unittest.TestCase):
    def test_wrapper_records_parents_requests_and_guard_trips(self):
        class Guard(RuntimeError):
            pass

        tracer = Tracer(Guard)

        def inner(x):
            if x < 0:
                raise Guard("too big")
            return x

        traced_inner = tracer.wrap("inner", inner)
        traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) + 1)
        tracer.request = 7
        self.assertEqual(traced_outer(1), 2)
        with self.assertRaises(Guard):
            traced_outer(-1)
        by_layer = {}
        for s in tracer.spans:
            by_layer.setdefault(s.layer, []).append(s)
        outer, inner_spans = by_layer["outer"], by_layer["inner"]
        self.assertEqual([s.parent for s in inner_spans], [s.sid for s in outer])
        self.assertEqual({s.request for s in tracer.spans}, {7})
        self.assertEqual([s.status for s in inner_spans], ["ok", "guard"])
        self.assertEqual(len({s.sid for s in tracer.spans}), 4)


class FakeCli:
    """Stands in for `fairshare.cli`: exit code and output chosen by path."""

    def __init__(self, codes):
        self.codes = codes
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        print(json.dumps({"argv": argv}))
        return self.codes.get(argv[1], 0)


def _request(index, path):
    return types.SimpleNamespace(index=index, calls=[["shares", path]], allocation_path="")


class CountingTest(unittest.TestCase):
    def test_guard_exits_fail_and_bug_exits_abort(self):
        cli = FakeCli({"guard.json": 3, "bug.json": 1})
        reqs = [_request(0, "a.json"), _request(1, "guard.json"), _request(2, "b.json"), _request(3, "c.json")]
        values, raw, first, attempted, failed = run.measure(cli, reqs, seconds=0)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertEqual([r[0] for r in first], ["ok", "failed", "ok", "ok"])
        # The failure ranks last and counts as the time of all four requests,
        # which is also 3 completed requests over the throughput.
        self.assertGreater(raw["latency_p90_s"], raw["latency_p50_s"])
        self.assertLess(raw["latency_p90_s"], 3 / raw["throughput_rps"])
        with self.assertRaises(run.RequestError):
            run.run_request(cli, _request(9, "bug.json"))

    def test_null_share_rate_counts_verify_share_fields(self):
        def verify(*shares):
            return json.dumps({"bounds": {"agents": [{"shares": s} for s in shares]}})

        results = [
            ("ok", ["{}", verify({"aps": 3, "pessimistic": None}, {"aps": 2, "pessimistic": 2})], 0.1),
            ("ok", ["{}", verify({"aps": 1, "pessimistic": 1, "rank": 1, "tps": "1"})], 0.1),
            ("failed", ["{}"], 0.1),
        ]
        self.assertEqual(run.null_share_rate("allocate-verify", results), 1 / 8)
        self.assertEqual(run.null_share_rate("shares-large", results), 0.0)
        self.assertEqual(metrics.rate(0, 0), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics and workloads run.py reports."""

    def setUp(self):
        self.doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_workloads(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.doc["workloads"]],
            [(w.name, w.why) for w in run.workloads.WORKLOADS.values()],
        )

    def test_end_to_end_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.doc["end_to_end"]}, run.END_TO_END)

    def test_per_layer_metrics(self):
        reported = run.layer_metrics("shares-large", [], [], [], 1.0, 1.0)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.doc["per_layer"]},
            {name: unit for name, (_, unit) in reported.items()},
        )


if __name__ == "__main__":
    unittest.main()

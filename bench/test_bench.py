"""Self-checks for the benchmark's tracer, output checks and metric names.

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import json
import unittest
from dataclasses import replace

import run_bench
import tracing

run_bench.locate_geniesim()

from geniesim import genie, harness, model, objectmap, simnet, workload  # noqa: E402
from geniesim.model import Header, ImageRef, Message, PayloadKind, Topic  # noqa: E402

TINY = run_bench.Workload("loop", 1, 40, ("AGX",), 0.5, 0.0)


def span(name: str, start: float, end: float, parent: int = -1) -> tracing.Span:
    return tracing.Span(name, start, end, parent, None)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("harness.run_built_scenario", 0.0, 10.0),
            span("simnet.run_until", 1.0, 9.0, parent=0),
            span("genie.on_message", 2.0, 6.0, parent=1),
            span("model.content_key", 3.0, 4.0, parent=2),
            span("genie.on_message", 6.5, 8.5, parent=1),
        ]
        self.assertEqual(tracing.self_times(spans), [2.0, 2.0, 3.0, 1.0, 2.0])
        stats = tracing.aggregate(spans)
        self.assertEqual(stats["genie.on_message"].calls, 2)
        self.assertEqual(stats["genie.on_message"].total_s, 6.0)
        self.assertEqual(stats["genie.on_message"].self_s, 5.0)
        layers = tracing.layer_self_s(stats)
        self.assertEqual(layers, {
            "model": 1.0, "simnet": 2.0, "genie": 5.0,
            "objectmap": 0.0, "workload": 0.0, "harness": 2.0,
        })
        # self times partition the root spans' duration
        self.assertEqual(sum(layers.values()), 10.0)


WRAPPED = [
    (simnet.Fabric, "run_until"),
    (simnet.Fabric, "publish"),
    (simnet.EventQueue, "push"),
    (genie.GenieNode, "on_message"),
    (genie.TopicCacheDB, "purge_expired"),
    (genie.TopicCacheDB, "add_waiter"),
    (genie.TopicCacheDB, "fill"),
    (model, "content_key"),
    (genie, "content_key"),
    (objectmap.ObjectMapStore, "augment"),
    (objectmap.ObjectMapStore, "ingest"),
    (workload, "synth_trace"),
    (workload.DetectorNode, "on_message"),
    (harness, "build_genie_scenario"),
    (harness, "run_built_scenario"),
    (harness.ConsumerNode, "on_message"),
    (harness, "collect_report"),
    (harness, "emit_report"),
]


class Wrappers(unittest.TestCase):
    def test_wrappers_removed_after_tracing(self):
        originals = [vars(owner)[attr] for owner, attr in WRAPPED]
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            for (owner, attr), original in zip(WRAPPED, originals):
                self.assertIsNot(vars(owner)[attr], original, f"{owner.__name__}.{attr}")
            run_bench.run_rep(TINY, 7, run_bench.OUT / "selftest")
        finally:
            tracer.restore()
        for (owner, attr), original in zip(WRAPPED, originals):
            self.assertIs(vars(owner)[attr], original, f"{owner.__name__}.{attr}")
        self.assertIn("genie.on_message", {s.name for s in tracer.spans})
        before = len(tracer.spans)
        run_bench.run_rep(TINY, 7, run_bench.OUT / "selftest")
        self.assertEqual(len(tracer.spans), before)

    def test_both_content_key_import_sites_counted(self):
        msg = Message(Header("car1/camera", 3, 0.0), Topic("/image", PayloadKind.IMAGE),
                      ImageRef("f1"))
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            model.content_key(msg)
            genie.content_key(msg)
            genie.DedupFilter().offer(0.0, msg)
        finally:
            tracer.restore()
        keyed = [s for s in tracer.spans if s.name == "model.content_key"]
        self.assertEqual(len(keyed), 3)
        self.assertEqual({s.key for s in keyed}, {("car1/camera", 3)})


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rep, _, cls.report = run_bench.run_rep(TINY, 7, run_bench.OUT / "selftest")

    def test_clean_run_passes(self):
        self.assertEqual(self.rep.failures, [])
        self.assertEqual(self.rep.incomplete, 0)

    def test_counter_mismatch_fails(self):
        name = sorted(self.report.per_genie)[0]
        per_genie = dict(self.report.per_genie)
        per_genie[name] = dict(per_genie[name], hits=per_genie[name]["hits"] + 1)
        _, failures = run_bench.check_report(replace(self.report, per_genie=per_genie))
        self.assertTrue(any("hits" in f for f in failures), failures)

    def test_duplicate_sample_fails(self):
        samples = self.report.samples + self.report.samples[:1]
        _, failures = run_bench.check_report(replace(self.report, samples=samples))
        self.assertTrue(any("incomplete" in f for f in failures), failures)

    def test_missing_sample_counts_incomplete(self):
        incomplete, failures = run_bench.check_report(
            replace(self.report, samples=self.report.samples[1:])
        )
        self.assertEqual((incomplete, failures), (1, []))

    def test_fast_hit_fails(self):
        hit = next(s for s in self.report.samples if s.via == "hit")
        fast = replace(hit, latency_ms=hit.latency_ms / 2)
        samples = [fast if s is hit else s for s in self.report.samples]
        _, failures = run_bench.check_report(replace(self.report, samples=samples))
        self.assertTrue(any("hit_overhead_ms" in f for f in failures), failures)


class MetricNames(unittest.TestCase):
    def test_emitted_metrics_match_benchmark_json(self):
        spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        out = run_bench.measure("selftest", TINY, 7, 0.0)
        e2e = run_bench.end_to_end(out)
        per_layer = run_bench.traced_rep(out)
        self.assertTrue(out.correct, out.failures)
        self.assertEqual({k: u for k, (_, u) in e2e.items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertEqual({k: u for k, (_, u) in per_layer.items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run_bench.WORKLOADS))
        self.assertGreaterEqual(per_layer["trace.unattributed_s"][0], 0.0)


if __name__ == "__main__":
    unittest.main()

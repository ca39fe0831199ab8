"""geniesim benchmark: host time per simulated frame on three workloads.

Each workload is built with ``synth_trace`` -> ``build_genie_scenario`` ->
``run_built_scenario`` -> ``emit_report`` in this one process and thread.
The benchmark generates the trace from ``--seed``; the simulator receives
only the generated config and trace.

    python3 bench/run_bench.py                       # all workloads, seed 7
    python3 bench/run_bench.py --workload loop --seed 3 --seconds 20 --trace 1
    python3 bench/run_bench.py --record-reference    # re-record reference.json

With ``--trace 0`` the run measures end-to-end metrics untraced; with
``--trace 1`` it also replays the workload once more with every layer's
entry points wrapped (see ``tracing.py``) and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from hostspeed import NOMINAL_PROBE_S, PlainTimer, SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
DEMO = ROOT / "scenarios" / "demo.json"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 30
MIN_REPS = 3
# hit latency is (t0 + overhead) - t0 in floating point, which can land a
# few ulps below the overhead itself
HIT_LATENCY_SLACK_MS = 1e-9


@dataclass(frozen=True)
class Workload:
    route: str
    cars: int
    frames: int
    edges: tuple[str, ...]
    overlap: float
    edge_latency_ms: float

    def config(self, seed: int):
        from geniesim import harness

        return harness.ScenarioConfig(
            n_cars=self.cars,
            edge_devices=self.edges,
            synth=harness.SynthSpec(
                route=self.route, n_frames=self.frames, overlap_fraction=self.overlap
            ),
            seed=seed,
            edge_latency_ms=self.edge_latency_ms,
        )

    def describe(self) -> str:
        return (
            f"{self.route}, {self.cars} cars x {self.frames} frames, "
            f"edges {'+'.join(self.edges)}, overlap {self.overlap}"
        )


# Each workload puts most of the work on one layer and almost none on another
# (README.md has the full map):
#   corridor  the paper's own case: fleet sharing, hits and misses, edge
#             answers and object-map fusion in one run
#   disjoint  nothing shared, every request misses: the fabric and the
#             genie's miss/pending path carry the work, augment never runs
#   loop      hit-dominated with a long-lived object map: augment carries the
#             work, almost no edge traffic
WORKLOADS = {
    "corridor": Workload("shared-corridor", 4, 100, ("AGX", "A4500"), 0.5, 5.0),
    "disjoint": Workload("disjoint", 8, 30, ("AGX",), 0.0, 0.0),
    "loop": Workload("loop", 1, 1500, ("AGX",), 0.9, 0.0),
}


@dataclass
class Rep:
    """One replay of a workload: timings, output digest and check results."""

    setup_s: float  # synth_trace + build_genie_scenario
    run_s: float  # replay to emitted report, host-speed probes excluded
    frames: int
    incomplete: int
    digest: str
    failures: list[str]
    summary: dict
    # at nominal host speed (see hostspeed.py), for sampled reps only
    nominal_setup_s: float | None = None
    nominal_run_s: float | None = None
    probe_s: float | None = None  # median host-speed probe


@dataclass
class Outcome:
    """What one invocation measured for one workload."""

    name: str
    workload: Workload
    seed: int
    reps: list[Rep] = field(default_factory=list)  # timed reps
    extra: list[Rep] = field(default_factory=list)  # warm-up, reference, traced
    peak_rss_mb: float = 0.0
    reference: str | None = None  # digest at DEFAULT_SEED
    failures: list[str] = field(default_factory=list)

    def all_reps(self) -> list[Rep]:
        return self.extra + self.reps

    @property
    def attempted(self) -> int:
        return sum(r.frames for r in self.all_reps())

    @property
    def failed(self) -> int:
        return sum(r.frames if r.failures else r.incomplete for r in self.all_reps())

    @property
    def correct(self) -> bool:
        return not self.failures and not any(r.failures for r in self.all_reps())


def locate_geniesim() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "geniesim" / "__init__.py").is_file():
        sys.stderr.write(f"geniesim sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import geniesim

    if Path(geniesim.__file__).resolve().parent != SRC / "geniesim":
        sys.stderr.write(f"imported geniesim from {geniesim.__file__}, not {SRC}\n")
        sys.exit(2)


# -- output checks ---------------------------------------------------------------


def check_report(report) -> tuple[int, list[str]]:
    """(incomplete requests, failed checks) for one synthetic-trace report.

    Every car of a synthetic trace replays ``synth.n_frames`` frames as
    requests ``(car, 0..n-1)``, so the expected request set is derived from
    the config alone, independent of the simulator's own counting.
    """
    failures = []
    for name, g in report.per_genie.items():
        if g["hits"] + g["misses"] != g["requests"]:
            failures.append(
                f"{name}: hits {g['hits']} + misses {g['misses']} != requests {g['requests']}"
            )
    cfg = report.config
    expected = {(f"car{c + 1}", i) for c in range(cfg.n_cars) for i in range(cfg.synth.n_frames)}
    answered = [(s.car, s.seq) for s in report.samples]
    incomplete = len(expected - set(answered))
    if report.total_requests != len(expected) or len(answered) + incomplete != len(expected):
        failures.append(
            f"completed {len(answered)} + incomplete {incomplete} != "
            f"trace requests {len(expected)} (report says {report.total_requests})"
        )
    floor = cfg.hit_overhead_ms - HIT_LATENCY_SLACK_MS
    fast = sum(1 for s in report.samples if s.via == "hit" and s.latency_ms < floor)
    if fast:
        failures.append(f"{fast} hit samples below hit_overhead_ms {cfg.hit_overhead_ms}")
    return incomplete, failures


def emitted(report, out_dir: Path) -> tuple[str, dict]:
    """sha256 and parsed content of the emitted summary.json."""
    data = (out_dir / "summary.json").read_bytes()
    return hashlib.sha256(data).hexdigest(), json.loads(data)


# -- one replay ------------------------------------------------------------------


def run_rep(w: Workload, seed: int, out_dir: Path, sampled: bool = False):
    """Set up and replay ``w`` once; returns (Rep, scenario, report).

    With ``sampled``, host speed is sampled during the replay.  Calls go
    through module attributes so that the traced run's wrappers are seen.
    """
    from geniesim import harness, workload

    timer = SpeedSampler if sampled else PlainTimer
    with timer() as setup:
        trace = workload.synth_trace(
            n_cars=w.cars, route=w.route, n_frames=w.frames, overlap_fraction=w.overlap, seed=seed
        )
        scenario = harness.build_genie_scenario(w.config(seed), trace)
    with timer() as run:
        report = harness.run_built_scenario(scenario, "DG")
        harness.emit_report(report, out_dir)
    incomplete, failures = check_report(report)
    digest, summary = emitted(report, out_dir)
    rep = Rep(setup.work_s, run.work_s, len(trace.frames), incomplete, digest, failures, summary)
    if sampled:
        rep.nominal_setup_s, rep.nominal_run_s = setup.nominal_s, run.nominal_s
        rep.probe_s = run.probe_s
    return rep, scenario, report


def measure(name: str, w: Workload, seed: int, seconds: float) -> Outcome:
    """Warm up once, then replay until ``seconds`` have passed."""
    out = Outcome(name, w, seed)
    out_dir = OUT / name
    warm, _, _ = run_rep(w, seed, out_dir)
    out.extra.append(warm)
    # taken after one replay in a fresh process, so it does not depend on how
    # many reps the time budget allowed
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
    deadline = time.perf_counter() + seconds
    while len(out.reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        rep, _, _ = run_rep(w, seed, out_dir, sampled=True)
        out.reps.append(rep)
    if seed == DEFAULT_SEED:
        out.reference = warm.digest
    else:
        ref, _, _ = run_rep(w, DEFAULT_SEED, OUT / f"{name}-seed{DEFAULT_SEED}")
        out.extra.append(ref)
        out.reference = ref.digest
    digests = {r.digest for r in out.reps} | {warm.digest}
    if len(digests) != 1:
        out.failures.append(f"summary.json differs between reps at seed {seed}: {sorted(digests)}")
    return out


def frames_per_s(rep: Rep) -> float:
    return rep.frames / rep.run_s


def norm_frames_per_s(rep: Rep) -> float:
    return rep.frames / rep.nominal_run_s


def end_to_end(out: Outcome) -> dict[str, tuple[float, str]]:
    """The gated metrics.  Times are taken at nominal host speed (see
    hostspeed.py); the raw ones are printed alongside."""
    reps = out.reps
    frames = sum(r.frames for r in reps)
    return {
        "norm_frames_per_s": (statistics.median(norm_frames_per_s(r) for r in reps), "frames/s"),
        "setup_s": (statistics.median(r.nominal_setup_s for r in reps), "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MiB"),
        "completed_fraction": ((frames - sum(r.incomplete for r in reps)) / frames, "ratio"),
    }


# -- traced run --------------------------------------------------------------------

# entry points whose calls and self time are per-layer metrics
ENTRY_METRICS = (
    "simnet.run_until",
    "simnet.publish",
    "genie.on_message",
    "genie.purge_expired",
    "genie.add_waiter",
    "genie.fill",
    "model.content_key",
    "objectmap.augment",
    "objectmap.ingest",
    "workload.detector",
    "harness.run_built_scenario",
    "harness.consumer",
)


def traced_rep(out: Outcome) -> dict[str, tuple[float, str]]:
    """Replay once with every layer wrapped; per-layer metrics plus the
    printed table.  Spans are written to ``.bench_out/<name>/spans.jsonl``."""
    tracer = tracing.Tracer()
    gauges = tracing.instrument(tracer)
    gc.collect()
    try:
        t0 = time.perf_counter()
        rep, scenario, report = run_rep(out.workload, out.seed, OUT / out.name)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    out.extra.append(rep)
    if rep.digest != out.reps[0].digest:
        out.failures.append("traced replay changed summary.json")
    tracer.write(OUT / out.name / "spans.jsonl")

    stats = tracing.aggregate(tracer.spans)
    layers = tracing.layer_self_s(stats)
    attributed = sum(layers.values())
    frames = rep.frames

    def entry(name: str) -> tracing.EntryStats:
        return stats.get(name, tracing.EntryStats())

    genies = scenario.genies.values()
    maps = [g.object_map for g in genies if g.object_map is not None]
    img_hits, img_requests = report.reuse("image")
    obj_hits, obj_requests = report.reuse("object")
    deliveries = len(scenario.fabric.deliveries)
    offers = sum(c.dedup.accepted + c.dedup.discarded for c in scenario.consumers.values())
    discarded = sum(c.dedup.discarded for c in scenario.consumers.values())
    fabric_self = entry("simnet.run_until").self_s + entry("simnet.publish").self_s
    untraced_fps = statistics.median(frames_per_s(r) for r in out.reps)

    m: dict[str, tuple[float, str]] = {}
    for name in ENTRY_METRICS:
        m[f"{name}.calls"] = (entry(name).calls, "count")
        m[f"{name}.self_s"] = (entry(name).self_s, "s")
    for layer, self_s in layers.items():
        m[f"{layer}.self_s"] = (self_s, "s")
    m.update({
        "simnet.deliveries_per_frame": (deliveries / frames, "1/frame"),
        "simnet.us_per_delivery": (fabric_self / deliveries * 1e6 if deliveries else 0.0, "us"),
        "simnet.queue_peak": (gauges["queue_peak"], "count"),
        "genie.expired": (tracer.returned["genie.purge_expired"], "count"),
        "genie.requests": (sum(g.counters.requests for g in genies), "count"),
        "genie.requests_per_frame": (sum(g.counters.requests for g in genies) / frames, "1/frame"),
        "genie.image_requests": (img_requests, "count"),
        "genie.image_hit_ratio": (img_hits / img_requests if img_requests else 0.0, "ratio"),
        "genie.pending_after_drain": (sum(g.db.pending_count() for g in genies), "count"),
        "model.content_key.calls_per_frame": (entry("model.content_key").calls / frames, "1/frame"),
        "objectmap.object_requests": (obj_requests, "count"),
        "objectmap.object_hit_ratio": (obj_hits / obj_requests if obj_requests else 0.0, "ratio"),
        "objectmap.cells": (sum(len(s.cells) for s in maps), "count"),
        "objectmap.boost_records": (sum(len(s.boost_records) for s in maps), "count"),
        "workload.synth_trace_s": (entry("workload.synth_trace").total_s, "s"),
        "harness.build_s": (entry("harness.build_genie_scenario").total_s, "s"),
        "harness.collect_report_s": (entry("harness.collect_report").total_s, "s"),
        "harness.emit_report_s": (entry("harness.emit_report").total_s, "s"),
        "harness.dedup_offers": (offers, "count"),
        "harness.dedup_discard_ratio": (discarded / offers if offers else 0.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - attributed, "s"),
        "trace.overhead": (untraced_fps / (frames / rep.run_s), "ratio"),
    })

    print(f"traced replay: {len(tracer.spans)} spans, wall {wall:.4f} s, "
          f"overhead x{m['trace.overhead'][0]:.2f} on frames_per_s")
    print(f"  {'entry point':32} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name in sorted(stats):
        e = stats[name]
        print(f"  {name:32} {e.calls:9d} {e.total_s:10.4f} {e.self_s:10.4f}")
    for layer, self_s in layers.items():
        print(f"  layer {layer:26} {'':9} {'':10} {self_s:10.4f}")
    print(f"  {'unattributed':32} {'':9} {'':10} {wall - attributed:10.4f}")
    if wall - attributed < 0:
        out.failures.append(f"layer self times {attributed} exceed traced wall time {wall}")
    return m


# -- reference digests ---------------------------------------------------------------


def demo_digests() -> tuple[dict[str, str], list[str]]:
    """Run scenarios/demo.json through compare_baselines; (mode -> summary
    sha256, failed checks)."""
    from geniesim import harness

    reports = harness.compare_baselines(harness.ScenarioConfig.from_json_file(DEMO))
    digests, failures = {}, []
    for mode, report in reports.items():
        out_dir = OUT / "demo" / mode
        harness.emit_report(report, out_dir)
        digests[mode], _ = emitted(report, out_dir)
        failures += [f"demo {mode}: {f}" for f in check_report(report)[1]]
    return digests, failures


def record_reference() -> None:
    workloads = {}
    for name, w in WORKLOADS.items():
        rep, _, _ = run_rep(w, DEFAULT_SEED, OUT / name)
        if rep.failures:
            raise SystemExit(f"{name}: {rep.failures}")
        workloads[name] = rep.digest
    demo, failures = demo_digests()
    if failures:
        raise SystemExit(str(failures))
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": workloads, "demo": demo}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE}")


def match(digest: str, expected: str | None) -> str:
    return "match" if digest == expected else f"MISMATCH (reference {expected})"


# -- reporting -----------------------------------------------------------------------


def quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median of {len(values)} reps, q1 {q1:.2f}, q3 {q3:.2f}"


def print_outcome(out: Outcome, e2e: dict[str, tuple[float, str]], reference: dict) -> None:
    reps = out.reps
    fps = [frames_per_s(r) for r in reps]
    norm = [norm_frames_per_s(r) for r in reps]
    frames = sum(r.frames for r in reps)
    incomplete = sum(r.incomplete for r in reps)
    print(f"== {out.name}: {out.workload.describe()}, seed {out.seed} ==")
    print(f"  frames_per_s        {statistics.median(fps):.2f} frames/s ({quartiles(fps)})")
    print(f"  norm_frames_per_s   {e2e['norm_frames_per_s'][0]:.2f} frames/s ({quartiles(norm)}; "
          f"probe median {statistics.median(r.probe_s for r in reps) * 1e3:.2f} ms, "
          f"nominal {NOMINAL_PROBE_S * 1e3:.0f} ms)")
    print(f"  setup_s             {e2e['setup_s'][0]:.5f} s at nominal host speed "
          f"(median of {len(reps)} set-ups; raw {statistics.median(r.setup_s for r in reps):.5f} s)")
    print(f"  peak_rss_mb         {e2e['peak_rss_mb'][0]:.2f} MiB (after the first replay)")
    print(f"  incomplete_fraction {incomplete / frames:.6f} "
          f"({incomplete} of {frames} requests over {len(reps)} reps)")
    print(f"  completed_fraction  {e2e['completed_fraction'][0]:.6f}")
    failures = out.failures + [f for r in out.all_reps() for f in r.failures]
    print("  checks              " + ("pass" if not failures else "FAIL: " + "; ".join(failures)))
    print(f"  summary sha256      {reps[0].digest}")
    print(f"  seed {DEFAULT_SEED} digest       {out.reference} "
          f"{match(out.reference, reference['workloads'].get(out.name))}")
    t = reps[0].summary["totals"]
    r = reps[0].summary["reuse"]
    print("  simulated (information only; model unvalidated): "
          f"latency p50 {t['latency_ms']['p50']:.3f} ms, p99 {t['latency_ms']['p99']:.3f} ms, "
          f"deadline-miss {t['deadline_miss_fraction']:.4f}, "
          f"imgrr {r['imgrr']['overall']:.4f}, objrr {r['objrr']['overall']:.4f}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from the current sources and exit")
    args = parser.parse_args(argv)
    locate_geniesim()
    if args.record_reference:
        record_reference()
        return 0
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        out = measure(name, WORKLOADS[name], args.seed, args.seconds)
        e2e = end_to_end(out)
        metrics = traced_rep(out) if args.trace else e2e
        print_outcome(out, e2e, reference)
        outcomes.append((out, metrics))
    demo, demo_failures = demo_digests()
    print("demo (scenarios/demo.json via compare_baselines): " + ", ".join(
        f"{mode} {digest[:16]} {match(digest, reference['demo'].get(mode))}"
        for mode, digest in demo.items()
    ))
    if demo_failures:
        print("demo checks FAIL: " + "; ".join(demo_failures))
    for out, metrics in outcomes:
        correct = out.correct and not demo_failures
        print(result_line(correct, out.attempted, out.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values are either measured device latencies asserted exactly,
or derived here from independent oracles (brute-force counters, direct
formula evaluation, fresh detector-stub invocations) and never from the
code paths under test.
"""

import random
import statistics

import pytest

from geniesim.genie import DedupFilter, GenieRole
from geniesim.harness import (
    ObjectMapParams,
    ScenarioConfig,
    SynthSpec,
    build_genie_scenario,
    compare_baselines,
    emit_report,
    run_scenario,
)
from geniesim.model import ObjectList
from geniesim.objectmap import (
    ObjectMapStore,
    UpdateRule,
    apply_update,
    quantize,
    share_filter,
)
from geniesim.simnet import Fabric, SimNode
from geniesim.workload import (
    DEFAULT_PROFILES,
    DetectorNode,
    OomError,
    detector_stub,
    synth_trace,
)
from conftest import OBJECTS, image_message, obj
from oracles import count_repeats, payload_bytes, strip_map_objects


def ok(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_device_profile_fidelity():
    nano, a4500 = DEFAULT_PROFILES["Nano"], DEFAULT_PROFILES["A4500"]
    assert nano.latency_ms("YOLOv8s") == 27.60
    assert a4500.latency_ms("YOLOv8s") == 5.50
    assert a4500.latency_ms("DETR-ResNet-101") == 40.73
    speedup = nano.latency_ms("YOLOv8s") / a4500.latency_ms("YOLOv8s")
    assert abs(speedup - 5.02) <= 0.01
    with pytest.raises(OomError):
        nano.latency_ms("DETR-ResNet-101-DC5")
    ok("criterion 1: device profile fidelity (means exact, speedup 5.02 +/- 0.01, OOM raised)")


def test_criterion_2_cache_answers_byte_identical_to_detector():
    config = ScenarioConfig(
        n_cars=1,
        synth=SynthSpec(route="loop", n_frames=500, overlap_fraction=0.5),
        seed=21,
    )
    scenario = build_genie_scenario(config)
    trace = scenario.trace
    from geniesim.harness import run_built_scenario

    report = run_built_scenario(scenario, "DG")
    profile = DEFAULT_PROFILES[config.car_device]
    hit_samples = [s for s in report.samples if s.via == "hit"]
    assert len(hit_samples) == count_repeats(trace, "car1")  # exhaustive
    for sample in hit_samples:
        frame = trace.by_car["car1"][sample.seq]
        oracle, _ = detector_stub(
            frame.image_id, frame.truths, frame.pose, profile, config.model
        )
        got = strip_map_objects(sample.message).payload
        assert payload_bytes(got) == payload_bytes(oracle), frame.image_id
    ok(
        f"criterion 2: all {len(hit_samples)} cache-hit payloads byte-identical "
        "to detector output for their digest"
    )


def test_criterion_3_reuse_ratio_analytics():
    loop_config = ScenarioConfig(
        n_cars=1,
        synth=SynthSpec(route="loop", n_frames=200, overlap_fraction=0.5),
        seed=13,
    )
    scenario = build_genie_scenario(loop_config)
    from geniesim.harness import run_built_scenario

    report = run_built_scenario(scenario, "DG")
    trace = scenario.trace
    repeats = count_repeats(trace, "car1")  # brute-force oracle
    hits, requests = report.reuse("image", "local")
    assert (hits, requests) == (repeats, len(trace.by_car["car1"]))
    assert report.reuse_ratio("image", "local") == repeats / len(trace.by_car["car1"])

    corridor = ScenarioConfig(
        n_cars=3,
        synth=SynthSpec(
            route="shared-corridor", n_frames=60, overlap_fraction=0.4, stagger_ms=1000.0
        ),
        seed=13,
    )
    corridor_report = run_scenario(corridor)
    locals_ = [
        (stats["reuse"]["image"][0] / stats["reuse"]["image"][1])
        for name, stats in corridor_report.per_genie.items()
        if corridor_report.genie_scopes[name] == "local" and stats["reuse"]["image"][1]
    ]
    remote = corridor_report.reuse_ratio("image", "remote")
    assert remote > 0.0
    assert remote >= max(locals_)
    ok(
        f"criterion 3: loop IMGRR exactly {repeats}/{len(trace.by_car['car1'])}; "
        f"corridor remote IMGRR {remote:.3f} >= max local {max(locals_):.3f}"
    )


def test_criterion_4_latency_ordering_and_hit_budget():
    config = ScenarioConfig(
        n_cars=1,
        car_device="Nano",
        edge_devices=("A4500",),
        model="DETR-ResNet-50",
        synth=SynthSpec(route="loop", n_frames=400, overlap_fraction=0.5),
        seed=17,
    )
    reports = compare_baselines(config)
    means = {mode: statistics.fmean(r.latencies()) for mode, r in reports.items()}
    assert means["DG"] < means["R"] < means["L"]

    hit_lat = reports["DG"].hit_latencies()
    assert hit_lat
    for latency in hit_lat:
        assert latency == pytest.approx(config.hit_overhead_ms, abs=1e-6)

    # analytic improvement: h*(L_det - L_hit) + (1-h)*(L_det - miss_path),
    # evaluated from configured constants, never from the simulator
    trace = build_genie_scenario(config).trace
    h = count_repeats(trace, "car1") / len(trace.by_car["car1"])
    l_det = DEFAULT_PROFILES["Nano"].latency_ms("DETR-ResNet-50")
    r_det = DEFAULT_PROFILES["A4500"].latency_ms("DETR-ResNet-50")
    miss_path = 2 * config.miss_overhead_ms + 2 * config.answer_overhead_ms + r_det
    expected = h * (l_det - config.hit_overhead_ms) + (1 - h) * (l_det - miss_path)
    measured = means["L"] - means["DG"]
    assert abs(measured - expected) / expected <= 0.05
    ok(
        f"criterion 4: mean DG {means['DG']:.2f} < R {means['R']:.2f} < L {means['L']:.2f} ms; "
        f"hit path {statistics.fmean(hit_lat):.2f} ms; improvement within 5% of analytic"
    )


def test_criterion_5_confidence_update_arithmetic():
    assert apply_update(UpdateRule.VERBATIM, 0.5, 0.3, 0.1) == pytest.approx(0.52)
    assert apply_update(UpdateRule.EMA, 0.5, 0.9, 0.1) == pytest.approx(0.54)
    assert apply_update(UpdateRule.ASCEND, 0.5, 0.0, 0.1) == pytest.approx(0.55)
    for rule in UpdateRule:
        for stored in (0.0, 0.01, 0.99, 1.0):
            for observed in (0.0, 1.0):
                assert 0.0 <= apply_update(rule, stored, observed, 1.0) <= 1.0
    ok("criterion 5: update rules pinned (0.52 / 0.54 / 0.55) and clamped to [0, 1]")


def test_criterion_6_high_confidence_guarantee():
    rng = random.Random(99)
    checked_filter = checked_augment = 0
    for _ in range(10_000):
        threshold = rng.choice([0.0, 0.3, 0.6, rng.random(), 1.0])
        store = ObjectMapStore(confidence_threshold=threshold, relevance_radius_m=6.0)
        for i in range(rng.randint(0, 5)):
            conf = rng.choice([threshold, rng.random()])  # boundary case included
            location = (rng.uniform(-4, 4) + 0.21, rng.uniform(-4, 4) + 0.21, 0.2)
            store.cells.setdefault(quantize(location, 0.5), []).append(
                obj(f"o{i}", conf, location)
            )
        entry = ObjectList(
            tuple(
                obj(f"e{j}", rng.random(), (rng.uniform(-4, 4), rng.uniform(-4, 4), 0.2))
                for j in range(rng.randint(0, 3))
            )
        )
        augmented = store.augment(entry)
        for added in augmented.objects[len(entry.objects):]:
            checked_augment += 1
            assert added.confidence >= threshold
            assert added.from_map
        shared = share_filter(ObjectList(tuple(o for c in store.cells.values() for o in c)), threshold)
        for o in shared.objects:
            checked_filter += 1
            assert o.confidence >= threshold
    assert checked_filter > 0 and checked_augment > 0
    ok(
        f"criterion 6: over 10^4 random map states every shared object met the threshold "
        f"({checked_filter} filtered, {checked_augment} appended)"
    )


def test_criterion_7_monotone_boost_curve():
    def corridor(n_cars: int) -> ScenarioConfig:
        return ScenarioConfig(
            n_cars=n_cars,
            synth=SynthSpec(
                route="shared-corridor", n_frames=60, overlap_fraction=0.4, stagger_ms=1000.0
            ),
            object_map=ObjectMapParams(update_rule="ascend"),
            seed=29,
        )

    report3 = run_scenario(corridor(3))
    report1 = run_scenario(corridor(1))
    curve3 = report3.boost_curve()
    assert curve3, "ascending map produced no boost events"
    assert all(delta >= 0 for _, _, delta, _ in curve3)
    totals = [total for *_, total in curve3]
    assert all(b >= a for a, b in zip(totals, totals[1:]))
    final3 = totals[-1]
    final1 = report1.boost_curve()[-1][3] if report1.boost_curve() else 0.0
    assert final3 >= final1
    ok(
        f"criterion 7: boost curve non-decreasing over {len(curve3)} events; "
        f"3-car total {final3:.3f} >= 1-car total {final1:.3f}"
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    config = ScenarioConfig(
        n_cars=2,
        synth=SynthSpec(route="shared-corridor", n_frames=40, overlap_fraction=0.5),
        edge_latency_ms=2.0,
        edge_jitter_ms=1.5,
        seed=31,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit_report(run_scenario(config), out_a)
    emit_report(run_scenario(config), out_b)
    for name in ("summary.json", "latency_cdf.csv", "reuse.csv", "boost.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    ok("criterion 8: equal seeds reproduce byte-identical summary.json and all CSVs")


def test_criterion_9_duplicate_discard_with_replicated_service():
    """A service replicated on the car and on the edge; the downstream
    consumer must accept exactly one copy of each result."""
    trace = synth_trace(1, "disjoint", 10, seed=37)
    net = Fabric(seed=37)
    net.add_network("VN1")
    net.add_network("EDGE", latency_ms=5.0)
    net.add_node(SimNode("car1/camera", "VN1"))

    local = DetectorNode(
        "car1/detector", "VN1", DEFAULT_PROFILES["Nano"], "DETR-ResNet-50",
        trace.by_image, request_wire="/image", answer_wire="/objects", answer_topic=OBJECTS,
    )
    net.add_node(local)
    net.subscribe(local.name, "/image", "VN1")
    replica = DetectorNode(
        "edge/detector", "EDGE", DEFAULT_PROFILES["A4500"], "DETR-ResNet-50",
        trace.by_image, request_wire="/image", answer_wire="/objects", answer_topic=OBJECTS,
    )
    net.add_node(replica)
    net.subscribe(replica.name, "/image", "EDGE")

    from geniesim.harness import RelayNode

    up = RelayNode("bridge/up", "VN1", {("VN1", "/image"): ("EDGE", "/image")})
    net.add_node(up, up.networks())
    net.subscribe(up.name, "/image", "VN1")
    down = RelayNode("bridge/down", "VN1", {("EDGE", "/objects"): ("VN1", "/objects")})
    net.add_node(down, down.networks())
    net.subscribe(down.name, "/objects", "EDGE")

    dedup = DedupFilter(window_ms=1000.0)
    accepted = []

    class Consumer(SimNode):
        def on_message(self, net, at, network, wire_topic, message):
            if dedup.offer(at, message):
                accepted.append((at, message))

    net.add_node(Consumer("car1/consumer", "VN1"))
    net.subscribe("car1/consumer", "/objects", "VN1")

    for i, frame in enumerate(trace.frames):
        net.publish(
            "car1/camera", image_message(frame.image_id, seq=i, stamp=float(frame.t_ms)),
            wire_topic="/image", network="VN1", at=float(frame.t_ms),
        )
    net.run_until(20_000.0)

    deliveries = [r for r in net.deliveries if r.to == "car1/consumer" and r.topic == "/objects"]
    assert len(deliveries) == 20  # the log shows both replicas delivered
    assert len(accepted) == 10  # one survives per digest
    assert dedup.discarded == 10
    # the faster remote replica arrives first; the local copy is the one discarded
    for frame, (accept_time, _) in zip(trace.frames, accepted):
        assert accept_time - frame.t_ms < 307.28 * 0.95
    ok("criterion 9: replicated service delivered twice, consumer accepted exactly one per digest")


def test_criterion_10_phantom_case_study():
    n_frames = 40
    config = ScenarioConfig(
        n_cars=2,
        synth=SynthSpec(
            route="shared-corridor",
            n_frames=n_frames,
            overlap_fraction=1.0,
            stagger_ms=n_frames * 100.0 + 1000.0,  # car2 starts after car1 is done
        ),
        phantom_cars=("car2",),
        edge_latency_ms=5.0,
        seed=41,
    )
    report = run_scenario(config)
    car2 = sorted(s.latency_ms for s in report.samples if s.car == "car2")
    assert len(car2) == n_frames  # every phantom request answered
    assert "car2/detector" not in report.detector_invocations  # no detector exists on car2
    phantom_genies = [
        name
        for name, stats in report.per_genie.items()
        if stats["role"] == GenieRole.PHANTOM.value
    ]
    assert phantom_genies  # both the on-car and the edge phantom were installed
    p99 = car2[max(0, int(len(car2) * 0.99) - 1)]
    budget = (
        config.miss_overhead_ms
        + 2 * config.edge_latency_ms
        + config.hit_overhead_ms
        + config.answer_overhead_ms
    )
    assert p99 <= budget + 1e-6  # recomputed from configured latencies
    assert p99 <= 41.0
    ok(
        f"criterion 10: phantom car answered {len(car2)}/{n_frames} with zero own detector "
        f"invocations; p99 {p99:.1f} ms <= 41 ms"
    )

"""Randomized mini-scenarios checked against the global invariants, each
node's deliveries against its counters, and their hit answers against a
reference that scans the object map on every hit.

Each config runs in the L, R and DG modes; the cache checks apply to DG.
Between runs, metamorphic relations hold: L output must not depend on
anything about the edge, R output only on the first edge device, L and R
output not on phantom cars, DG output not on a cache bound no run fills,
and no mode's output on whether the trace was read back from a file.
The generator is seeded, so failures reproduce; widen MASTER_SEEDS when
hunting for something specific.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import geniesim
from geniesim.genie import GenieNode, GenieRole, TopicCacheDB
from geniesim.harness import (
    DETECTOR_SERVICE,
    MODES,
    ObjectMapParams,
    ScenarioConfig,
    SynthSpec,
    _scenario_trace,
    build_scenario,
    emit_report,
    run_built_scenario,
)
from geniesim.model import REMOTE_SUFFIX, ObjectList
from geniesim.objectmap import ObjectMapStore
from geniesim.simnet import Fabric
from geniesim.workload import save_trace

MASTER_SEEDS = range(12)


def random_config(rng: random.Random) -> ScenarioConfig:
    route = rng.choice(["loop", "shared-corridor", "disjoint"])
    overlap = 0.0 if route == "disjoint" else rng.choice([0.0, 0.3, 0.5, 1.0])
    n_cars = rng.randint(1, 3)
    phantoms = ()
    if n_cars > 1 and rng.random() < 0.4:
        phantoms = (f"car{n_cars}",)
    return ScenarioConfig(
        n_cars=n_cars,
        car_device=rng.choice(["Nano", "AGX", "Orin"]),
        edge_devices=tuple(
            rng.choice(["AGX", "A4500", "Orin"]) for _ in range(rng.randint(0, 2))
        ),
        model=rng.choice(["YOLOv8s", "YOLOv8l", "DETR-ResNet-50", "DETR-ResNet-101-DC5"]),
        synth=SynthSpec(
            route=route,
            n_frames=rng.randint(5, 40),
            objects_per_frame=rng.randint(1, 4),
            overlap_fraction=overlap,
            stagger_ms=rng.choice([0.0, 300.0, 1500.0]),
        ),
        seed=rng.randint(0, 10_000),
        vn_latency_ms=rng.choice([0.0, 1.0]),
        edge_latency_ms=rng.choice([0.0, 5.0, 20.0]),
        edge_jitter_ms=rng.choice([0.0, 2.0]),
        object_map=ObjectMapParams(update_rule=rng.choice(["ema", "ascend", "verbatim"])),
        phantom_cars=phantoms,
        max_cache_entries=rng.choice([None, None, 8]),
        force_miss=rng.random() < 0.15,
        # drawn last, so the draws above keep the values they had without it
        pending_ttl_ms=rng.choice([10_000.0, 150.0, 34.0]),
    )


def _run(config: ScenarioConfig, mode: str):
    scenario = build_scenario(config, mode=mode)
    scenario.fabric.record_deliveries()
    return scenario, run_built_scenario(scenario, mode)


def check_invariants(config: ScenarioConfig) -> int:
    """Check the config in every mode it can be built in (R needs an edge
    device); return the number of cache hits its DG run served."""
    hits = 0
    for mode in MODES:
        if mode == "R" and not config.edge_devices:
            continue
        scenario, report = _run(config, mode)

        assert report.completed <= report.total_requests, mode
        for sample in report.samples:
            assert sample.latency_ms >= 0.0, mode
        cars = set(scenario.trace.cars)
        assert len(scenario.fabric.deliveries) == scenario.fabric.delivered > 0, mode
        for record in scenario.fabric.deliveries:
            assert record.time_ms >= record.published_ms, mode
            # a car-side node hears only its own car's exchanges, in every mode
            car = record.to.split("/", 1)[0]
            if car in cars:
                assert record.origin.startswith(f"{car}/"), (mode, record)
        check_message_ledger(scenario, mode)
        assert _run(config, mode)[1].summary_dict() == report.summary_dict(), mode

        if mode == "DG":
            check_genies(config, scenario, report)
            hits = sum(stats["hits"] for stats in report.per_genie.values())
    return hits


def check_message_ledger(scenario, mode: str) -> None:
    """Each node's deliveries in the fabric log equal the sum of the counters
    that sort them: every message a genie, detector or consumer hears is
    counted exactly once."""
    heard = Counter(record.to for record in scenario.fabric.deliveries)
    for genie in scenario.genies.values():
        c = genie.counters
        counted = c.requests + c.local_answers + c.remote_answers + c.late_answers
        counted += c.echoes_ignored + c.malformed_dropped
        assert heard[genie.name] == counted, (mode, genie.name)
    for detector in scenario.detectors.values():
        counted = detector.invocations + detector.oom_failures + detector.unknown_frames
        assert heard[detector.name] == counted, (mode, detector.name)
    for consumer in scenario.consumers.values():
        assert heard[consumer.name] == consumer.dedup.accepted + consumer.dedup.discarded, (mode, consumer.name)


def check_genies(config: ScenarioConfig, scenario, report) -> None:
    """The cache, object-map and phantom invariants of a DG run."""
    for name, stats in report.per_genie.items():
        assert stats["hits"] + stats["misses"] == stats["requests"], name
        for kind in ("image", "object"):
            hits, requests = stats["reuse"][kind]
            assert 0 <= hits <= requests, (name, kind)

    assert 0.0 <= report.reuse_ratio("image") <= 1.0
    assert 0.0 <= report.reuse_ratio("object") <= 1.0
    assert 0.0 <= report.deadline_miss_fraction <= 1.0

    for genie in scenario.genies.values():
        store = genie.object_map
        for objects in store.cells.values():
            for stored in objects:
                assert 0.0 <= stored.confidence <= 1.0
        # the header-key index and the pending records agree both ways
        db = genie.db
        pending = {name: db.topic_map(name).pending for name in db.topic_names()}
        waiters = sum(len(r.waiters) for p in pending.values() for r in p.values())
        assert db.pending_count() == waiters, genie.name
        for key, (name, digest) in db._pending.items():
            assert key in {w.key for w in pending[name][digest].waiters}, (genie.name, key)
        if config.max_cache_entries is not None:
            for name in db.topic_names():
                # pending records are never evicted, so they alone may exceed the bound
                assert len(db.topic_map(name).entries) <= max(config.max_cache_entries, len(pending[name]))
        # an answer is never parked or cached as if it were a request; every
        # harness genie wraps DETECTOR_SERVICE
        assert not {t.name for t in DETECTOR_SERVICE.publishes} & set(db.topic_names()), genie.name
        # every answer the inner node gave is accounted for
        if genie.role is not GenieRole.PHANTOM:
            detector = scenario.detectors[genie.name.replace("/genie", "/detector")]
            c = genie.counters
            assert c.local_answers + c.late_answers == detector.invocations, genie.name

    # only vehicles upload: an edge-resident genie publishes no request, so
    # no genie hears one request header twice
    requests = {t.name for t in DETECTOR_SERVICE.subscribes}
    requests |= {name + REMOTE_SUFFIX for name in requests}
    edge = {name for name, g in scenario.genies.items() if g.answers_on_edge}
    heard = set()
    for d in scenario.fabric.deliveries:
        if d.topic in requests:
            assert d.frm not in edge, d
            if d.to in scenario.genies:
                assert (d.to, d.origin, d.seq) not in heard, d
                heard.add((d.to, d.origin, d.seq))

    if config.object_map.update_rule == "ascend":
        totals = [total for *_, total in report.boost_curve()]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    for car in config.phantom_cars:
        assert f"{car}/detector" not in report.detector_invocations


def test_random_scenarios_hold_invariants():
    hits = 0
    for master in MASTER_SEEDS:
        rng = random.Random(f"fuzz:{master}")
        config = random_config(rng)
        hits += check_invariants(config)
    assert hits > 0  # the configs reach the cache-hit path


def test_samples_lie_in_their_hop_bands():
    """Without a dedup window, each sample is the sum of its hops: an L
    sample is the VN round trip plus a car detector draw, an R sample adds
    the edge round trip to a first-edge detector draw (a draw is the device
    mean times U(0.95, 1.05)), and a DG hit is the VN round trip plus the hit
    overhead.  Each crossing of a network adds a U(0, jitter) draw, so each
    round trip widens its band by [0, 2 * jitter].  Every config runs without
    jitter and with both jitters.  Configs without an edge, or whose detector
    does not fit on the car or the first edge device, are skipped."""
    samples = hits = 0
    for seed, (vn_jitter, edge_jitter) in itertools.product(range(60), ((0.0, 0.0), (1.5, 2.5))):
        config = replace(
            random_config(random.Random(seed)),
            dedup_window_ms=0.0, vn_jitter_ms=vn_jitter, edge_jitter_ms=edge_jitter,
        )
        profiles = config.resolve_profiles()
        devices = (config.car_device, *config.edge_devices[:1])
        if len(devices) < 2 or any(config.model in profiles[d].oom_models for d in devices):
            continue
        vn, edge = config.vn_latency_ms, config.edge_latency_ms
        for mode, hops, spread, device in (
            ("L", 2 * vn, 2 * vn_jitter, devices[0]),
            ("R", 2 * vn + 2 * edge, 2 * vn_jitter + 2 * edge_jitter, devices[1]),
        ):
            report = run_built_scenario(build_scenario(config, mode=mode), mode)
            assert report.completed == report.total_requests, (seed, mode)
            mean = profiles[device].mean_latency_ms[config.model]
            for sample in report.samples:
                assert hops + 0.95 * mean - 1e-9 <= sample.latency_ms <= hops + spread + 1.05 * mean + 1e-9, (
                    seed, vn_jitter, mode, sample.seq,
                )
            samples += len(report.samples)
        report = run_built_scenario(build_scenario(config), "DG")
        hit = 2 * vn + config.hit_overhead_ms
        for latency in report.hit_latencies():
            assert hit - 1e-9 <= latency <= hit + 2 * vn_jitter + 1e-9, (seed, vn_jitter)
            hits += 1
        samples += len(report.samples)
    assert samples > 8_000 and hits > 200  # 10,099 samples and 304 hits: 39 configs, each with and without jitter


def small_scope_grid() -> list[ScenarioConfig]:
    """Every combination of a few small values per field: frames close
    enough to coalesce and expire, a bound of one entry, and edges near
    and far.  A phantom needs a second car."""
    axes = itertools.product(
        ("loop", "shared-corridor"),
        ((1, ()), (2, ()), (2, ("car2",))),
        (3, 6),  # frames
        (1, 7, 40),  # frame period, ms
        (0.5, 1.0),  # overlap
        (0.0, 2.0),  # VN latency
        (0.0, 3.0, 30.0),  # edge latency
        (1.0, 12.0, 10_000.0),  # pending TTL
        (None, 1),  # cache bound
        (False, True),  # force_miss
        (("AGX",), ("AGX", "A4500")),
        (0.0, 2.5),  # edge jitter
    )
    return [
        ScenarioConfig(
            n_cars=cars,
            car_device="Orin",
            edge_devices=edges,
            model="YOLOv8s",
            synth=SynthSpec(
                route=route, n_frames=frames, overlap_fraction=overlap,
                frame_period_ms=period, stagger_ms=0.0,
            ),
            seed=3,
            dedup_window_ms=0.0,
            pending_ttl_ms=ttl,
            vn_latency_ms=vn,
            edge_latency_ms=edge,
            edge_jitter_ms=jitter,
            phantom_cars=phantoms,
            max_cache_entries=bound,
            force_miss=force_miss,
        )
        for route, (cars, phantoms), frames, period, overlap, vn, edge, ttl, bound, force_miss, edges, jitter
        in axes
    ]


def test_small_scope_sweep_holds_invariants():
    # a seeded slice of the grid; GENIESIM_FULL_SWEEP=1 runs all of it
    # (20,736 configs, about two minutes)
    grid = small_scope_grid()
    if not os.environ.get("GENIESIM_FULL_SWEEP"):
        grid = random.Random(0).sample(grid, 400)
    for config in grid:
        try:
            check_invariants(config)
        except AssertionError as exc:
            raise AssertionError(config) from exc


# the detector does not fit on the car and there is no edge, so no request is
# ever answered: the run ends with every request pending on three digests
NEVER_ANSWERED = ScenarioConfig(
    n_cars=1,
    edge_devices=(),
    model="DETR-ResNet-101-DC5",
    synth=SynthSpec(route="loop", n_frames=30, overlap_fraction=0.9),
    seed=7,
)


def test_invariants_hold_on_pending_tables_left_at_end():
    check_invariants(NEVER_ANSWERED)
    scenario, _ = _run(NEVER_ANSWERED, "DG")
    db = scenario.genies["car1/genie"].db
    assert db.pending_count() > 0  # check_genies saw a non-empty index
    assert [len(r.waiters) for r in db.topic_map("/image").pending.values()] == [10, 10, 10]


# each changes only the edge, which a car running its own detector never uses;
# every edge device listed has every model the configs draw
EDGE_VARIANTS = {
    "no-edge": {"edge_devices": ()},
    "other-edge": {"edge_devices": ("Orin", "A4500", "AGX")},
    "edge-latency": {"edge_latency_ms": 13.0},
    "edge-jitter": {"edge_jitter_ms": 4.5},
}


def test_local_mode_output_does_not_depend_on_the_edge():
    def local_summary(config):
        summary = run_built_scenario(build_scenario(config, mode="L"), "L").summary_dict()
        del summary["config"]
        return summary

    for master in MASTER_SEEDS:
        config = random_config(random.Random(f"fuzz:{master}"))
        expected = local_summary(config)
        for name, change in EDGE_VARIANTS.items():
            assert local_summary(replace(config, **change)) == expected, (master, name)


# 3 routes x {1, 3} cars x 6 seeds on a jittered two-edge fleet; odd seeds
# also expire pending requests after 34 ms
RELATION_CONFIGS = [
    ScenarioConfig(
        n_cars=cars,
        edge_devices=("AGX", "A4500"),
        synth=SynthSpec(route=route, n_frames=20, overlap_fraction=0.0 if route == "disjoint" else 0.5),
        seed=seed,
        edge_latency_ms=3.0,
        edge_jitter_ms=2.0,
        vn_jitter_ms=1.0,
        pending_ttl_ms=34.0 if seed % 2 else 10_000.0,
    )
    for route in ("loop", "shared-corridor", "disjoint")
    for cars in (1, 3)
    for seed in range(6)
]


def summary_less_config(config: ScenarioConfig, mode: str) -> dict:
    summary = run_built_scenario(build_scenario(config, mode=mode), mode).summary_dict()
    del summary["config"]
    return summary


def test_remote_mode_output_uses_only_the_first_edge_device():
    for i, config in enumerate(RELATION_CONFIGS):
        other = replace(config, edge_devices=("AGX", "Orin"))
        assert summary_less_config(other, "R") == summary_less_config(config, "R"), i


def test_phantoms_change_only_the_distributed_cache():
    for i, config in enumerate(RELATION_CONFIGS):
        phantom = replace(config, phantom_cars=(f"car{config.n_cars}",))
        for mode in ("L", "R"):
            assert summary_less_config(phantom, mode) == summary_less_config(config, mode), (i, mode)


def test_a_cache_bound_no_run_fills_changes_nothing():
    moved = 0
    for i, config in enumerate(RELATION_CONFIGS):
        expected = summary_less_config(config, "DG")
        assert summary_less_config(replace(config, max_cache_entries=10_000), "DG") == expected, i
        moved += summary_less_config(replace(config, max_cache_entries=2), "DG") != expected
    assert moved > 0  # the bound reaches the caches: a small one evicts


def test_outputs_do_not_depend_on_reading_the_trace_back(tmp_path):
    for i, config in enumerate(RELATION_CONFIGS):
        path = tmp_path / f"trace{i}.jsonl"
        save_trace(_scenario_trace(config), path)
        replayed = replace(config, synth=None, trace_file=str(path))
        for mode in MODES:
            assert summary_less_config(replayed, mode) == summary_less_config(config, mode), (i, mode)


def test_random_scenario_reruns_identically():
    rng = random.Random("fuzz:repeat")
    config = random_config(rng)
    a = run_built_scenario(build_scenario(config), "DG").summary_dict()
    b = run_built_scenario(build_scenario(config), "DG").summary_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _reference_serve_hit(self, net, at, request, entry):
    """``GenieNode._serve_hit`` without the map's kept answers and
    neighbourhoods: every hit scans the map afresh."""
    result = entry.result
    payload = result.payload
    if isinstance(payload, ObjectList):
        self.object_map._answers.clear()
        self.object_map._near.clear()
        payload = self.object_map.augment(payload)
    out = replace(result, header=request.header, payload=payload, via="hit")
    wire, network = self._answer_surfaces[result.topic.name]
    net.publish(self.name, out, wire_topic=wire, network=network, at=at + self.hit_overhead_ms)


def hit_answers_and_map_counts(config, monkeypatch):
    """Every hit answer's objects, each store's final (requests, hits), and
    the number of neighbourhood scans (``_cells_near`` calls)."""
    answers = []
    publish = Fabric.publish
    scans = []
    cells_near = ObjectMapStore._cells_near

    def spy_publish(self, sender, message, *args, **kwargs):
        if message.via == "hit":
            answers.append((sender, message.header.key, message.payload.objects))
        return publish(self, sender, message, *args, **kwargs)

    def spy_cells_near(self, points):
        scans.append(points)
        return cells_near(self, points)

    monkeypatch.setattr(Fabric, "publish", spy_publish)
    monkeypatch.setattr(ObjectMapStore, "_cells_near", spy_cells_near)
    scenario = build_scenario(config)
    run_built_scenario(scenario, "DG")
    counts = {
        name: (genie.object_map.requests, genie.object_map.hits)
        for name, genie in scenario.genies.items()
    }
    return answers, counts, len(scans)


# hit-heavy configs: on loop most repeat hits find the map unchanged (and
# entries are evicted); on the corridor other cars' answers change it between hits
HIT_HEAVY = {
    "loop": ScenarioConfig(
        n_cars=2,
        edge_devices=("AGX", "A4500"),
        synth=SynthSpec(route="loop", n_frames=60, overlap_fraction=0.9),
        max_cache_entries=8,
    ),
    "corridor": ScenarioConfig(
        n_cars=4,
        edge_devices=("AGX", "A4500"),
        synth=SynthSpec(route="shared-corridor", n_frames=60, overlap_fraction=0.5),
    ),
}


def test_recording_deliveries_leaves_every_emitted_file_unchanged(tmp_path):
    configs = {m: random_config(random.Random(f"fuzz:{m}")) for m in MASTER_SEEDS}
    configs["corridor"] = HIT_HEAVY["corridor"]
    for name, config in configs.items():
        for mode in MODES:
            if mode == "R" and not config.edge_devices:
                continue
            emitted = {}
            for record in (False, True):
                scenario = build_scenario(config, mode=mode)
                if record:
                    scenario.fabric.record_deliveries()
                out = tmp_path / f"{name}-{mode}-{record}"
                files = emit_report(run_built_scenario(scenario, mode), out)
                emitted[record] = {path.name: path.read_bytes() for path in files}
            assert len(emitted[True]) == 4
            assert emitted[True] == emitted[False], (name, mode)


def test_memoized_hits_match_always_augmenting_reference(monkeypatch):
    configs = {m: random_config(random.Random(f"fuzz:{m}")) for m in MASTER_SEEDS}
    configs.update(HIT_HEAVY)
    reused = 0
    for master, config in configs.items():
        with monkeypatch.context() as m:
            answers, counts, scans = hit_answers_and_map_counts(config, m)
        with monkeypatch.context() as m:
            m.setattr(GenieNode, "_serve_hit", _reference_serve_hit)
            ref_answers, ref_counts, ref_scans = hit_answers_and_map_counts(config, m)
        assert answers == ref_answers, master
        assert counts == ref_counts, master
        reused += ref_scans - scans
    assert reused > 0  # a kept answer was returned


# run in a fresh interpreter: argv[1] is {name: config dict}, argv[2] the out dir
EMIT_EVERY_MODE = """
import json, sys
from geniesim.harness import MODES, ScenarioConfig, build_scenario, emit_report, run_built_scenario
for name, data in json.loads(sys.argv[1]).items():
    config = ScenarioConfig.from_dict(data)
    for mode in MODES:
        if mode != "R" or config.edge_devices:
            report = run_built_scenario(build_scenario(config, mode=mode), mode)
            emit_report(report, f"{sys.argv[2]}/{name}/{mode}")
"""


def test_emitted_files_do_not_depend_on_the_hash_seed(tmp_path):
    # the hash seed moves the iteration order of sets of strings, never of
    # dicts such as the genies' wire tables; no such order may reach an output
    configs = {
        "fuzz:3": random_config(random.Random("fuzz:3")),
        "fuzz:11/force_miss": replace(random_config(random.Random("fuzz:11")), force_miss=True),
    }
    arg = json.dumps({name: config.to_dict() for name, config in configs.items()})
    src = str(Path(geniesim.__file__).parents[1])
    emitted = {}
    for seed in ("0", "12345"):
        out = tmp_path / seed
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", EMIT_EVERY_MODE, arg, str(out)], env=env, check=True)
        emitted[seed] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(emitted["0"]) == 2 * 3 * 4  # two configs, three modes, four files
    assert emitted["0"] == emitted["12345"]


# every relation config at TTLs short enough to expire exchanges in flight,
# with and without a bound of two entries, some with the cache off
SHORT_TTL_CONFIGS = [
    replace(config, pending_ttl_ms=ttl, max_cache_entries=2 if k % 2 else None, force_miss=k % 3 == 0)
    for k, (config, ttl) in enumerate(itertools.product(RELATION_CONFIGS, (0.0, 1.0, 5.0, 34.0, 250.0)))
]


def test_expiry_bound_only_skips_walks_that_expire_nothing(tmp_path, monkeypatch):
    """Arrivals skip the expiry walk while ``oldest_park`` is within the TTL.
    A bound that always reads ``-inf`` walks on every arrival, as a DB
    without the bound would; every emitted file must be the same."""
    configs = {f"fuzz:{m}": random_config(random.Random(f"fuzz:{m}")) for m in MASTER_SEEDS}
    configs |= {f"short-ttl:{i}": config for i, config in enumerate(SHORT_TTL_CONFIGS)}
    expired = 0
    for name, config in configs.items():
        emitted = {}
        for walk_always in (False, True):
            with monkeypatch.context() as m:
                if walk_always:
                    always_due = property(lambda self: -math.inf, lambda self, value: None)
                    m.setattr(TopicCacheDB, "oldest_park", always_due, raising=False)
                scenario = build_scenario(config)
                files = emit_report(run_built_scenario(scenario, "DG"), tmp_path / f"{name}-{walk_always}")
            emitted[walk_always] = {path.name: path.read_bytes() for path in files}
        assert emitted[True] == emitted[False], name
        expired += sum(genie.counters.expired for genie in scenario.genies.values())
    assert expired > 0  # the short TTLs expire exchanges in flight

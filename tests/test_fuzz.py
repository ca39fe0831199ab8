"""Randomized mini-scenarios checked against the global invariants, and
their hit answers against a reference that augments on every hit.

Each config runs in the L, R and DG modes; the cache checks apply to DG.
The generator is seeded, so failures reproduce; widen MASTER_SEEDS when
hunting for something specific.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import geniesim
from geniesim.genie import GenieNode, GenieRole
from geniesim.harness import (
    MODES,
    ObjectMapParams,
    ScenarioConfig,
    SynthSpec,
    build_scenario,
    emit_report,
    run_built_scenario,
)
from geniesim.model import ObjectList
from geniesim.objectmap import ObjectMapStore
from geniesim.simnet import Fabric

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
        assert _run(config, mode)[1].summary_dict() == report.summary_dict(), mode

        if mode == "DG":
            check_genies(config, scenario, report)
            hits = sum(stats["hits"] for stats in report.per_genie.values())
    return hits


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
                assert db.entry_count(name) <= config.max_cache_entries + len(pending[name])
        # an answer is never parked or cached as if it were a request
        assert not {t.name for t in genie.spec.publishes} & set(db.topic_names()), genie.name
        # every answer the inner node gave is accounted for
        if genie.role is not GenieRole.PHANTOM:
            detector = scenario.detectors[genie.name.replace("/genie", "/detector")]
            c = genie.counters
            assert c.local_answers + c.late_answers == detector.invocations, genie.name

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


def test_random_scenario_reruns_identically():
    rng = random.Random("fuzz:repeat")
    config = random_config(rng)
    a = run_built_scenario(build_scenario(config), "DG").summary_dict()
    b = run_built_scenario(build_scenario(config), "DG").summary_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _reference_serve_hit(self, net, at, request, entry):
    """``GenieNode._serve_hit`` without the memo: augment on every hit."""
    result = entry.result
    payload = result.payload
    if isinstance(payload, ObjectList) and self.object_map is not None:
        payload = self.object_map.augment(payload)
    out = replace(result, header=request.header, payload=payload, via="hit")
    wire, network = self._answer_surface(result.topic.name)
    net.publish(self.name, out, wire_topic=wire, network=network, at=at + self.hit_overhead_ms)


def hit_answers_and_map_counts(config, monkeypatch):
    """Every hit answer's objects, each store's final (requests, hits), and
    the number of augment calls."""
    answers = []
    publish = Fabric.publish
    augments = []
    augment = ObjectMapStore.augment

    def spy_publish(self, sender, message, *args, **kwargs):
        if message.via == "hit":
            answers.append((sender, message.header.key, message.payload.objects))
        return publish(self, sender, message, *args, **kwargs)

    def spy_augment(self, payload):
        augments.append(payload)
        return augment(self, payload)

    monkeypatch.setattr(Fabric, "publish", spy_publish)
    monkeypatch.setattr(ObjectMapStore, "augment", spy_augment)
    scenario = build_scenario(config)
    run_built_scenario(scenario, "DG")
    counts = {
        name: (genie.object_map.requests, genie.object_map.hits)
        for name, genie in scenario.genies.items()
    }
    return answers, counts, len(augments)


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
            answers, counts, augments = hit_answers_and_map_counts(config, m)
        with monkeypatch.context() as m:
            m.setattr(GenieNode, "_serve_hit", _reference_serve_hit)
            ref_answers, ref_counts, ref_augments = hit_answers_and_map_counts(config, m)
        assert answers == ref_answers, master
        assert counts == ref_counts, master
        reused += ref_augments - augments
    assert reused > 0  # the memo's reuse branch ran


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

"""Counted work: how often the object map's read path runs, and how often it
rescans, and how many content keys are encoded, on the bench's seed-7
workloads; how many receivers the fabric examines and admits per frame
as the fleet grows; and how often a loaded trace's frames are checked.

Operation counts do not move with the host or the run order, so they pin a
cut that wall-clock numbers show only as noise.  ``augment`` is called once
per object-list hit; ``_cells_near`` runs only for a payload not scanned
since the map last gained a cell.  ``content_key`` encodes a payload once
per topic name and keeps the key on the payload.  A change to any of these
counts is a change to the hot path's work and is argued in CHANGES.md.
"""

from dataclasses import replace

import pytest

from geniesim import genie, model, workload
from geniesim.harness import build_scenario, run_built_scenario
from geniesim.objectmap import ObjectMapStore
from geniesim.simnet import Fabric
from geniesim.workload import load_trace, save_trace, synth_trace

from test_golden import BENCH, _config


def bench_config(name):
    ((_, route, cars, frames, edges, overlap, edge_latency_ms),) = [w for w in BENCH if w[0] == name]
    return replace(_config(route, cars, edges, frames=frames, overlap=overlap), edge_latency_ms=edge_latency_ms)


# bench workload -> (augment calls, _cells_near scans) over all stores, seed 7
EXPECTED = {"corridor": (300, 144), "disjoint": (0, 0), "loop": (1350, 152)}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_augment_calls_and_scans_on_bench_workloads(name, monkeypatch):
    config = bench_config(name)
    counts = {"augment": 0, "_cells_near": 0}
    for method in counts:
        original = getattr(ObjectMapStore, method)

        def counted(self, *args, original=original, method=method):
            counts[method] += 1
            return original(self, *args)

        monkeypatch.setattr(ObjectMapStore, method, counted)
    run_built_scenario(build_scenario(config), "DG")
    assert (counts["augment"], counts["_cells_near"]) == EXPECTED[name]


# bench workload -> content keys encoded (image, object list), seed 7: a
# call encodes when it leaves a new memo on the payload.  The rest of the
# calls are memo hits.
ENCODED = {"corridor": (250, 250), "disjoint": (240, 240), "loop": (150, 150)}


@pytest.mark.parametrize("name", sorted(ENCODED))
def test_content_keys_encoded_on_bench_workloads(name, monkeypatch):
    counts = {model.ImageRef: 0, model.ObjectList: 0}
    original = model.content_key

    def counted(message):
        memo = message.payload._digest
        key = original(message)
        if message.payload._digest is not memo:
            counts[type(message.payload)] += 1
        return key

    for site in (model, genie):  # genie imports it by name
        monkeypatch.setattr(site, "content_key", counted)
    run_built_scenario(build_scenario(bench_config(name)), "DG")
    assert (counts[model.ImageRef], counts[model.ObjectList]) == ENCODED[name]


# cars -> fabric receivers (examined, admitted) per frame on disjoint, 200
# frames per car, edges AGX + A4500, 5 ms edge latency, seed 7.  Examined is
# the known O(cars) term, 11 + cars: ``publish`` walks every subscriber of a
# route and tests its origin prefix.  Admitted, the deliveries, stays flat.
RECEIVERS_PER_FRAME = {1: (12, 12), 2: (13, 12), 4: (15, 12), 8: (19, 12)}


@pytest.mark.parametrize("cars", sorted(RECEIVERS_PER_FRAME))
def test_fabric_receivers_examined_and_admitted_per_frame_on_disjoint(cars, monkeypatch):
    config = replace(_config("disjoint", cars, ("AGX", "A4500"), frames=200), edge_latency_ms=5.0)
    counts = {"examined": 0, "admitted": 0}
    original = Fabric.publish

    def counted(self, sender, message, wire_topic, network, at):
        queued = len(self.queue)
        original(self, sender, message, wire_topic, network, at)
        _, receivers = self._routes[sender, network, wire_topic]
        counts["examined"] += len(receivers)
        counts["admitted"] += len(self.queue) - queued

    monkeypatch.setattr(Fabric, "publish", counted)
    run_built_scenario(build_scenario(config), "DG")
    frames = cars * 200
    assert (counts["examined"] / frames, counts["admitted"] / frames) == RECEIVERS_PER_FRAME[cars]


def test_a_loaded_trace_checks_each_frame_once(tmp_path, monkeypatch):
    # 1 car x 40 frames at overlap 0.5: 20 images, each seen twice.  Trace.build
    # checks each frame once, and a repeat's content only as equal to its first
    # sighting's; the loader checks JSON types alone.
    path = tmp_path / "loop.jsonl"
    trace = synth_trace(1, "loop", 40, overlap_fraction=0.5, seed=7)
    save_trace(trace, path)
    calls = []
    original = workload._check_frame

    def counted(f, content=True):
        calls.append(content)
        original(f, content)

    monkeypatch.setattr(workload, "_check_frame", counted)
    assert load_trace(path) == trace
    assert len(trace.by_image) == 20
    assert (len(calls), calls.count(True)) == (40, 20)

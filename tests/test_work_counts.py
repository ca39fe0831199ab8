"""Counted work: how often the object map's read path runs, and how often it
rescans, on the bench's seed-7 workloads.

Operation counts do not move with the host or the run order, so they pin a
cut that wall-clock numbers show only as noise.  ``augment`` is called once
per object-list hit; ``_cells_near`` runs only for a payload not scanned
since the map last gained a cell.
A change to either count is a change to the hot path's work and is argued
in CHANGES.md.
"""

from dataclasses import replace

import pytest

from geniesim.harness import build_scenario, run_built_scenario
from geniesim.objectmap import ObjectMapStore

from test_golden import BENCH, _config

# bench workload -> (augment calls, _cells_near scans) over all stores, seed 7
EXPECTED = {"corridor": (300, 144), "disjoint": (0, 0), "loop": (1350, 152)}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_augment_calls_and_scans_on_bench_workloads(name, monkeypatch):
    ((_, route, cars, frames, edges, overlap, edge_latency_ms),) = [w for w in BENCH if w[0] == name]
    config = replace(_config(route, cars, edges, frames=frames, overlap=overlap), edge_latency_ms=edge_latency_ms)
    counts = {"augment": 0, "_cells_near": 0}
    for method in counts:
        original = getattr(ObjectMapStore, method)

        def counted(self, *args, original=original, method=method):
            counts[method] += 1
            return original(self, *args)

        monkeypatch.setattr(ObjectMapStore, method, counted)
    run_built_scenario(build_scenario(config), "DG")
    assert (counts["augment"], counts["_cells_near"]) == EXPECTED[name]

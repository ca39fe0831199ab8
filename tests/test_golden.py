"""Golden digests: "same behaviour" means byte-identical summary.json.

Reruns a small matrix of synthetic scenarios, two of them in transparency
mode (``force_miss``) and one long enough for repeat hits on an unchanged
object map; two short-TTL corridor cells that expire pending requests, one
with a three-entry LRU and one in transparency mode; plus
``scenarios/demo.json`` and a jittered corridor with a phantom car under
``compare_baselines``; plus the bench's three workloads at seed 7, so a
change that must keep the bench's outputs is checked in the test suite
too.  It checks, per cell, the sha256 of the emitted ``summary.json`` (key
``<cell>``) and one sha256 over the emitted
``boost.csv``, ``latency_cdf.csv`` and ``reuse.csv`` (key ``<cell>:csv``)
against ``golden.json``, so every emitted file is pinned byte for byte.  A
third sha256 over every field of every fabric ``DeliveryRecord`` (key
``<cell>:deliveries``) pins the traffic itself, so a change that keeps the
outputs but moves a delivery shows too.  A change that alters any of these
on purpose re-records the file and says why; the record run prints the keys
whose digest changed:

    PYTHONPATH=src python tests/test_golden.py --record

A second test checks every cell's ``latency_cdf.csv`` and ``boost.csv``
against the per-row writer in ``oracles.py``, which formats every value
with its own ``repr``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from geniesim.harness import (
    MODES,
    ScenarioConfig,
    SynthSpec,
    _scenario_trace,
    build_scenario,
    emit_report,
    run_built_scenario,
)

from oracles import report_csv_text

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEMO = HERE.parent / "scenarios" / "demo.json"

ROUTES = ("disjoint", "loop", "shared-corridor")
CARS = (1, 4)
EDGES = (("AGX",), ("AGX", "A4500"))
# transparency mode (force_miss) cells, all on the edge pair
FORCE_MISS = (("shared-corridor", 4), ("loop", 1))
FRAMES = 20
# (route, cars, frames, overlap) on edge AGX: most of its object hits find
# the map unchanged since the same result's last hit, which no 20-frame cell does
REPEAT_HITS = ("loop", 1, 60, 0.9)
SEED = 7
# (cell suffix, config overrides) on one corridor whose TTL is short enough
# that some pending requests expire before their answers come: "lru3" evicts
# (ties on last-hit time break by park order) and "force_miss" parks each
# exchange on its own record with its own clock, even when another request
# for the same content is pending.  Its digests are the same under a shared
# record that each repeat re-parks, so test_genie.py's TestPendingExpiryOrder
# and TestTransparency pin the rule
SHORT_TTL_MS = 34.0
SHORT_TTL = (("lru3", {"max_cache_entries": 3}), ("force_miss", {"force_miss": True}))
# L/R/DG over one jittered corridor with a phantom car: jitter makes each
# delivery's seeded draw depend on subscription order, and phantoms apply
# only in DG
JITTER_PHANTOM = ScenarioConfig(
    n_cars=3,
    edge_devices=("AGX", "A4500"),
    synth=SynthSpec(route="shared-corridor", n_frames=FRAMES, overlap_fraction=0.5),
    seed=SEED,
    phantom_cars=("car3",),
    vn_jitter_ms=1.5,
    edge_jitter_ms=4.0,
)
# the bench's workloads (``bench/run_bench.py``'s ``WORKLOADS``), each as
# (name, route, cars, frames, edges, overlap, edge latency in ms); their
# summary.json digests are the bench's seed-7 reference digests
BENCH = (
    ("corridor", "shared-corridor", 4, 100, ("AGX", "A4500"), 0.5, 5.0),
    ("disjoint", "disjoint", 8, 30, ("AGX",), 0.0, 0.0),
    ("loop", "loop", 1, 1500, ("AGX",), 0.9, 0.0),
)


def _config(
    route: str,
    cars: int,
    edges: tuple[str, ...],
    force_miss: bool = False,
    frames: int = FRAMES,
    overlap: float | None = None,
) -> ScenarioConfig:
    if overlap is None:
        overlap = 0.0 if route == "disjoint" else 0.5
    return ScenarioConfig(
        n_cars=cars,
        edge_devices=edges,
        synth=SynthSpec(route=route, n_frames=frames, overlap_fraction=overlap),
        seed=SEED,
        force_miss=force_miss,
    )


CSV_FILES = ("boost.csv", "latency_cdf.csv", "reuse.csv")


def compute_digests(work_dir: Path, on_cell=None) -> dict[str, str]:
    """Cell name -> sha256 of its emitted summary.json, ``<cell>:csv`` ->
    sha256 over its emitted CSV files (each prefixed by name and size), and
    ``<cell>:deliveries`` -> sha256 over its fabric delivery log.  Given
    ``on_cell``, it is called with each cell's name, report and output
    directory once the cell's files are written."""
    digests = {}

    def record(cell: str, config: ScenarioConfig, mode: str = "DG", trace=None) -> None:
        scenario = build_scenario(config, trace, mode)
        scenario.fabric.record_deliveries()
        report = run_built_scenario(scenario, mode)
        out_dir = work_dir / cell
        emit_report(report, out_dir)
        if on_cell is not None:
            on_cell(cell, report, out_dir)
        digests[cell] = hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest()
        h = hashlib.sha256()
        for name in CSV_FILES:
            data = (out_dir / name).read_bytes()
            h.update(f"{name} {len(data)}\n".encode())
            h.update(data)
        digests[f"{cell}:csv"] = h.hexdigest()
        h = hashlib.sha256()
        for r in scenario.fabric.deliveries:
            h.update(repr(tuple(getattr(r, f.name) for f in fields(r))).encode())
        digests[f"{cell}:deliveries"] = h.hexdigest()

    for route in ROUTES:
        for cars in CARS:
            for edges in EDGES:
                record(f"{route}/{cars}cars/{'+'.join(edges)}", _config(route, cars, edges))
    for route, cars in FORCE_MISS:
        cell = f"{route}/{cars}cars/AGX+A4500/force_miss"
        record(cell, _config(route, cars, ("AGX", "A4500"), force_miss=True))
    for suffix, overrides in SHORT_TTL:
        config = _config("shared-corridor", 3, ("AGX", "A4500"), frames=40, overlap=0.6)
        config = replace(config, pending_ttl_ms=SHORT_TTL_MS, **overrides)
        record(f"ttl{SHORT_TTL_MS:g}/{suffix}", config)
    route, cars, frames, overlap = REPEAT_HITS
    cell = f"{route}/{cars}cars/AGX/{frames}frames-overlap{overlap}"
    record(cell, _config(route, cars, ("AGX",), frames=frames, overlap=overlap))
    for name, route, cars, frames, edges, overlap, edge_latency_ms in BENCH:
        config = _config(route, cars, edges, frames=frames, overlap=overlap)
        record(f"bench/{name}", replace(config, edge_latency_ms=edge_latency_ms))
    baselines = {"demo": ScenarioConfig.from_json_file(DEMO), "jitter-phantom": JITTER_PHANTOM}
    for name, config in baselines.items():
        # compare_baselines, unrolled to reach each mode's fabric
        trace = _scenario_trace(config)
        for mode in MODES:
            record(f"{name}/{mode}", config, mode, trace)
    return digests


def test_summary_digests_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert compute_digests(tmp_path) == expected


def test_emitted_csvs_equal_the_per_row_writer(tmp_path):
    mismatched = []

    def compare(cell, report, out_dir):
        for name, text in report_csv_text(report).items():
            if (out_dir / name).read_text(encoding="utf-8") != text:
                mismatched.append(f"{cell}/{name}")

    compute_digests(tmp_path, compare)
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for cell in sorted(digests.keys() | previous.keys()):
        if digests.get(cell) != previous.get(cell):
            print(f"changed: {cell}")
    print(f"recorded {len(digests)} digests in {GOLDEN}")

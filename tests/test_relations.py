"""Metamorphic relations over whole runs: how a run's samples must change,
or must not, when its input changes in a known way.  None needs an oracle.

Each run is 3 cars × 200 frames, edges ``AGX`` + ``A4500``,
``edge_latency_ms`` 5 and seed 5, with overlap 0.5 (0 on ``disjoint``).
A sample is compared as ``(car, seq, latency_ms, via)``, a summary as
``MetricsReport.summary_dict()``.  The demo's emitted files are compared
byte for byte under two hash seeds.

The relations marked ``xfail`` with item 4's number fail while one
sequential stream serves every draw of a run: a detector's latency then
depends on how many draws were taken before it, so on the order of the
edge list and on the other cars' traffic.  Keyed draws, one pure function
of the seed and what each draw is for, make them hold (ROADMAP item 4
step 2).
"""

import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import geniesim
from geniesim.harness import MODES, MetricsReport, ScenarioConfig, SynthSpec, build_scenario, run_built_scenario
from geniesim.workload import Trace, synth_trace

ROUTES = {"disjoint": 0.0, "loop": 0.5, "shared-corridor": 0.5}
KEYED_DRAWS = "ROADMAP item 4 step 2"
# same-instant boost deltas are summed in genie-name order, and the rename
# moves car3/genie from before edge1/genie to after it (ROADMAP item 14)
TIE_ORDER = "boost.cumulative_total sums same-instant ties in genie-name order"


def config(route: str, jitter: bool = False, n_cars: int = 3, edges=("AGX", "A4500")) -> ScenarioConfig:
    return ScenarioConfig(
        n_cars=n_cars,
        edge_devices=edges,
        synth=SynthSpec(route=route, n_frames=200, overlap_fraction=ROUTES[route]),
        seed=5,
        edge_latency_ms=5.0,
        vn_jitter_ms=1.5 if jitter else 0.0,
        edge_jitter_ms=2.0 if jitter else 0.0,
    )


def run(config: ScenarioConfig, mode: str, trace: Trace | None = None) -> MetricsReport:
    return run_built_scenario(build_scenario(config, trace, mode), mode)


def samples(config: ScenarioConfig, mode: str, trace: Trace | None = None) -> list[tuple]:
    return [(s.car, s.seq, s.latency_ms, s.via) for s in run(config, mode, trace).samples]


def scenario_trace(config: ScenarioConfig) -> Trace:
    return synth_trace(config.n_cars, **asdict(replace(config.synth, seed=config.seed)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jitter"])
@pytest.mark.parametrize("route", ROUTES)
def test_renaming_every_car_in_order_keeps_every_sample(route, jitter, mode):
    cfg = config(route, jitter)
    trace = scenario_trace(cfg)
    renamed = Trace.build([replace(f, car="z" + f.car) for f in trace.frames])
    assert renamed.cars == tuple("z" + car for car in trace.cars)
    expected = samples(cfg, mode, trace)
    assert len(expected) == 600
    assert [(car.removeprefix("z"), *rest) for car, *rest in samples(cfg, mode, renamed)] == expected


def unrenamed(value):
    """``value`` with every ``zcar`` key, at any depth, mapped back."""
    if not isinstance(value, dict):
        return value
    return {key.removeprefix("z") if key.startswith("zcar") else key: unrenamed(v) for key, v in value.items()}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jitter"])
@pytest.mark.parametrize("route", ROUTES)
def test_renaming_every_car_in_order_keeps_the_summary(route, jitter, mode, request):
    if (route, jitter, mode) == ("shared-corridor", False, "DG"):
        request.applymarker(pytest.mark.xfail(strict=True, reason=TIE_ORDER))
    cfg = config(route, jitter)
    trace = scenario_trace(cfg)
    renamed = Trace.build([replace(f, car="z" + f.car) for f in trace.frames])
    expected = run(cfg, mode, trace).summary_dict()
    assert set(expected["per_car"]) == set(trace.cars)
    assert unrenamed(run(cfg, mode, renamed).summary_dict()) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jitter"])
@pytest.mark.parametrize("route", ROUTES)
def test_renaming_every_image_keeps_the_summary(route, jitter, mode):
    cfg = config(route, jitter)
    trace = scenario_trace(cfg)
    renamed = Trace.build([replace(f, image_id="img-" + f.image_id) for f in trace.frames])
    assert set(renamed.by_image) == {"img-" + image for image in trace.by_image}
    assert run(cfg, mode, renamed).summary_dict() == run(cfg, mode, trace).summary_dict()


def test_the_demo_comparison_does_not_depend_on_the_hash_seed(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"
    src = str(Path(geniesim.__file__).parents[1])
    emitted = {}
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        command = [sys.executable, "-m", "geniesim.cli", "compare", "--config", str(demo), "--out", str(out)]
        subprocess.run(command, env=env, check=True, capture_output=True)
        emitted[seed] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(emitted["1"]) == 3 * 4 + 1  # three modes' four files, and comparison.json
    assert emitted["1"] == emitted["2"]


@pytest.mark.xfail(strict=True, reason=KEYED_DRAWS)
@pytest.mark.parametrize("route", ROUTES)
def test_reversing_the_edge_list_keeps_every_sample(route):
    forward = samples(config(route), "DG")
    assert len(forward) == 600
    assert samples(config(route, edges=("A4500", "AGX")), "DG") == forward


@pytest.mark.xfail(strict=True, reason=KEYED_DRAWS)
@pytest.mark.parametrize("mode", MODES)
def test_a_disjoint_cars_samples_do_not_depend_on_the_fleet(mode):
    alone = samples(config("disjoint", n_cars=1), mode)
    assert len(alone) == 200
    assert [s for s in samples(config("disjoint"), mode) if s[0] == "car1"] == alone

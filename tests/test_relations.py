"""Metamorphic relations over whole runs: how a run's samples must change,
or must not, when its input changes in a known way.  None needs an oracle.

Each run is 3 cars × 200 frames, edges ``AGX`` + ``A4500``,
``edge_latency_ms`` 5 and seed 5, with overlap 0.5 (0 on ``disjoint``).
A sample is compared as ``(car, seq, latency_ms, via)``.

The relations marked ``xfail`` fail while one sequential stream serves every
draw of a run: a detector's latency then depends on how many draws were
taken before it, so on the order of the edge list and on the other cars'
traffic.  Keyed draws, one pure function of the seed and what each draw is
for, make them hold (ROADMAP item 4 step 2).
"""

from dataclasses import asdict, replace

import pytest

from geniesim.harness import MODES, ScenarioConfig, SynthSpec, build_scenario, run_built_scenario
from geniesim.workload import Trace, synth_trace

ROUTES = {"disjoint": 0.0, "loop": 0.5, "shared-corridor": 0.5}
KEYED_DRAWS = "ROADMAP item 4 step 2"


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


def samples(config: ScenarioConfig, mode: str, trace: Trace | None = None) -> list[tuple]:
    report = run_built_scenario(build_scenario(config, trace, mode), mode)
    return [(s.car, s.seq, s.latency_ms, s.via) for s in report.samples]


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

import json
import re
import statistics
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from geniesim.cli import main as cli_main
from geniesim.harness import (
    MODES,
    ConfigError,
    ObjectMapParams,
    RelayNode,
    ScenarioConfig,
    SynthSpec,
    build_genie_scenario,
    build_scenario,
    compare_baselines,
    emit_report,
    empirical_cdf,
    run_built_scenario,
    run_scenario,
)
from geniesim.workload import DEFAULT_PROFILES, count_repeats, save_trace, synth_trace

ROOT = Path(__file__).resolve().parent.parent


def small_loop(**overrides) -> ScenarioConfig:
    base = dict(
        n_cars=1,
        synth=SynthSpec(route="loop", n_frames=30, overlap_fraction=0.5),
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_dict_round_trip(self):
        config = small_loop(
            edge_devices=("AGX", "A4500"),
            phantom_cars=(),
            object_map=ObjectMapParams(update_rule="ascend"),
            synth=SynthSpec(route="loop", n_frames=30, overlap_fraction=0.5, seed=None),
            max_cache_entries=8,
            trace_file="trace.jsonl",
        )
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config

    def test_json_file_round_trip(self, tmp_path):
        config = small_loop(edge_latency_ms=5)  # an int in a float field stays an int
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ScenarioConfig.from_json_file(path)
        assert loaded == config
        assert json.dumps(loaded.to_dict()) == path.read_text()

    def test_unknown_device_rejected_before_simulation(self):
        with pytest.raises(ConfigError, match="unknown device"):
            small_loop(car_device="TPUv9").resolve_profiles()

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="no entry for model"):
            small_loop(model="SSD-MobileNet").resolve_profiles()

    def test_missing_trace_source_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(synth=None, trace_file=None).validate()

    def test_phantom_ids_validated(self):
        with pytest.raises(ConfigError):
            replace(small_loop(), phantom_cars=("car9",)).validate()

    def test_bad_deadline_rejected(self):
        with pytest.raises(ConfigError):
            small_loop(deadline_ms=0.0).validate()

    @pytest.mark.parametrize(
        "field",
        [
            "drain_ms",
            "pending_ttl_ms",
            "dedup_window_ms",
            "hit_overhead_ms",
            "miss_overhead_ms",
            "answer_overhead_ms",
            "vn_latency_ms",
            "vn_jitter_ms",
            "edge_latency_ms",
            "edge_jitter_ms",
        ],
    )
    def test_negative_duration_rejected(self, field):
        small_loop(**{field: 0.0}).validate()
        with pytest.raises(ConfigError, match=field):
            small_loop(**{field: -1.0}).validate()

    def test_packaged_profiles_are_not_reread(self):
        assert small_loop().resolve_profiles() is DEFAULT_PROFILES

    def test_trace_car_count_must_match(self, tmp_path):
        trace = synth_trace(2, "disjoint", 5, seed=1)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        config = ScenarioConfig(n_cars=3, trace_file=str(path))
        with pytest.raises(ConfigError, match="cars"):
            run_scenario(config)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"warp_drive": True})

    def test_documented_configs_load(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = re.search(r"A minimal `scenario.json`:\s*```json\n(.*?)```", readme, re.S)
        docs = [example.group(1)] + [p.read_text() for p in sorted(ROOT.glob("scenarios/*.json"))]
        assert len(docs) > 1
        for text in docs:
            ScenarioConfig.from_dict(json.loads(text)).validate()

    def test_demo_config_loads_unchanged(self):
        assert ScenarioConfig.from_json_file(ROOT / "scenarios" / "demo.json") == ScenarioConfig(
            n_cars=2,
            car_device="Nano",
            edge_devices=("AGX", "A4500"),
            model="DETR-ResNet-50",
            synth=SynthSpec(route="shared-corridor", n_frames=200, overlap_fraction=0.5),
            seed=7,
            edge_latency_ms=5.0,
        )


class TestRunScenario:
    def test_cold_disjoint_no_reuse(self):
        config = ScenarioConfig(
            n_cars=1, synth=SynthSpec(route="disjoint", n_frames=25), seed=2
        )
        report = run_scenario(config)
        assert report.completed == 25
        assert report.reuse_ratio("image") == 0.0
        assert report.reuse_ratio("object") == 0.0
        # every answer costs forwarding overheads plus a detector pass
        edge_mean = 230.39  # AGX DETR-ResNet-50
        for s in report.samples:
            assert s.latency_ms >= 2 * config.miss_overhead_ms
            assert s.latency_ms <= edge_mean * 1.05 + 4 * config.miss_overhead_ms + 1

    def test_loop_local_reuse_matches_brute_force(self):
        config = small_loop()
        report = run_scenario(config)
        trace = build_genie_scenario(config).trace
        expected = count_repeats(trace, "car1")
        hits, requests = report.reuse("image", "local")
        assert (hits, requests) == (expected, len(trace.by_car["car1"]))
        # repeats never reach a detector: invocations equal distinct frames
        unique = len({f.image_id for f in trace.frames})
        assert report.detector_invocations == {
            "car1/detector": unique,
            "edge1/detector": unique,
        }

    def test_counter_consistency_per_genie(self):
        report = run_scenario(small_loop(n_cars=2, synth=SynthSpec(route="shared-corridor", n_frames=20, overlap_fraction=0.5)))
        for name, stats in report.per_genie.items():
            assert stats["hits"] + stats["misses"] == stats["requests"], name

    def test_deadline_fraction_matches_manual_recount(self):
        config = small_loop(deadline_ms=33.0)
        report = run_scenario(config)
        manual = sum(1 for s in report.samples if s.latency_ms > 33.0) / len(report.samples)
        assert report.deadline_miss_fraction == manual
        assert len(empirical_cdf(report.latencies())) == report.completed

    def test_heterogeneous_cluster_runs(self):
        config = small_loop(edge_devices=("AGX", "A4500"))
        report = run_scenario(config)
        remote_genies = [n for n, s in report.genie_scopes.items() if s == "remote"]
        assert len(remote_genies) == 2
        assert report.completed == 30

    def test_car_oom_model_served_entirely_by_edge(self):
        config = small_loop(
            car_device="Nano",
            edge_devices=("AGX",),
            model="DETR-ResNet-101-DC5",
            synth=SynthSpec(route="loop", n_frames=60, overlap_fraction=0.5),
        )
        report = run_scenario(config)
        assert report.completed == 60  # edge compute covers the car's failures
        assert report.detector_oom_failures["car1/detector"] > 0
        assert report.detector_invocations["car1/detector"] == 0
        assert report.detector_invocations["edge1/detector"] > 0

    def test_drain_end_expires_stale_pending(self):
        # the model does not fit on the car and there is no edge, so no
        # answer ever comes; the last requests have no traffic after them
        config = ScenarioConfig(
            n_cars=1,
            edge_devices=(),
            model="DETR-ResNet-101-DC5",
            synth=SynthSpec(route="disjoint", n_frames=20),
            seed=7,
            pending_ttl_ms=150.0,
        )
        scenario = build_scenario(config)
        report = run_built_scenario(scenario, "DG")
        end = scenario.trace.end_ms() + config.drain_ms
        for name, genie in scenario.genies.items():
            for topic in genie.db.topic_names():
                parked = genie.db.topic_map(topic).pending.values()
                assert all(end - r.created_ms <= config.pending_ttl_ms for r in parked), name
        assert report.per_genie["car1/genie"]["expired"] == 20

    def test_edge_connection_is_optional(self):
        config = small_loop(edge_devices=())
        report = run_scenario(config)
        assert report.completed == 30  # the car is self-sufficient
        assert report.reuse("image", "local")[0] > 0


class TestCompareBaselines:
    def test_l_mode_mean_tracks_device_profile(self):
        config = small_loop(car_device="Nano", edge_devices=("A4500",))
        reports = compare_baselines(config)
        mean_l = statistics.fmean(reports["L"].latencies())
        assert mean_l == pytest.approx(307.28, rel=0.03)

    def test_ordering_and_hit_budget(self):
        config = small_loop(car_device="Nano", edge_devices=("A4500",))
        reports = compare_baselines(config)
        means = {m: statistics.fmean(r.latencies()) for m, r in reports.items()}
        assert means["DG"] < means["R"] < means["L"]
        for latency in reports["DG"].hit_latencies():
            assert latency == pytest.approx(config.hit_overhead_ms)

    @pytest.mark.parametrize("max_entries", [None, 3])
    def test_runs_leave_no_cyclic_garbage(self, max_entries):
        # per-run state is freed by reference counting alone, so the cyclic
        # collector has nothing to find; expiry, eviction, phantoms and
        # jittered delivery all run here
        import gc

        config = small_loop(
            n_cars=3,
            edge_devices=("AGX", "A4500"),
            synth=SynthSpec(route="shared-corridor", n_frames=20, overlap_fraction=0.6),
            seed=7,
            phantom_cars=("car3",),
            vn_jitter_ms=1.5,
            edge_jitter_ms=4.0,
            pending_ttl_ms=34.0,
            max_cache_entries=max_entries,
        )
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            reports = compare_baselines(config)
            assert all(r.completed for r in reports.values())
            del reports
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_modes_share_the_trace(self):
        reports = compare_baselines(small_loop())
        keys = [{(s.car, s.seq) for s in r.samples} for r in reports.values()]
        assert keys[0] == keys[1] == keys[2]

    def test_caching_never_changes_detected_content(self):
        # per frame, the cached mode delivers the same detections the
        # local-only mode computes; map-flagged additions are the only delta
        from geniesim.model import payload_bytes, strip_map_objects

        reports = compare_baselines(small_loop(n_cars=2, synth=SynthSpec(
            route="shared-corridor", n_frames=30, overlap_fraction=0.5, stagger_ms=1000.0
        )))
        l_content = {
            (s.car, s.seq): payload_bytes(strip_map_objects(s.message).payload)
            for s in reports["L"].samples
        }
        for s in reports["DG"].samples:
            assert payload_bytes(strip_map_objects(s.message).payload) == l_content[(s.car, s.seq)]


class TestBuildScenario:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            build_scenario(small_loop(), mode="LR")

    def test_remote_mode_needs_an_edge_device(self):
        with pytest.raises(ConfigError, match="edge device"):
            build_scenario(small_loop(edge_devices=()), mode="R")

    def test_scope_follows_where_a_genie_answers(self):
        config = small_loop(n_cars=2, edge_devices=("AGX", "A4500"), phantom_cars=("car2",))
        reports = compare_baselines(config)
        assert reports["DG"].genie_scopes == {
            "car1/genie": "local",
            "car2/genie": "local",
            "edge1/genie": "remote",
            "edge2/genie": "remote",
            "edge/phantom-car2": "remote",
        }
        assert reports["L"].genie_scopes == reports["R"].genie_scopes == {}
        # phantoms apply only to the cache: L and R run car2's frames as usual
        assert reports["L"].detector_invocations["car2/detector"] == 30


    def test_a_scenarios_detectors_share_one_detection_table(self):
        scenario = build_scenario(small_loop(n_cars=2, edge_devices=("AGX", "A4500")))
        detectors = list(scenario.detectors.values())
        assert len(detectors) == 4
        assert all(d.detections is detectors[0].detections for d in detectors)

    def test_a_built_fabric_counts_deliveries_but_records_none(self):
        for mode in MODES:
            scenario = build_scenario(small_loop(), mode=mode)
            run_built_scenario(scenario, mode)
            assert scenario.fabric.delivered > 0, mode
            assert scenario.fabric.deliveries == [], mode


class TestRelayNode:
    @pytest.mark.parametrize(
        "rule",
        [{}, {("VN1", "/image"): ("EDGE", "/image"), ("EDGE", "/objects"): ("VN1", "/objects")}],
        ids=["no-rule", "two-rules"],
    )
    def test_a_relay_has_exactly_one_rule(self, rule):
        with pytest.raises(ValueError):
            RelayNode("bridge", "VN1", rule)


class TestOriginFilter:
    """Each car-side node subscribes with its car's origin prefix, so the
    fabric carries a car's answers to that car alone."""

    @staticmethod
    def corridor(cars: int) -> ScenarioConfig:
        return ScenarioConfig(
            n_cars=cars,
            edge_devices=("AGX", "A4500"),
            synth=SynthSpec(route="shared-corridor", n_frames=100, overlap_fraction=0.5),
            seed=7,
        )

    def test_remote_traffic_grows_linearly_with_the_fleet(self):
        per_frame = {}
        for cars in (1, 4, 8):
            scenario = build_scenario(self.corridor(cars), mode="R")
            report = run_built_scenario(scenario, "R")
            assert report.completed == report.total_requests == 100 * cars
            per_frame[cars] = scenario.fabric.delivered / report.total_requests
        # camera to uplink, uplink to detector, detector to downlink, downlink to consumer
        assert per_frame == {1: 4.0, 4: 4.0, 8: 4.0}

    def test_a_car_hears_only_its_own_exchanges(self):
        config = replace(
            self.corridor(3),
            synth=SynthSpec(route="shared-corridor", n_frames=20, overlap_fraction=0.5),
            phantom_cars=("car3",),
            vn_jitter_ms=1.5,
            edge_jitter_ms=4.0,
        )
        for mode in ("L", "R", "DG"):
            scenario = build_scenario(config, mode=mode)
            scenario.fabric.record_deliveries()
            run_built_scenario(scenario, mode)
            heard = {car: 0 for car in scenario.trace.cars}
            for record in scenario.fabric.deliveries:
                car = record.to.split("/", 1)[0]
                if car in heard:
                    assert record.origin.startswith(f"{car}/"), (mode, record)
                    heard[car] += record.to == f"{car}/consumer"
            # one answer per frame reaches each consumer, none from another car
            assert heard == {"car1": 20, "car2": 20, "car3": 20}, mode


class TestPhantoms:
    def test_phantom_starves_on_disjoint_route(self):
        config = ScenarioConfig(
            n_cars=2,
            synth=SynthSpec(route="disjoint", n_frames=10),
            edge_devices=(),  # nothing on the edge can compute
            phantom_cars=("car2",),
            seed=4,
        )
        report = run_scenario(config)
        assert not any(s.car == "car2" for s in report.samples)
        assert all(not n.startswith("car2/") for n in report.detector_invocations)

    def test_phantom_served_from_fleet_cache(self):
        config = ScenarioConfig(
            n_cars=2,
            synth=SynthSpec(
                route="shared-corridor", n_frames=12, overlap_fraction=1.0, stagger_ms=1500.0
            ),
            phantom_cars=("car2",),
            edge_latency_ms=5.0,
            seed=4,
        )
        report = run_scenario(config)
        car2 = [s for s in report.samples if s.car == "car2"]
        assert len(car2) == 12
        assert "car2/detector" not in report.detector_invocations
        # served out of caches warmed by car1 activity
        assert report.reuse("image", "remote")[0] > 0


class TestEmitReport:
    def test_cdf_definition(self):
        assert empirical_cdf([15.0, 5.0, 10.0]) == [
            (5.0, 1 / 3),
            (10.0, 2 / 3),
            (15.0, 1.0),
        ]

    def test_files_and_empty_report(self, tmp_path):
        config = ScenarioConfig(
            n_cars=1, synth=SynthSpec(route="disjoint", n_frames=1), seed=0, drain_ms=0.0
        )
        report = run_scenario(config)
        report.samples.clear()
        report.boost_events.clear()
        out = tmp_path / "empty"
        emit_report(report, out)
        assert (out / "latency_cdf.csv").read_text().splitlines() == ["latency_ms,cum_fraction"]
        boost_lines = (out / "boost.csv").read_text().splitlines()
        assert boost_lines == ["event_index,time_ms,genie,delta,cumulative_total,cumulative_mean"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["totals"]["completed"] == 0
        assert summary["totals"]["latency_ms"]["mean"] == 0.0

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        config = small_loop(n_cars=2, synth=SynthSpec(route="shared-corridor", n_frames=15, overlap_fraction=0.4))
        a, b = tmp_path / "a", tmp_path / "b"
        emit_report(run_scenario(config), a)
        emit_report(run_scenario(config), b)
        for name in ("latency_cdf.csv", "reuse.csv", "boost.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_emission_holds_less_memory_than_the_boost_file(self, tmp_path):
        # the benchmark's corridor run: boost.csv is about 200 KB, and rows
        # go to the file as they are formatted, never into one string first
        config = ScenarioConfig(
            n_cars=4,
            edge_devices=("AGX", "A4500"),
            synth=SynthSpec(route="shared-corridor", n_frames=100, overlap_fraction=0.5),
            seed=7,
            edge_latency_ms=5.0,
        )
        report = run_scenario(config)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            emit_report(report, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < (tmp_path / "boost.csv").stat().st_size


SYNTH = {"route": "loop", "n_frames": 30, "overlap_fraction": 0.5}
LOOP = {"synth": SYNTH}

# malformed device profile tables: file name -> (table, what the error names)
PROFILE_TABLES = {
    "profile-without-mean.json": ({"Nano": {"DETR-ResNet-50": {}}}, "Nano/DETR-ResNet-50"),
    "profile-table-list.json": ([{"Nano": {}}], "device profile table"),
    "profile-device-list.json": ({"Nano": [1]}, "device profile Nano"),
    "profile-entry-number.json": ({"Nano": {"DETR-ResNet-50": 5}}, "Nano/DETR-ResNet-50"),
    **{
        f"profile-mean-{name}.json": ({"Nano": {"DETR-ResNet-50": {"mean_ms": mean}}}, "Nano/DETR-ResNet-50")
        for name, mean in (
            ("nan", float("nan")), ("infinity", float("inf")), ("list", [5]), ("string", "5"), ("bool", True),
        )
    },
}

# (file content, the path its error line must name); None is a directory
BAD_FILES = [
    pytest.param({**LOOP, "n_cars": "2"}, "config.n_cars", id="n_cars-string"),
    pytest.param({**LOOP, "deadline_ms": "33"}, "config.deadline_ms", id="deadline-string"),
    pytest.param({"synth": {**SYNTH, "n_frames": "5"}}, "config.synth.n_frames", id="n_frames-string"),
    pytest.param({"synth": {**SYNTH, "n_frame": 5}}, "config.synth.n_frame", id="synth-typo"),
    pytest.param({**LOOP, "object_map": {"thresh": 0.5}}, "config.object_map.thresh", id="map-typo"),
    pytest.param({"synth": "loop"}, "config.synth", id="synth-string"),
    pytest.param([1, 2], "config:", id="top-level-list"),
    pytest.param({**LOOP, "edge_devices": "AGX"}, "config.edge_devices", id="edge-string"),
    pytest.param({**LOOP, "phantom_cars": "car1"}, "config.phantom_cars", id="phantoms-string"),
    pytest.param({**LOOP, "phantom_cars": [1]}, "config.phantom_cars[0]", id="phantom-int"),
    pytest.param({**LOOP, "force_miss": "no"}, "config.force_miss", id="force_miss-string"),
    pytest.param({**LOOP, "seed": 1.5}, "config.seed", id="seed-float"),
    pytest.param({**LOOP, "deadline_ms": float("nan")}, "config.deadline_ms", id="deadline-nan"),
    pytest.param({**LOOP, "hit_overhead_ms": float("inf")}, "config.hit_overhead_ms", id="overhead-inf"),
    pytest.param({**LOOP, "drain_ms": float("-inf")}, "config.drain_ms", id="drain-minus-inf"),
    pytest.param(
        {"synth": {**SYNTH, "objects_per_frame": -1}}, "config.synth.objects_per_frame",
        id="objects-negative",
    ),
    *(
        pytest.param({**LOOP, name: -1}, name, id=f"{name}-negative")
        for name in ("vn_latency_ms", "vn_jitter_ms", "edge_latency_ms", "edge_jitter_ms")
    ),
    pytest.param({**LOOP, "max_cache_entries": 0}, "max_cache_entries", id="lru-zero"),
    pytest.param({**LOOP, "max_cache_entries": -1}, "max_cache_entries", id="lru-negative"),
    pytest.param(
        {**LOOP, "object_map": {"update_rule": "bogus"}}, "object_map.update_rule", id="rule-unknown"
    ),
    pytest.param(
        {**LOOP, "object_map": {"relevance_radius_m": -1}}, "relevance_radius_m", id="radius-negative"
    ),
    *(
        pytest.param({**LOOP, "profiles_file": name}, names, id=name.removesuffix(".json"))
        for name, (_, names) in PROFILE_TABLES.items()
    ),
    pytest.param(None, "scenario.d", id="directory"),
]


class TestCli:
    def _config_file(self, tmp_path):
        # loop period must exceed the dedup window or repeats answer as
        # duplicates of the still-fresh first delivery
        config = small_loop(synth=SynthSpec(route="loop", n_frames=30, overlap_fraction=0.5))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config.to_dict()))
        return path

    def test_run_and_report(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert cli_main(["report", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        assert '"completed": 30' in printed

    def test_compare_writes_trio(self, tmp_path):
        config = self._config_file(tmp_path)
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--config", str(config), "--out", str(out)]) == 0
        for mode in ("L", "R", "DG"):
            assert (out / mode / "summary.json").exists()
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["improvement_vs_L"] > 0

    def test_compare_means_are_the_summary_means(self, tmp_path):
        # the demo's summed and fmean means differ in the last digits
        demo = ROOT / "scenarios" / "demo.json"
        assert cli_main(["compare", "--config", str(demo), "--out", str(tmp_path)]) == 0
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        for mode in ("L", "R", "DG"):
            summary = json.loads((tmp_path / mode / "summary.json").read_text())
            assert comparison["mean_latency_ms"][mode] == summary["totals"]["latency_ms"]["mean"]

    def test_synth_then_run_from_file(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            cli_main(
                ["synth", "--route", "loop", "--cars", "1", "--frames", "30",
                 "--overlap", "0.5", "--seed", "6", "--out", str(trace_path)]
            )
            == 0
        )
        config = ScenarioConfig(n_cars=1, trace_file=str(trace_path), seed=6)
        report = run_scenario(config)
        assert report.completed == 30

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_cars": 0, "synth": {"route": "loop"}}))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, names", BAD_FILES)
    def test_bad_file_exits_with_one_error_line(self, tmp_path, monkeypatch, capsys, content, names):
        monkeypatch.chdir(tmp_path)
        for name, (table, _) in PROFILE_TABLES.items():
            Path(name).write_text(json.dumps(table))
        if content is None:
            path = tmp_path / "scenario.d"
            path.mkdir()
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(content))
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert names in err[0]

    def test_seed_override(self, tmp_path):
        config = self._config_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli_main(["run", "--config", str(config), "--seed", "99", "--out", str(out1)])
        cli_main(["run", "--config", str(config), "--seed", "99", "--out", str(out2)])
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

import json
import math
import re
import statistics
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from geniesim import harness
from geniesim.cli import main as cli_main
from geniesim.harness import (
    MODES,
    ConfigError,
    ConsumerNode,
    ObjectMapParams,
    RelayNode,
    ScenarioConfig,
    SynthSpec,
    _cdf_rows,
    build_genie_scenario,
    build_scenario,
    compare_baselines,
    emit_report,
    run_built_scenario,
    run_scenario,
)
from geniesim.objectmap import ObjectMapStore
from geniesim.workload import DEFAULT_PROFILES, Trace, TraceError, load_trace, save_trace, synth_trace
from geniesim.simnet import Fabric
from conftest import obj, objects_message
from oracles import count_repeats, empirical_cdf, report_csv_text

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
        with pytest.raises(ConfigError, match=r"^config\.phantom_cars: \['car9'\] not in the trace"):
            build_scenario(replace(small_loop(), phantom_cars=("car9",)))

    def test_zero_frame_period_needs_a_single_frame(self):
        one = small_loop(synth=SynthSpec(route="loop", n_frames=1, frame_period_ms=0))
        one.validate()
        with pytest.raises(ConfigError, match=r"config\.synth\.frame_period_ms"):
            replace(one, synth=replace(one.synth, n_frames=2)).validate()

    def test_bad_object_map_rejected_before_any_mode_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            "geniesim.harness.run_built_scenario", lambda scenario, mode: ran.append(mode)
        )
        with pytest.raises(ConfigError, match=r"^config\.object_map\.resolution_m"):
            compare_baselines(small_loop(object_map=ObjectMapParams(resolution_m=0.0)))
        assert ran == []

    def test_trace_file_and_synth_together_rejected_before_any_mode_runs(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 5, seed=1), path)
        ran = []
        monkeypatch.setattr(
            "geniesim.harness.run_built_scenario", lambda scenario, mode: ran.append(mode)
        )
        with pytest.raises(ConfigError, match=r"^config\.synth: set either trace_file or synth, not both"):
            compare_baselines(small_loop(trace_file=str(path)))
        assert ran == []

    def test_unknown_phantom_rejected_before_any_mode_runs(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(2, "loop", 5, seed=1), path)
        ran = []
        monkeypatch.setattr(
            "geniesim.harness.run_built_scenario", lambda scenario, mode: ran.append(mode)
        )
        config = ScenarioConfig(n_cars=2, trace_file=str(path), phantom_cars=("car9",))
        with pytest.raises(ConfigError, match=r"^config\.phantom_cars: \['car9'\] not in the trace"):
            compare_baselines(config)
        assert ran == []

    def test_edgeless_remote_rejected_before_any_mode_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            "geniesim.harness.run_built_scenario", lambda scenario, mode: ran.append(mode)
        )
        with pytest.raises(ConfigError, match="remote baseline needs at least one edge device"):
            compare_baselines(small_loop(edge_devices=()))
        assert ran == []

    def test_car_named_like_an_edge_node_rejected_before_any_mode_is_wired(self, tmp_path, monkeypatch):
        # DG names edge device 2's nodes edge2/genie and edge2/detector
        path = tmp_path / "trace.jsonl"
        frames = synth_trace(2, "loop", 5, seed=1).frames
        save_trace(Trace.build(replace(f, car="edge2") if f.car == "car2" else f for f in frames), path)
        config = ScenarioConfig(n_cars=2, trace_file=str(path), edge_devices=("AGX", "A4500"))
        for mode in ("L", "R"):
            build_scenario(config, mode=mode)
        wired = []
        monkeypatch.setattr(harness, "_wire", lambda config, *prepared: wired.append(prepared[-1]))
        with pytest.raises(ConfigError, match=r"^car 'edge2' is named like a DG edge node: edge2/genie$"):
            compare_baselines(config)
        with pytest.raises(ConfigError, match=r"^car 'edge2' is named like a DG edge node"):
            build_scenario(config)
        assert wired == []

    def test_compare_checks_and_reads_its_inputs_once(self, tmp_path, monkeypatch):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(
            (ROOT / "src" / "geniesim" / "data" / "device_profiles.json").read_text(encoding="utf-8")
        )
        calls = {"validate": 0, "load_device_profiles": 0, "synth_trace": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ScenarioConfig, "validate", counted("validate", ScenarioConfig.validate))
        for name in ("load_device_profiles", "synth_trace"):
            monkeypatch.setattr(f"geniesim.harness.{name}", counted(name, getattr(harness, name)))
        reports = compare_baselines(small_loop(profiles_file=str(profiles)))
        assert list(reports) == list(MODES)
        assert calls == {"validate": 1, "load_device_profiles": 1, "synth_trace": 1}

    def test_bad_deadline_rejected(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match=r"^config\.deadline_ms must be positive"):
                small_loop(deadline_ms=bad).validate()

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
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match=rf"^config\.{field} must be non-negative"):
                small_loop(**{field: bad}).validate()

    def test_packaged_profiles_are_not_reread(self):
        assert small_loop().resolve_profiles() is DEFAULT_PROFILES

    def test_trace_car_count_must_match(self, tmp_path):
        trace = synth_trace(2, "disjoint", 5, seed=1)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        config = ScenarioConfig(n_cars=3, trace_file=str(path))
        with pytest.raises(ConfigError, match="cars"):
            run_scenario(config)
        # a trace passed in is held to the same rule
        config = ScenarioConfig(n_cars=1, synth=SynthSpec(route="loop", n_frames=5))
        with pytest.raises(ConfigError, match="^trace has 3 cars but config says 1$"):
            build_scenario(config, synth_trace(3, "loop", 5))

    def test_validate_builds_no_object_map(self, monkeypatch):
        built = []
        init = ObjectMapStore.__init__

        def spy_init(self, **params):
            built.append(params)
            init(self, **params)

        monkeypatch.setattr(ObjectMapStore, "__init__", spy_init)
        small_loop(object_map=ObjectMapParams(update_rule="ascend")).validate()
        assert built == []
        with pytest.raises(ConfigError, match=r"^config\.object_map\.resolution_m"):
            small_loop(object_map=ObjectMapParams(resolution_m=0.0)).validate()
        assert built == []

    def test_the_bench_entry_point_is_the_checked_builder(self):
        # the benchmark times harness.build_genie_scenario as its setup
        assert harness.build_genie_scenario is harness.build_scenario

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

    def test_a_genies_record_is_its_summary_entry(self):
        config = small_loop(
            n_cars=2, edge_devices=("AGX", "A4500"),
            synth=SynthSpec(route="shared-corridor", n_frames=20, overlap_fraction=0.5),
        )
        scenario = build_scenario(config)
        report = run_built_scenario(scenario, "DG")
        assert report.per_genie.keys() == scenario.genies.keys()
        for name, genie in scenario.genies.items():
            record = genie.counters_dict()
            assert record == report.per_genie[name], name
            assert record["object_map_size"] == len(genie.object_map), name
            assert record["reuse"]["object"] == (genie.object_map.hits, genie.object_map.requests), name
        assert report.reuse("image")[0] > 0 and report.reuse("object")[1] > 0

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
    @pytest.mark.parametrize("runner", [run_scenario, compare_baselines])
    def test_invalid_config_refused_before_the_trace_is_read(self, tmp_path, runner):
        with pytest.raises(ConfigError, match="trace_file or synth"):
            runner(ScenarioConfig())
        with pytest.raises(ConfigError, match="n_cars"):
            runner(ScenarioConfig(n_cars=0, trace_file=str(tmp_path / "absent.jsonl")))

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

    @pytest.mark.parametrize("route, overlap", [("disjoint", 0.0), ("loop", 0.5), ("shared-corridor", 0.5)])
    def test_without_an_edge_device_transparency_adds_exactly_its_overheads(self, route, overlap):
        # the paper's "transparent" claim: with no edge device, no jitter,
        # no phantom and a TTL above every detector latency, DG that never
        # serves from its cache reaches the car's detector as L does, one
        # miss overhead, one answer overhead and two extra hops later
        config = ScenarioConfig(
            n_cars=3, edge_devices=(), synth=SynthSpec(route=route, n_frames=200, overlap_fraction=overlap),
            seed=5, vn_latency_ms=1.0,
        )
        local = run_built_scenario(build_scenario(config, mode="L"), "L").samples
        dg = run_scenario(replace(config, force_miss=True)).samples
        assert [(s.car, s.seq) for s in dg] == [(s.car, s.seq) for s in local]
        assert len(dg) == 600
        for l, g in zip(local, dg):
            # added left to right, as a request accumulates them
            assert g.latency_ms == (
                l.latency_ms + config.miss_overhead_ms + config.answer_overhead_ms + 2 * config.vn_latency_ms
            ), (g.car, g.seq)

    def test_modes_share_the_trace(self):
        reports = compare_baselines(small_loop())
        keys = [{(s.car, s.seq) for s in r.samples} for r in reports.values()]
        assert keys[0] == keys[1] == keys[2]

    def test_every_mode_answers_from_one_detection_table(self):
        reports = compare_baselines(small_loop(n_cars=2))
        remote = {(s.car, s.seq): s.message.payload for s in reports["R"].samples}
        assert len(remote) == 60
        for s in reports["L"].samples:
            assert s.message.payload is remote[(s.car, s.seq)]

    def test_caching_never_changes_detected_content(self):
        # per frame, the cached mode delivers the same detections the
        # local-only mode computes; map-flagged additions are the only delta
        from oracles import payload_bytes, strip_map_objects

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

    def test_a_passed_trace_out_of_the_maps_range_is_refused_at_build(self):
        # each number is finite, but the object's cell is not
        frames = list(synth_trace(1, "loop", 3, seed=1).frames)
        truths = frames[1].truths
        frames[1] = replace(
            frames[1], pose=replace(frames[1].pose, x=1e308, yaw=0.0),
            truths=(replace(truths[0], offset=(1e308, *truths[0].offset[1:])), *truths[1:]),
        )
        config = ScenarioConfig(n_cars=1, synth=SynthSpec(route="loop", n_frames=3))
        for mode in MODES:
            with pytest.raises(ConfigError, match=f"^car 'car1', image '{frames[1].image_id}': .* out of the object map"):
                build_scenario(config, Trace.build(frames), mode)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(
                "confidence", 1.5, "confidence 1.5 out of range (car 'car1', image {image!r})", id="confidence"
            ),
            pytest.param(
                "extent", (0.4, 0.0, 1.2), "extent [0.4, 0.0, 1.2] is not finite and positive (image {image!r})",
                id="extent",
            ),
        ],
    )
    def test_a_passed_trace_the_detector_cannot_report_is_refused_at_build(self, field, value, message):
        # Trace.build refuses it, before any scenario is built
        frames = list(synth_trace(1, "loop", 3, seed=1).frames)
        truths = frames[1].truths
        frames[1] = replace(frames[1], truths=(replace(truths[0], **{field: value}), *truths[1:]))
        with pytest.raises(TraceError, match=f"^{re.escape(message.format(image=frames[1].image_id))}$"):
            Trace.build(frames)

    @staticmethod
    def _extent(extent):
        return lambda f: replace(f, truths=(replace(f.truths[0], extent=extent), *f.truths[1:]))

    @staticmethod
    def _truth(**change):
        return lambda f: replace(f, truths=(replace(f.truths[0], **change), *f.truths[1:]))

    @pytest.mark.parametrize(
        "change, refusal",
        [
            (_extent((0.4, 0.4, 1.2)), None),
            (_extent((1e-300, 0.4, 1e300)), None),
            (
                _extent((0.4, math.inf, 1.2)),
                (TraceError, "extent [0.4, inf, 1.2] is not finite and positive (image {image!r})"),
            ),
            (
                _extent((0.4, math.nan, 1.2)),
                (TraceError, "extent [0.4, nan, 1.2] is not finite and positive (image {image!r})"),
            ),
            (
                _extent((0.0, 0.4, 1.2)),
                (TraceError, "extent [0.0, 0.4, 1.2] is not finite and positive (image {image!r})"),
            ),
            (
                lambda f: replace(f, truths=(), pose=replace(f.pose, x=math.inf)),
                (TraceError, "non-finite pose (image {image!r})"),
            ),
            (  # an infinite yaw normalizes to NaN
                lambda f: replace(f, truths=(), pose=replace(f.pose, yaw=math.inf)),
                (TraceError, "non-finite pose (image {image!r})"),
            ),
            (lambda f: replace(f, t_ms=0.5), (TraceError, "t_ms must be a non-negative integer: 0.5")),
            (lambda f: replace(f, t_ms=float(f.t_ms)), None),
            (_truth(confidence=1.5), (TraceError, "confidence 1.5 out of range (car 'car1', image {image!r})")),
            (_truth(confidence=math.nan), (TraceError, "confidence nan out of range (car 'car1', image {image!r})")),
            (_truth(confidence=0.0), None),
            (_truth(confidence=1.0), None),
            (_truth(offset=(math.nan, 1.0, 0.5)), (TraceError, "non-finite loc [nan, 1.0, 0.5] (image {image!r})")),
            (_truth(offset=(1.0, -math.inf, 0.5)), (TraceError, "non-finite loc [1.0, -inf, 0.5] (image {image!r})")),
        ],
        ids=[
            "plain", "extreme", "infinite", "nan", "zero",
            "infinite-pose", "infinite-yaw", "fractional-stamp", "integral-float-stamp",
            "confidence-above-one", "confidence-nan", "confidence-zero", "confidence-one",
            "offset-nan", "offset-minus-inf",
        ],
    )
    def test_a_trace_that_builds_comes_back_unchanged_from_save_and_load(self, tmp_path, change, refusal):
        frames = list(synth_trace(1, "loop", 3, seed=1).frames)
        frames[1] = change(frames[1])
        config = ScenarioConfig(n_cars=1, synth=SynthSpec(route="loop", n_frames=3))
        if refusal is not None:
            error, message = refusal
            for mode in MODES:
                with pytest.raises(error, match=re.escape(message.format(image=frames[1].image_id))):
                    build_scenario(config, Trace.build(frames), mode)
            return
        trace = Trace.build(frames)
        build_scenario(config, trace)
        save_trace(trace, tmp_path / "trace.jsonl")
        assert load_trace(tmp_path / "trace.jsonl") == trace

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


class TestConsumerNode:
    def test_a_second_answer_to_one_request_adds_no_sample(self):
        # a zero window accepts a repeat 10 ms later; the sample is still the first
        consumer = ConsumerNode("car1/consumer", "VN1", "car1", dedup_window_ms=0.0)
        answer = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),), origin="car1/camera")
        net = Fabric(seed=0)
        for at in (10.0, 20.0):
            consumer.on_message(net, at, "VN1", "/objects", answer)
        assert consumer.dedup.accepted == 2
        [sample] = consumer.samples.values()
        assert (sample.latency_ms, sample.message) == (10.0, answer)


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


class TestCollectReport:
    def test_boost_ties_come_out_in_genie_name_order_then_ingest_order(self):
        scenario = build_scenario(small_loop(n_cars=2, synth=SynthSpec(route="loop", n_frames=3)))
        # genies listed out of name order, so the name order must come from the sort
        scenario.genies = dict(sorted(scenario.genies.items(), reverse=True))
        records = {
            "car1/genie": [(5.0, 0.9), (3.0, 0.3)],
            "car2/genie": [(5.0, 0.4), (5.0, -0.1), (1.0, 0.2)],
            "edge1/genie": [(5.0, 0.1)],
        }
        assert sorted(records) == sorted(scenario.genies)
        for name, genie in scenario.genies.items():
            genie.object_map.boost_records = records[name]
        assert harness.collect_report(scenario, "DG").boost_events == [
            (1.0, "car2/genie", 0.2),
            (3.0, "car1/genie", 0.3),
            # one instant: car1 before car2 before edge1, and car2's two
            # boosts in the order it ingested them
            (5.0, "car1/genie", 0.9),
            (5.0, "car2/genie", 0.4),
            (5.0, "car2/genie", -0.1),
            (5.0, "edge1/genie", 0.1),
        ]


class TestEmitReport:
    def test_cdf_definition(self):
        assert list(_cdf_rows([15.0, 5.0, 10.0])) == [
            (5.0, 1 / 3),
            (10.0, 2 / 3),
            (15.0, 1.0),
        ]

    def test_csvs_equal_the_per_row_writer_on_repeats_and_signed_zeros(self, tmp_path):
        # each repeated value's text is reused, except a zero's: 0.0 == -0.0
        # but their reprs differ; NaN equals nothing
        report = run_scenario(small_loop())
        latencies = [8.8, 0.0, -0.0, -0.0, 0.0, 8.8, 8.8, 1e-300, 5.0, 8.800000000000002, math.nan]
        report.samples[:] = [replace(s, latency_ms=v) for s, v in zip(report.samples, latencies)]
        report.boost_events[:] = [
            (t, name, delta)
            for t, name, delta in zip(
                [0.0, -0.0, -0.0, 0.0, 0.0, 3.5, 3.5, 3.5, math.nan, math.nan, 7.25, 7.25],
                ["car1/genie", "edge1/genie"] * 6,
                [0.1, -0.2, 0.0, -0.0, 0.05, 0.3, -0.1, 0.2, 0.0, 0.1, -0.05, 0.4],
            )
        ]
        emit_report(report, tmp_path)
        for name, text in report_csv_text(report).items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name
        boost = (tmp_path / "boost.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[1] for line in boost[:5]] == ["0.0", "-0.0", "-0.0", "0.0", "0.0"]
        cdf = (tmp_path / "latency_cdf.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert {"0.0", "-0.0"} <= {line.split(",")[0] for line in cdf}

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
            ("beyond-float", 10**400),
        )
    },
    **{
        f"profile-oom-{name}.json": ({"Nano": {"DETR-ResNet-50": {"oom": oom, "mean_ms": 5}}}, "Nano/DETR-ResNet-50")
        for name, oom in (("string", "false"), ("number", 1))
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
    pytest.param(
        {**LOOP, "n_cars": 2, "phantom_cars": ["car2", "car2"]}, "config.phantom_cars[1]", id="phantom-twice"
    ),
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
        pytest.param({"synth": {**SYNTH, name: -10}}, f"config.synth.{name}", id=f"{name}-negative")
        for name in ("frame_period_ms", "stagger_ms")
    ),
    *(
        pytest.param({"synth": {**SYNTH, name: 0}}, f"config.synth.{name}", id=f"{name}-zero")
        for name in ("conf_alpha", "conf_beta", "n_frames", "frame_period_ms")
    ),
    pytest.param({"synth": {**SYNTH, "route": "zigzag"}}, "config.synth.route", id="route-unknown"),
    pytest.param(  # the second frame's stamp is no float
        {"synth": {**SYNTH, "n_frames": 2, "frame_period_ms": 2**53 + 1}}, "has a stamp above 2**53",
        id="period-beyond-float",
    ),
    *(  # each is a number that no float holds
        pytest.param({**LOOP, name: 10**400}, f"config.{name}", id=f"{name}-beyond-float")
        for name in ("n_cars", "deadline_ms")
    ),
    *(
        pytest.param({"synth": {**SYNTH, name: 10**400}}, f"config.synth.{name}", id=f"{name}-beyond-float")
        for name in ("n_frames", "stagger_ms", "frame_period_ms")
    ),
    *(
        pytest.param({"synth": {**SYNTH, **synth}}, "config.synth.overlap_fraction", id=case)
        for case, synth in (
            ("overlap-above-one", {"overlap_fraction": 1.5}),
            ("overlap-negative", {"overlap_fraction": -0.5}),
            ("disjoint-overlap", {"route": "disjoint", "overlap_fraction": 0.5}),
        )
    ),
    *(
        pytest.param({**LOOP, name: -1}, f"config.{name}", id=f"{name}-negative")
        for name in ("vn_latency_ms", "vn_jitter_ms", "edge_latency_ms", "edge_jitter_ms")
    ),
    pytest.param({**LOOP, "n_cars": 0}, "config.n_cars", id="n_cars-zero"),
    pytest.param({**LOOP, "deadline_ms": 0}, "config.deadline_ms", id="deadline-zero"),
    pytest.param({**LOOP, "phantom_cars": ["car9"]}, "config.phantom_cars", id="phantom-unknown"),
    pytest.param({**LOOP, "trace_file": "trace.jsonl"}, "config.synth", id="trace-and-synth"),
    pytest.param({**LOOP, "max_cache_entries": 0}, "config.max_cache_entries", id="lru-zero"),
    pytest.param({**LOOP, "max_cache_entries": -1}, "config.max_cache_entries", id="lru-negative"),
    pytest.param(
        {**LOOP, "object_map": {"update_rule": "bogus"}}, "config.object_map.update_rule", id="rule-unknown"
    ),
    pytest.param(
        {**LOOP, "object_map": {"relevance_radius_m": -1}}, "config.object_map.relevance_radius_m",
        id="radius-negative",
    ),
    *(
        pytest.param({**LOOP, "object_map": {name: value}}, f"config.object_map.{name}", id=case)
        for case, name, value in (
            ("resolution-zero", "resolution_m", 0),
            ("resolution-tiny", "resolution_m", 1e-310),
            ("threshold-above-one", "confidence_threshold", 1.5),
            ("rate-zero", "update_rate", 0),
        )
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

    @pytest.mark.parametrize("flag", ["--stagger-ms", "--period-ms"])
    def test_synth_refuses_a_negative_time(self, tmp_path, capsys, flag):
        trace_path = tmp_path / "trace.jsonl"
        argv = ["synth", "--route", "loop", "--cars", "2", "--frames", "3", flag, "-300", "--out", str(trace_path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert flag.removeprefix("--").replace("-", "_") in err[0]
        assert not trace_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_synth_refuses_a_non_finite_stagger(self, tmp_path, capsys, value):
        trace_path = tmp_path / "trace.jsonl"
        argv = ["synth", "--cars", "2", "--frames", "3", "--stagger-ms", value, "--out", str(trace_path)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: stagger_ms must be finite and non-negative: {float(value)}"
        ]
        assert not trace_path.exists()

    def test_a_stagger_too_large_for_the_cars_exits_with_one_error_line(self, tmp_path, capsys):
        # 1e308 is finite, but the third car starts at 2 * 1e308, which is not
        expected = ["error: stagger_ms is too large for 3 cars: 1e+308"]
        trace_path = tmp_path / "trace.jsonl"
        assert cli_main(["synth", "--cars", "3", "--stagger-ms", "1e308", "--out", str(trace_path)]) == 2
        assert capsys.readouterr().err.splitlines() == expected
        assert not trace_path.exists()
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(
            {"n_cars": 3, "synth": {"route": "loop", "n_frames": 3, "stagger_ms": 1e308}}
        ))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == expected

    def test_synth_refuses_a_zero_period_only_for_several_frames(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        argv = ["synth", "--route", "loop", "--cars", "1", "--period-ms", "0", "--out", str(trace_path)]
        assert cli_main([*argv, "--frames", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: frame_period_ms must be positive")
        assert not trace_path.exists()
        assert cli_main([*argv, "--frames", "1"]) == 0
        assert len(load_trace(trace_path).frames) == 1

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

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("truths", 0, "loc", 1), float("nan"), id="loc-nan"),
            pytest.param(("truths", 0, "loc", 2), float("-inf"), id="loc-minus-inf"),
            pytest.param(("truths", 0, "extent", 0), float("nan"), id="extent-nan"),
            pytest.param(("truths", 0, "extent", 2), float("inf"), id="extent-inf"),
            pytest.param(("truths", 0, "conf"), float("nan"), id="conf-nan"),
            *(
                pytest.param(("pose", axis), value, id=f"pose-{axis}-{name}")
                for axis in ("x", "y", "z", "yaw")
                for name, value in (("nan", float("nan")), ("inf", float("inf")))
            ),
            pytest.param(("t_ms",), float("inf"), id="t_ms-inf"),
            pytest.param(("t_ms",), -5, id="t_ms-negative"),
            pytest.param(("t_ms",), 10.9, id="t_ms-fractional"),
            # each of these used to load, coerced by str(), int() or float()
            pytest.param(("truths", 0, "label"), 5, id="label-number"),
            pytest.param(("car",), 7, id="car-number"),
            pytest.param(("image_id",), 12, id="image_id-number"),
            pytest.param(("t_ms",), True, id="t_ms-bool"),
            pytest.param(("truths", 0, "conf"), "0.5", id="conf-string"),
            pytest.param(("truths", 0, "conf"), True, id="conf-bool"),
            pytest.param(("pose", "x"), "1.5", id="pose-x-string"),
            pytest.param(("truths", 0, "loc"), "123", id="loc-string"),
            pytest.param(("truths", 0, "loc", 0), False, id="loc-bool"),
            pytest.param(("truths", 0, "extent"), [1.0, 1.0], id="extent-two-elements"),
        ],
    )
    def test_non_finite_trace_number_exits_with_one_error_line(self, tmp_path, capsys, path, value):
        trace_path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 3, seed=1), trace_path)
        lines = trace_path.read_text().splitlines()
        frame = json.loads(lines[1])
        *parents, last = path
        target = frame
        for key in parents:
            target = target[key]
        target[last] = value
        lines[1] = json.dumps(frame)
        trace_path.write_text("\n".join(lines) + "\n")
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(ScenarioConfig(n_cars=1, trace_file=str(trace_path)).to_dict()))
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: line 2: ")

    @pytest.mark.parametrize(
        "pose_x, loc_x",
        [
            pytest.param(1e308, 1e308, id="sum-overflows"),
            pytest.param(0.0, 1e308, id="cell-index-overflows"),
        ],
    )
    def test_object_out_of_map_range_exits_with_one_error_line(self, tmp_path, capsys, pose_x, loc_x):
        # each number is finite, but the object's cell is not
        trace_path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 3, seed=1), trace_path)
        lines = trace_path.read_text().splitlines()
        frame = json.loads(lines[1])
        frame["pose"].update(x=pose_x, yaw=0.0)
        frame["truths"][0]["loc"][0] = loc_x
        lines[1] = json.dumps(frame)
        trace_path.write_text("\n".join(lines) + "\n")
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(ScenarioConfig(n_cars=1, trace_file=str(trace_path)).to_dict()))
        for command in ("run", "compare"):
            assert cli_main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("error: car 'car1', image ")
            assert frame["image_id"] in err[0]

    def test_a_stamp_a_float_cannot_hold_exits_with_one_error_line(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 3, seed=1), trace_path)
        lines = trace_path.read_text().splitlines()
        frame = json.loads(lines[-1])
        frame["t_ms"] = 10**400
        lines[-1] = json.dumps(frame)
        trace_path.write_text("\n".join(lines) + "\n")
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(ScenarioConfig(n_cars=1, trace_file=str(trace_path)).to_dict()))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: line 3: car 'car1' has a stamp above 2**53: t_ms={10**400}"
        ]

    def test_zero_resolution_with_a_trace_file_exits_with_one_error_line(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 3, seed=1), trace_path)
        config = ScenarioConfig(n_cars=1, trace_file=str(trace_path)).to_dict()
        # 1e-310 is positive, but the relevance radius over it is not finite
        for resolution in (0.0, 1e-310):
            config["object_map"]["resolution_m"] = resolution
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(config))
            for command in ("run", "compare"):
                assert cli_main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and "resolution_m" in err[0]

    @pytest.mark.parametrize("summary", [None, "{not json"], ids=["missing", "malformed"])
    def test_unreadable_summary_exits_with_one_error_line(self, tmp_path, capsys, summary):
        if summary is not None:
            (tmp_path / "summary.json").write_text(summary)
        assert cli_main(["report", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    def test_seed_override(self, tmp_path):
        config = self._config_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli_main(["run", "--config", str(config), "--seed", "99", "--out", str(out1)])
        cli_main(["run", "--config", str(config), "--seed", "99", "--out", str(out2)])
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

import geniesim
from geniesim import harness, workload
from geniesim.model import Pose
from geniesim.objectmap import quantize
from geniesim.simnet import Fabric, SimNode
from geniesim.workload import (
    DEFAULT_PROFILES,
    DetectorNode,
    DeviceProfile,
    GroundTruth,
    OomError,
    Trace,
    TraceError,
    TraceFrame,
    UnknownModelError,
    detect,
    detector_stub,
    load_device_profiles,
    load_trace,
    save_trace,
    synth_trace,
)
from conftest import OBJECTS, image_message
from oracles import count_repeats, payload_bytes


class TestDeviceProfiles:
    def test_measured_means_exact(self):
        assert DEFAULT_PROFILES["Nano"].latency_ms("YOLOv8s") == 27.60
        assert DEFAULT_PROFILES["A4500"].latency_ms("YOLOv8s") == 5.50
        assert DEFAULT_PROFILES["A4500"].latency_ms("DETR-ResNet-101") == 40.73
        assert DEFAULT_PROFILES["Nano"].latency_ms("DETR-ResNet-50") == 307.28
        assert DEFAULT_PROFILES["AGX"].latency_ms("DETR-ResNet-101-DC5") == 747.30

    def test_speedup_reconstruction(self):
        speedup = DEFAULT_PROFILES["Nano"].latency_ms("YOLOv8s") / DEFAULT_PROFILES[
            "A4500"
        ].latency_ms("YOLOv8s")
        assert abs(speedup - 5.02) <= 0.01

    def test_oom_flag(self):
        with pytest.raises(OomError):
            DEFAULT_PROFILES["Nano"].latency_ms("DETR-ResNet-101-DC5")

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            DEFAULT_PROFILES["Nano"].latency_ms("SSD")

    def test_jitter_envelope(self):
        rng = random.Random(0)
        profile = DEFAULT_PROFILES["Nano"]
        for _ in range(200):
            latency = profile.latency_ms("YOLOv8s", rng)
            assert 27.60 * 0.95 <= latency <= 27.60 * 1.05

    def test_positive_latency_required(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", {"m": 0.0})

    def test_custom_profile_file(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"Dev": {"m": {"mean_ms": 3.0}, "big": {"oom": True}}}))
        profiles = load_device_profiles(path)
        assert profiles["Dev"].latency_ms("m") == 3.0
        with pytest.raises(OomError):
            profiles["Dev"].latency_ms("big")


class TestDetectorStub:
    def test_locations_translated_to_absolute(self):
        pose = Pose(100.0, 50.0, 0.0, 0.0)
        truths = (GroundTruth("car", 0.7, (5.0, -2.0, 1.0), (4.4, 1.9, 1.5)),)
        payload, latency = detector_stub("f0", truths, pose, DEFAULT_PROFILES["A4500"], "YOLOv8s")
        assert payload.objects[0].location == (105.0, 48.0, 1.0)
        assert latency == 5.50

    def test_pure_function_of_frame(self):
        pose = Pose(10.0, 0.0, 0.0, 0.3)
        truths = (GroundTruth("pole", 0.5, (3.3, 1.1, 0.4), (0.3, 0.3, 4.0)),)
        outs = {
            payload_bytes(
                detector_stub("f0", truths, pose, DEFAULT_PROFILES["Nano"], "YOLOv8s")[0]
            )
            for _ in range(50)
        }
        assert len(outs) == 1


class TestSynth:
    def test_loop_overlap_exact(self):
        trace = synth_trace(1, "loop", 100, overlap_fraction=0.5, seed=4)
        assert count_repeats(trace, "car1") == 50

    def test_loop_zero_overlap(self):
        trace = synth_trace(1, "loop", 60, overlap_fraction=0.0, seed=4)
        assert count_repeats(trace, "car1") == 0

    def test_disjoint_cars_share_nothing(self):
        trace = synth_trace(2, "disjoint", 40, seed=4)
        ids = {car: {f.image_id for f in trace.by_car[car]} for car in trace.cars}
        assert not ids["car1"] & ids["car2"]
        cells = {
            car: {
                quantize(
                    # object absolute location reconstructed through the pose
                    __import__("geniesim.model", fromlist=["translate_location"]).translate_location(
                        t.offset, f.pose
                    ),
                    0.5,
                )
                for f in trace.by_car[car]
                for t in f.truths
            }
            for car in trace.cars
        }
        assert not cells["car1"] & cells["car2"]

    def test_disjoint_rejects_overlap(self):
        with pytest.raises(ValueError):
            synth_trace(2, "disjoint", 10, overlap_fraction=0.5)

    def test_negative_objects_per_frame_rejected(self):
        assert synth_trace(1, "loop", 5, objects_per_frame=0).frames
        with pytest.raises(ValueError, match="objects_per_frame"):
            synth_trace(1, "loop", 5, objects_per_frame=-1)

    def test_zero_period_allowed_only_for_one_frame(self):
        assert len(synth_trace(2, "loop", 1, frame_period_ms=0).frames) == 2
        with pytest.raises(ValueError, match="frame_period_ms"):
            synth_trace(1, "loop", 3, frame_period_ms=0)

    def test_shared_corridor_shared_ids(self):
        trace = synth_trace(3, "shared-corridor", 50, overlap_fraction=0.4, seed=4)
        shared = {f.image_id for f in trace.by_car["car1"]} & {
            f.image_id for f in trace.by_car["car2"]
        }
        assert len(shared) == 20  # round(0.4 * 50)

    def test_same_seed_identical(self):
        a = synth_trace(2, "shared-corridor", 30, overlap_fraction=0.5, seed=9)
        b = synth_trace(2, "shared-corridor", 30, overlap_fraction=0.5, seed=9)
        assert a.frames == b.frames

    def test_car1_stream_independent_of_fleet_size(self):
        solo = synth_trace(1, "shared-corridor", 30, overlap_fraction=0.5, seed=9)
        fleet = synth_trace(3, "shared-corridor", 30, overlap_fraction=0.5, seed=9)
        assert solo.by_car["car1"] == fleet.by_car["car1"]

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            synth_trace(1, "loop", 10, overlap_fraction=1.5)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            synth_trace(1, "zigzag", 10)

    def test_omitted_seed_is_zero(self):
        assert synth_trace(2, "loop", 5).frames == synth_trace(2, "loop", 5, seed=0).frames
        assert synth_trace(2, "loop", 5, seed=None).frames == synth_trace(2, "loop", 5, seed=0).frames

    def test_synth_spec_is_one_class(self):
        assert geniesim.SynthSpec is harness.SynthSpec is workload.SynthSpec

    def test_translation_consistency_across_viewpoints(self):
        # the same static object sighted by different cars lands in one cell
        trace = synth_trace(2, "shared-corridor", 20, overlap_fraction=0.0, seed=2)
        from geniesim.model import translate_location

        by_label_scene: dict[tuple, set] = {}
        for f in trace.frames:
            for t in f.truths:
                absolute = translate_location(t.offset, f.pose)
                cell = quantize(absolute, 0.5)
                by_label_scene.setdefault((t.label, cell[0]), set()).add(cell)
        for cells in by_label_scene.values():
            assert len(cells) == 1

    # sha256 of save_trace's bytes, recorded before synth_trace built each
    # frame in one pass; a change to the synthesizer's draws shows up here
    @pytest.mark.parametrize(
        "route, shape, digest",
        [
            ("loop", dict(n_cars=1, n_frames=7, overlap_fraction=0.3, seed=7),
             "e81f8362834d32c0b7addb30a159b3f1a2924ba8bbcbad8bc64475103e07c349"),
            ("loop", dict(n_cars=3, n_frames=40, overlap_fraction=1.0, objects_per_frame=0, stagger_ms=0),
             "445263923710edfa5d821572d0c5b7bf535cb3225d8d229e24421062ba463f91"),
            ("shared-corridor",
             dict(n_cars=3, n_frames=40, overlap_fraction=1.0, objects_per_frame=0, stagger_ms=0),
             "78fe643675ab72b5514e57cf520f91e206b930866d0da0b294b477f7f95f6bd1"),
            ("shared-corridor", dict(n_cars=2, n_frames=7, overlap_fraction=1.0, stagger_ms=0),
             "b6dbbf6097679c37b65f69ae0cd37eae097d31b578f8921df46f1d89ba45f69c"),
            ("shared-corridor", dict(n_cars=3, n_frames=7, overlap_fraction=0.3, seed=7),
             "076cb43fea579e632ae9d91bbaa9b18554b0956c906ec0d6fd88870535b831bc"),
            ("shared-corridor", dict(n_cars=2, n_frames=7, overlap_fraction=0.0, stagger_ms=0),
             "038d842d16ac6e4e01dc14fc94faf1ad3210d9920a57a01e51a5c6cc961740d6"),
            ("disjoint", dict(n_cars=3, n_frames=7, seed=7),
             "eb06234629cab60b8848a6a2602b4af0fe1666aed40ce57c6abb0ebbea6eba16"),
            ("disjoint", dict(n_cars=1, n_frames=1, objects_per_frame=0),
             "69424de992d8f4a06b7b572c59674cffd5bc989f31399146d2b11a75f91bf03f"),
        ],
    )
    def test_saved_trace_bytes_pinned(self, tmp_path, route, shape, digest):
        path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(route=route, **shape), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestTraceIO:
    def test_round_trip_50_random_traces(self, tmp_path):
        rng = random.Random(7)
        for i in range(50):
            route = rng.choice(["loop", "shared-corridor", "disjoint"])
            overlap = 0.0 if route == "disjoint" else rng.choice([0.0, 0.25, 0.5, 1.0])
            trace = synth_trace(
                rng.randint(1, 3), route, rng.randint(1, 25),
                objects_per_frame=rng.randint(1, 4),
                overlap_fraction=overlap, seed=i,
            )
            path = tmp_path / f"t{i}.jsonl"
            save_trace(trace, path)
            assert load_trace(path).frames == trace.frames

    def test_two_car_file(self, tmp_path):
        trace = synth_trace(2, "disjoint", 5, seed=1)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        assert load_trace(path).cars == ("car1", "car2")

    def test_car_name_with_slash_rejected(self, tmp_path):
        # "car1/" is car1's origin prefix, so it would admit car1/x's answers
        trace = synth_trace(2, "disjoint", 5, seed=1)
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if '"car2"' in line)
        path.write_text("\n".join(line.replace('"car2"', '"car1/x"') for line in lines) + "\n")
        with pytest.raises(TraceError, match=f"^line {lineno}: car name 'car1/x' may not contain '/'$"):
            load_trace(path)

    def test_confidence_out_of_range_names_frame(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {
                    "car": "car1",
                    "t_ms": 0,
                    "pose": {"x": 0, "y": 0, "z": 0, "yaw": 0},
                    "image_id": "f-bad",
                    "truths": [
                        {"label": "car", "conf": 1.3, "loc": [1, 2, 3], "extent": [1, 1, 1]}
                    ],
                }
            )
            + "\n"
        )
        with pytest.raises(TraceError, match=r"line 1.*f-bad"):
            load_trace(path)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        frame = {
            "car": "car1",
            "pose": {"x": 0, "y": 0, "z": 0, "yaw": 0},
            "truths": [],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({**frame, "t_ms": 100, "image_id": "a"})
            + "\n"
            + json.dumps({**frame, "t_ms": 100, "image_id": "b"})
            + "\n"
        )
        with pytest.raises(TraceError, match="strictly increasing"):
            load_trace(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"car": "car1"}\nnot json\n')
        with pytest.raises(TraceError, match="line 1|line 2"):
            load_trace(path)

    def test_inconsistent_replay_rejected(self):
        pose = Pose(0, 0, 0, 0)
        a = TraceFrame("car1", 0, pose, "f0", (GroundTruth("car", 0.5, (1, 1, 1), (1, 1, 1)),))
        b = TraceFrame("car1", 100, pose, "f0", (GroundTruth("car", 0.9, (1, 1, 1), (1, 1, 1)),))
        with pytest.raises(TraceError, match="exact replays"):
            Trace.build([a, b])

    def test_built_trace_refuses_a_car_name_with_slash(self):
        # the loader's rule, for a trace passed to build_scenario directly
        frames = synth_trace(2, "disjoint", 3, seed=1).frames
        renamed = [replace(f, car="car1/x") if f.car == "car2" else f for f in frames]
        with pytest.raises(TraceError, match=r"^car name 'car1/x' may not contain '/'$"):
            Trace.build(renamed)

    def test_built_trace_refuses_a_negative_stamp(self):
        frames = synth_trace(1, "loop", 3, seed=1).frames
        with pytest.raises(TraceError, match=r"^t_ms must be a non-negative integer: -5 \(car 'car1'\)$"):
            Trace.build([replace(frames[0], t_ms=-5), *frames[1:]])

    def test_built_trace_refuses_a_stamp_a_float_cannot_hold(self):
        # 2**53 + 1 and 2**53 round to one float, so the replay would tie them
        frames = synth_trace(1, "loop", 3, seed=1).frames
        assert Trace.build([*frames[:-1], replace(frames[-1], t_ms=2**53)]).end_ms() == 2**53
        with pytest.raises(TraceError, match=rf"^car 'car1' has a stamp above 2\*\*53: t_ms={2**53 + 1}$"):
            Trace.build([*frames[:-1], replace(frames[-1], t_ms=2**53 + 1)])

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("t_ms",), 150.5, id="stamp-fractional"),
            pytest.param(("t_ms",), -5, id="stamp-negative"),
            pytest.param(("t_ms",), True, id="stamp-bool"),
            pytest.param(("t_ms",), "150", id="stamp-string"),
            pytest.param(("t_ms",), 2**53 + 1, id="stamp-beyond-float"),
            pytest.param(("car",), "car1/x", id="car-slash"),
            pytest.param(("pose", "y"), math.inf, id="pose-inf"),
            pytest.param(("pose", "yaw"), math.nan, id="yaw-nan"),
            pytest.param(("truths", 0, "conf"), -0.5, id="confidence-negative"),
            pytest.param(("truths", 0, "conf"), math.nan, id="confidence-nan"),
            pytest.param(("truths", 0, "loc", 1), -math.inf, id="loc-minus-inf"),
            pytest.param(("truths", 0, "extent", 0), 0.0, id="extent-zero"),
            pytest.param(("truths", 0, "extent", 2), math.inf, id="extent-inf"),
        ],
    )
    def test_the_loader_refuses_a_frame_with_builds_message_and_its_line(self, tmp_path, path, value):
        trace_path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 3, seed=1), trace_path)
        lines = trace_path.read_text().splitlines()
        d = json.loads(lines[1])
        *parents, last = path
        target = d
        for key in parents:
            target = target[key]
        target[last] = value
        lines[1] = json.dumps(d)
        trace_path.write_text("\n".join(lines) + "\n")
        truths = tuple(GroundTruth(t["label"], t["conf"], tuple(t["loc"]), tuple(t["extent"])) for t in d["truths"])
        frame = TraceFrame(d["car"], d["t_ms"], Pose(**d["pose"]), d["image_id"], truths)
        with pytest.raises(TraceError) as built:
            Trace.build([frame])
        with pytest.raises(TraceError) as loaded:
            load_trace(trace_path)
        assert str(loaded.value) == f"line 2: {built.value}"


    @pytest.mark.parametrize("conf", [0.25, 1.5], ids=["valid", "out-of-range"])
    def test_a_loaded_replay_mismatch_names_its_line(self, tmp_path, conf):
        # a repeat is checked only as an exact replay of its first sighting,
        # so even a confidence no truth may hold is refused as a mismatch
        path = tmp_path / "trace.jsonl"
        save_trace(synth_trace(1, "loop", 6, overlap_fraction=0.5, seed=1), path)
        lines = path.read_text().splitlines()
        seen = [json.loads(line)["image_id"] for line in lines]
        lineno = next(i for i, image_id in enumerate(seen, start=1) if image_id in seen[: i - 1])
        d = json.loads(lines[lineno - 1])
        assert d["truths"][0]["conf"] != conf
        d["truths"][0]["conf"] = conf
        lines[lineno - 1] = json.dumps(d)
        path.write_text("\n".join(lines) + "\n")
        message = f"image_id '{d['image_id']}' reused with different content; repeated ids must be exact replays"
        with pytest.raises(TraceError, match=f"^line {lineno}: {message}$"):
            load_trace(path)

    def test_a_files_line_order_does_not_matter(self, tmp_path):
        trace = synth_trace(2, "shared-corridor", 20, overlap_fraction=0.5, seed=3)
        cars_by_image = {}
        for f in trace.frames:
            cars_by_image.setdefault(f.image_id, set()).add(f.car)
        assert any(len(cars) == 2 for cars in cars_by_image.values())  # shared ids, seen by both cars
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))
        loaded = load_trace(path)
        assert loaded == trace
        earliest = {}
        for f in sorted(loaded.frames, key=lambda f: (f.t_ms, f.car)):
            earliest.setdefault(f.image_id, f)
        assert loaded.by_image == earliest


class TestDetectorNode:
    def _wire(self, profile_name="A4500"):
        trace = synth_trace(1, "loop", 3, seed=0)
        net = Fabric(seed=0)
        net.add_network("VN1")
        net.add_node(SimNode("camera", "VN1"))
        detector = DetectorNode(
            "detector",
            "VN1",
            DEFAULT_PROFILES[profile_name],
            "DETR-ResNet-50" if profile_name != "Nano" else "DETR-ResNet-101-DC5",
            trace.by_image,
            request_wire="/image-local",
            answer_wire="/objects-local",
            answer_topic=OBJECTS,
        )
        net.add_node(detector)
        net.subscribe("detector", "/image-local", "VN1")
        sink = []

        class Sink(SimNode):
            def on_message(self, net, at, network, wire_topic, message):
                sink.append((at, message))

        net.add_node(Sink("sink", "VN1"))
        net.subscribe("sink", "/objects-local", "VN1")
        return trace, net, detector, sink

    def test_answer_carries_request_header(self):
        trace, net, detector, sink = self._wire()
        frame = trace.frames[0]
        msg = image_message(frame.image_id, seq=17)
        net.publish("camera", msg, wire_topic="/image-local", network="VN1", at=0.0)
        net.run_until(10_000.0)
        assert detector.invocations == 1
        (at, answer), = sink
        assert answer.header.key == ("car1/camera", 17)
        assert answer.topic == OBJECTS

    def test_oom_yields_failure_no_answer(self):
        trace, net, detector, sink = self._wire("Nano")
        net.publish("camera", image_message(trace.frames[0].image_id), wire_topic="/image-local", network="VN1", at=0.0)
        net.run_until(10_000.0)
        assert detector.oom_failures == 1
        assert detector.invocations == 0
        assert sink == []

    def test_a_detector_given_no_table_detects_every_frame_when_built(self):
        trace, net, detector, sink = self._wire()
        assert detector.detections.keys() == trace.by_image.keys()
        for image_id, f in trace.by_image.items():
            oracle, _ = detector_stub(image_id, f.truths, f.pose, detector.profile, detector.model)
            assert payload_bytes(detector.detections[image_id]) == payload_bytes(oracle)

    MODEL = "DETR-ResNet-101-DC5"  # fits on A4500 and AGX, not on Nano

    def _pair(self, devices):
        """Two detectors on one network, sharing one detection table."""
        trace = synth_trace(1, "loop", 3, seed=0)
        net = Fabric(seed=5)
        net.add_network("VN1")
        net.add_node(SimNode("camera", "VN1"))
        table = {image_id: detect(f.truths, f.pose) for image_id, f in trace.by_image.items()}
        detectors = []
        for i, device in enumerate(devices):
            detector = DetectorNode(
                f"detector{i}",
                "VN1",
                DEFAULT_PROFILES[device],
                self.MODEL,
                trace.by_image,
                request_wire="/image-local",
                answer_wire="/objects-local",
                answer_topic=OBJECTS,
                detections=table,
            )
            net.add_node(detector)
            net.subscribe(detector.name, "/image-local", "VN1")
            detectors.append(detector)
        sink = []

        class Sink(SimNode):
            def on_message(self, net, at, network, wire_topic, message):
                sink.append((at, message))

        net.add_node(Sink("sink", "VN1"))
        net.subscribe("sink", "/objects-local", "VN1")
        return trace, net, detectors, table, sink

    def test_detectors_sharing_a_table_publish_one_object_list(self):
        trace, net, detectors, table, sink = self._pair(("A4500", "AGX"))
        frame = trace.frames[0]
        net.publish("camera", image_message(frame.image_id), wire_topic="/image-local", network="VN1", at=0.0)
        net.run_until(10_000.0)
        (_, first), (_, second) = sink
        assert first.payload is second.payload
        assert table[frame.image_id] is first.payload
        assert [d.invocations for d in detectors] == [1, 1]

    def test_each_invocation_draws_its_own_latency(self):
        trace, net, detectors, table, sink = self._pair(("A4500", "A4500"))
        net.publish("camera", image_message(trace.frames[0].image_id), wire_topic="/image-local", network="VN1", at=0.0)
        net.run_until(10_000.0)
        replica = random.Random(5)  # the fabric's rng; the network has no jitter
        profile = DEFAULT_PROFILES["A4500"]
        expected = sorted(profile.latency_ms(self.MODEL, replica) for _ in detectors)
        assert expected[0] != expected[1]
        assert [at for at, _ in sink] == expected

    def test_oom_and_unknown_frames_are_counted_and_publish_nothing(self):
        trace, net, detectors, table, sink = self._pair(("Nano", "Nano"))
        net.publish("camera", image_message(trace.frames[0].image_id, seq=0), wire_topic="/image-local", network="VN1", at=0.0)
        net.publish("camera", image_message("no-such-frame", seq=1), wire_topic="/image-local", network="VN1", at=0.0)
        net.run_until(10_000.0)
        assert sink == []
        for d in detectors:
            assert (d.invocations, d.oom_failures, d.unknown_frames) == (0, 1, 1)

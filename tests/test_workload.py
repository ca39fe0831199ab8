import json
import random

import pytest

from geniesim.model import Pose, payload_bytes
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
    count_repeats,
    detector_stub,
    load_device_profiles,
    load_trace,
    save_trace,
    synth_trace,
)
from conftest import OBJECTS, image_message


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
        net.publish("camera", msg, wire_topic="/image-local")
        net.run_until(10_000.0)
        assert detector.invocations == 1
        (at, answer), = sink
        assert answer.header.key == ("car1/camera", 17)
        assert answer.topic == OBJECTS

    def test_oom_yields_failure_no_answer(self):
        trace, net, detector, sink = self._wire("Nano")
        net.publish("camera", image_message(trace.frames[0].image_id), wire_topic="/image-local")
        net.run_until(10_000.0)
        assert detector.oom_failures == 1
        assert detector.invocations == 0
        assert sink == []

    MODEL = "DETR-ResNet-101-DC5"  # fits on A4500 and AGX, not on Nano

    def _pair(self, devices):
        """Two detectors on one network, sharing one detection table."""
        trace = synth_trace(1, "loop", 3, seed=0)
        net = Fabric(seed=5)
        net.add_network("VN1")
        net.add_node(SimNode("camera", "VN1"))
        table = {}
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
        net.publish("camera", image_message(frame.image_id), wire_topic="/image-local")
        net.run_until(10_000.0)
        (_, first), (_, second) = sink
        assert first.payload is second.payload
        assert table == {frame.image_id: first.payload}
        assert [d.invocations for d in detectors] == [1, 1]

    def test_each_invocation_draws_its_own_latency(self):
        trace, net, detectors, table, sink = self._pair(("A4500", "A4500"))
        net.publish("camera", image_message(trace.frames[0].image_id), wire_topic="/image-local")
        net.run_until(10_000.0)
        replica = random.Random(5)  # the fabric's rng; the network has no jitter
        profile = DEFAULT_PROFILES["A4500"]
        expected = sorted(profile.latency_ms(self.MODEL, replica) for _ in detectors)
        assert expected[0] != expected[1]
        assert [at for at, _ in sink] == expected

    def test_oom_and_unknown_frames_leave_the_table_empty(self):
        trace, net, detectors, table, sink = self._pair(("Nano", "Nano"))
        net.publish("camera", image_message(trace.frames[0].image_id, seq=0), wire_topic="/image-local")
        net.publish("camera", image_message("no-such-frame", seq=1), wire_topic="/image-local")
        net.run_until(10_000.0)
        assert table == {}
        assert sink == []
        for d in detectors:
            assert (d.invocations, d.oom_failures, d.unknown_frames) == (0, 1, 1)

"""Trace ingestion and synthesis, plus the deterministic detector stand-in.

No real perception runs anywhere in this package: the detector "computes"
by looking up a frame's pre-extracted ground-truth detections and charging
a device-dependent latency.  Traces are JSON lines, one frame per line:

    {"car": str, "t_ms": int,
     "pose": {"x": f, "y": f, "z": f, "yaw": f},
     "image_id": str,
     "truths": [{"label": str, "conf": f, "loc": [x, y, z],
                 "extent": [dx, dy, dz]}]}

``loc`` is relative to the vehicle; the detector translates it to absolute
coordinates through the frame pose.  Real datasets (e.g. KITTI) can be
converted offline into this schema; this package never decodes sensor data.

An ``image_id`` names exact content: every frame carrying the same id must
carry the same pose and truths (exact-replay semantics), which is what
makes content-keyed caching well defined.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable

from .model import (
    DetectedObject,
    Message,
    ObjectList,
    Pose,
    Topic,
    inverse_translate,
    translate_location,
)
from .simnet import Fabric, SimNode


class TraceError(ValueError):
    pass


class OomError(RuntimeError):
    """The model does not fit on the device."""


class UnknownModelError(KeyError):
    pass


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """One annotated object in a frame; location is vehicle-relative."""

    label: str
    confidence: float
    offset: tuple[float, float, float]
    extent: tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class TraceFrame:
    car: str
    t_ms: int
    pose: Pose
    image_id: str
    truths: tuple[GroundTruth, ...]


@dataclass(frozen=True)
class Trace:
    """Frames globally sorted by time, with per-car views and an exact-replay
    index from image id to frame content."""

    frames: tuple[TraceFrame, ...]
    by_car: dict[str, tuple[TraceFrame, ...]] = field(default_factory=dict)
    by_image: dict[str, TraceFrame] = field(default_factory=dict)

    @staticmethod
    def build(frames: Iterable[TraceFrame]) -> "Trace":
        ordered = tuple(sorted(frames, key=lambda f: (f.t_ms, f.car)))
        by_car: dict[str, list[TraceFrame]] = {}
        by_image: dict[str, TraceFrame] = {}
        for f in ordered:
            by_car.setdefault(f.car, []).append(f)
            seen = by_image.get(f.image_id)
            if seen is None:
                by_image[f.image_id] = f
            elif (seen.pose, seen.truths) != (f.pose, f.truths):
                raise TraceError(
                    f"image_id {f.image_id!r} reused with different content; "
                    "repeated ids must be exact replays"
                )
        for car, lst in by_car.items():
            for a, b in zip(lst, lst[1:]):
                if b.t_ms <= a.t_ms:
                    raise TraceError(
                        f"timestamps for car {car!r} not strictly increasing "
                        f"at t_ms={b.t_ms}"
                    )
        return Trace(ordered, {c: tuple(v) for c, v in by_car.items()}, by_image)

    @property
    def cars(self) -> tuple[str, ...]:
        return tuple(self.by_car)

    def end_ms(self) -> int:
        return self.frames[-1].t_ms if self.frames else 0


# -- serialization ------------------------------------------------------------


def _frame_to_dict(f: TraceFrame) -> dict:
    return {
        "car": f.car,
        "t_ms": f.t_ms,
        "pose": {"x": f.pose.x, "y": f.pose.y, "z": f.pose.z, "yaw": f.pose.yaw},
        "image_id": f.image_id,
        "truths": [
            {
                "label": t.label,
                "conf": t.confidence,
                "loc": list(t.offset),
                "extent": list(t.extent),
            }
            for t in f.truths
        ],
    }


def _frame_from_dict(d: dict, lineno: int) -> TraceFrame:
    try:
        pose = d["pose"]
        truths = tuple(
            GroundTruth(
                label=t["label"],
                confidence=float(t["conf"]),
                offset=tuple(float(v) for v in t["loc"]),
                extent=tuple(float(v) for v in t["extent"]),
            )
            for t in d["truths"]
        )
        frame = TraceFrame(
            car=str(d["car"]),
            t_ms=int(d["t_ms"]),
            pose=Pose(float(pose["x"]), float(pose["y"]), float(pose["z"]), float(pose["yaw"])),
            image_id=str(d["image_id"]),
            truths=truths,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"line {lineno}: malformed frame: {exc}") from exc
    for t in frame.truths:
        if not 0.0 <= t.confidence <= 1.0:
            raise TraceError(
                f"line {lineno}: confidence {t.confidence} out of range "
                f"(car {frame.car!r}, image {frame.image_id!r})"
            )
        if len(t.offset) != 3 or len(t.extent) != 3 or any(e <= 0 for e in t.extent):
            raise TraceError(f"line {lineno}: bad loc/extent (image {frame.image_id!r})")
    return frame


def load_trace(path: str | Path) -> Trace:
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON: {exc}") from exc
            frames.append(_frame_from_dict(d, lineno))
    return Trace.build(frames)


def save_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in trace.frames:
            fh.write(json.dumps(_frame_to_dict(f), sort_keys=True) + "\n")


# -- synthesis ----------------------------------------------------------------

ROUTES = ("loop", "shared-corridor", "disjoint")

_LABELS = ("traffic_light", "stop_sign", "car", "pedestrian", "cyclist", "pole")
_EXTENTS = {
    "traffic_light": (0.4, 0.4, 1.2),
    "stop_sign": (0.6, 0.1, 0.6),
    "car": (4.4, 1.9, 1.5),
    "pedestrian": (0.6, 0.6, 1.8),
    "cyclist": (1.7, 0.7, 1.7),
    "pole": (0.3, 0.3, 4.0),
}

# consecutive scenes sit one frame apart at urban speed, close enough that
# a returned result can pick up high-confidence neighbors from the map
_SCENE_SPACING_M = 10.0
_CAR_BAND_M = 10_000.0


@dataclass(frozen=True, slots=True)
class _Scene:
    """A spot in the world with its static objects (absolute locations)."""

    pose: Pose
    objects: tuple[tuple[str, tuple[float, float, float], tuple[float, float, float]], ...]


def _make_scene(rng: random.Random, index: int, band: float, n_objects: int) -> _Scene:
    pose = Pose(index * _SCENE_SPACING_M, band, 0.0, 0.0)
    objs = []
    for j in range(n_objects):
        label = _LABELS[(index + j) % len(_LABELS)]
        # offsets avoid cell boundaries at the default 0.5 m resolution
        offset = (
            4.3 + 2.1 * j + rng.uniform(-0.2, 0.2),
            -3.7 + 1.3 * j + rng.uniform(-0.2, 0.2),
            round(rng.uniform(0.2, 2.2), 3),
        )
        objs.append((label, translate_location(offset, pose), _EXTENTS[label]))
    return _Scene(pose, tuple(objs))


def _sighting_truths(
    rng: random.Random, scene: _Scene, view: Pose, alpha: float, beta: float
) -> tuple[GroundTruth, ...]:
    truths = []
    for label, absolute, extent in scene.objects:
        conf = min(1.0, max(0.0, rng.betavariate(alpha, beta)))
        truths.append(GroundTruth(label, round(conf, 4), inverse_translate(absolute, view), extent))
    return tuple(truths)


def synth_trace(
    n_cars: int,
    route: str,
    n_frames: int,
    objects_per_frame: int = 3,
    overlap_fraction: float = 0.0,
    seed: int = 0,
    frame_period_ms: int = 100,
    stagger_ms: float = 300.0,
    conf_alpha: float = 5.0,
    conf_beta: float = 3.0,
) -> Trace:
    """Deterministic synthetic trace for one of three route shapes.

    loop             each car circles its own block: the first frames are
                     fresh, then the car revisits them as exact replays.
                     ``overlap_fraction`` of the sightings repeat an earlier
                     image id.
    shared-corridor  ``overlap_fraction`` of each car's sightings come from
                     a corridor archive shared verbatim by every car (same
                     image ids); the remaining sightings are per-car passes
                     over the same corridor scenes with fresh image ids and
                     fresh per-sighting confidences, so the same physical
                     objects are re-sighted from different viewpoints.
    disjoint         every car sees only its own frames and objects; requires
                     overlap_fraction == 0.

    Identical seeds yield identical traces, and car k's frames do not depend
    on n_cars, so a 1-car run is a strict subset of a 3-car run.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError(f"overlap_fraction out of [0, 1]: {overlap_fraction}")
    if route == "disjoint" and overlap_fraction != 0.0:
        raise ValueError("disjoint routes cannot overlap")
    if n_cars < 1 or n_frames < 1:
        raise ValueError("need at least one car and one frame")
    if objects_per_frame < 0:
        raise ValueError(f"objects_per_frame must be non-negative: {objects_per_frame}")

    n_shared = round(overlap_fraction * n_frames)
    n_own = n_frames - n_shared
    frames: list[TraceFrame] = []

    shared_scenes: list[_Scene] = []
    shared_frames: list[TraceFrame] = []
    if route == "shared-corridor":
        # string seeds hash stably across processes; tuple seeds would not
        world_rng = random.Random(f"{seed}:corridor")
        n_scenes = max(1, n_shared if n_shared else math.ceil(n_own / 2))
        shared_scenes = [
            _make_scene(world_rng, i, 0.0, objects_per_frame) for i in range(n_scenes)
        ]
        for i in range(n_shared):
            scene = shared_scenes[i % n_scenes]
            shared_frames.append(
                TraceFrame(
                    car="",  # filled per sighting
                    t_ms=0,
                    pose=scene.pose,
                    image_id=f"S{i:06d}",
                    truths=_sighting_truths(world_rng, scene, scene.pose, conf_alpha, conf_beta),
                )
            )

    for ci in range(n_cars):
        car = f"car{ci + 1}"
        rng = random.Random(f"{seed}:{car}")
        start = round(ci * stagger_ms)

        if route != "shared-corridor":
            # loop and disjoint: the car's own scenes in its own band, each
            # seen from its own pose; a loop revisits them in order, and a
            # disjoint route (n_shared == 0) sees each once
            band = ci * _CAR_BAND_M
            prefix = "L" if route == "loop" else "D"
            n_unique = max(1, n_own)
            uniques = []
            for i in range(n_unique):
                scene = _make_scene(rng, i, band, objects_per_frame)
                uniques.append(
                    TraceFrame(
                        car=car,
                        t_ms=0,
                        pose=scene.pose,
                        image_id=f"{prefix}{ci + 1}F{i:06d}",
                        truths=_sighting_truths(rng, scene, scene.pose, conf_alpha, conf_beta),
                    )
                )
            schedule = [uniques[i % n_unique] for i in range(n_frames)]
        else:
            own = []
            lane_offset = 2.5 * (ci + 1)
            for i in range(n_own):
                scene = shared_scenes[i % len(shared_scenes)]
                view = Pose(scene.pose.x, scene.pose.y + lane_offset, scene.pose.z, 0.0)
                own.append(
                    TraceFrame(
                        car=car,
                        t_ms=0,
                        pose=view,
                        image_id=f"C{ci + 1}F{i:06d}",
                        truths=_sighting_truths(rng, scene, view, conf_alpha, conf_beta),
                    )
                )
            # the schedule loop below stamps car and time on every frame
            schedule = shared_frames + own
            rng.shuffle(schedule)

        for i, frame in enumerate(schedule):
            frames.append(replace(frame, car=car, t_ms=start + i * frame_period_ms))

    return Trace.build(frames)


def count_repeats(trace: Trace, car: str) -> int:
    """Brute-force count of sightings whose image id was seen earlier by the
    same car; the independent oracle for local image reuse."""
    seen: set[str] = set()
    repeats = 0
    for f in trace.by_car.get(car, ()):
        if f.image_id in seen:
            repeats += 1
        seen.add(f.image_id)
    return repeats


# -- device profiles -----------------------------------------------------------

# a detector run takes its device's mean latency scaled by U(1 - f, 1 + f)
LATENCY_JITTER = 0.05


@dataclass(frozen=True)
class DeviceProfile:
    """Per-model mean detector latencies for one device, plus out-of-memory
    flags for models that do not fit."""

    device: str
    mean_latency_ms: dict[str, float]
    oom_models: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for model, mean in self.mean_latency_ms.items():
            if not 0 < mean < math.inf:  # also false for NaN
                raise ValueError(f"{self.device}/{model}: latency must be finite and positive, got {mean}")

    def models(self) -> set[str]:
        return set(self.mean_latency_ms) | set(self.oom_models)

    def latency_ms(self, model: str, rng: random.Random | None = None) -> float:
        """Mean latency with a uniform +/- ``LATENCY_JITTER`` draw when an
        rng is supplied; raises OomError for models flagged out-of-memory."""
        if model in self.oom_models:
            raise OomError(f"{model} does not fit on {self.device}")
        try:
            mean = self.mean_latency_ms[model]
        except KeyError:
            raise UnknownModelError(f"{self.device} has no entry for {model}") from None
        if rng is None:
            return mean
        return mean * (1.0 + rng.uniform(-LATENCY_JITTER, LATENCY_JITTER))


def _profiles_from_dict(table: dict) -> dict[str, DeviceProfile]:
    def require_object(value, what: str) -> None:
        if not isinstance(value, dict):
            raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")

    require_object(table, "device profile table")
    profiles = {}
    for device, models in table.items():
        require_object(models, f"device profile {device}")
        means, ooms = {}, set()
        for model, entry in models.items():
            require_object(entry, f"device profile {device}/{model}")
            if entry.get("oom"):
                ooms.add(model)
            elif type(mean := entry.get("mean_ms")) in (int, float):  # not a bool or a string
                means[model] = float(mean)
            else:
                raise ValueError(f"device profile {device}/{model} needs oom or a numeric mean_ms, got {mean!r}")
        profiles[device] = DeviceProfile(device, means, frozenset(ooms))
    return profiles


def load_device_profiles(path: str | Path | None = None) -> dict[str, DeviceProfile]:
    """Profiles from a JSON table keyed (device, model); the packaged default
    table ships the measured runtimes this simulator reproduces."""
    if path is None:
        text = resources.files("geniesim.data").joinpath("device_profiles.json").read_text()
    else:
        text = Path(path).read_text(encoding="utf-8")
    return _profiles_from_dict(json.loads(text))


DEFAULT_PROFILES = load_device_profiles()


# -- detector ------------------------------------------------------------------


def detector_stub(
    image_id: str,
    truths: tuple[GroundTruth, ...],
    pose: Pose,
    profile: DeviceProfile,
    model: str,
    rng: random.Random | None = None,
    detections: dict[str, ObjectList] | None = None,
) -> tuple[ObjectList, float]:
    """Stand-in for a detection model: returns the frame's ground truths with
    locations translated to the absolute frame, and a sampled latency.

    Output bytes are a pure function of the frame content, hence of the
    image id under exact-replay traces; only the latency draw varies.  So a
    frame is detected once per ``detections`` table (a scenario's detectors
    share one): later calls return the same ``ObjectList``, and its
    memoized content digest with it, but still draw their own latency.  An
    out-of-memory model raises before anything is detected.
    """
    latency = profile.latency_ms(model, rng)
    if detections is None:
        detections = {}
    payload = detections.get(image_id)
    if payload is None:
        payload = detections[image_id] = ObjectList(tuple(
            DetectedObject(t.label, t.confidence, translate_location(t.offset, pose), t.extent)
            for t in truths
        ))
    return payload, latency


class DetectorNode(SimNode):
    """A detection service on the fabric, modeled as a pure delay station.

    Requests are answered independently after the sampled model latency;
    there is no queueing or contention, which keeps per-request latency a
    function of the device profile alone.  The answer reuses the request
    header so callers can correlate it.  Detectors built with one
    ``detections`` table (``build_scenario`` gives a scenario's detectors
    one) detect each frame once per scenario and publish the same
    ``ObjectList``; see :func:`detector_stub`.
    """

    def __init__(
        self,
        name: str,
        home_network: str,
        profile: DeviceProfile,
        model: str,
        frame_index: dict[str, TraceFrame],
        request_wire: str,
        answer_wire: str,
        answer_topic: Topic,
        detections: dict[str, ObjectList] | None = None,
    ) -> None:
        super().__init__(name, home_network)
        self.profile = profile
        self.model = model
        self.frame_index = frame_index
        self.request_wire = request_wire
        self.answer_wire = answer_wire
        self.answer_topic = answer_topic
        self.detections = {} if detections is None else detections
        self.invocations = 0
        self.oom_failures = 0
        self.unknown_frames = 0

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        frame = self.frame_index.get(getattr(message.payload, "content_id", None))
        if frame is None:
            self.unknown_frames += 1
            return
        try:
            payload, latency = detector_stub(
                frame.image_id, frame.truths, frame.pose, self.profile, self.model, net.rng,
                self.detections,
            )
        except OomError:
            self.oom_failures += 1
            return
        self.invocations += 1
        answer = Message(header=message.header, topic=self.answer_topic, payload=payload)
        net.publish(self.name, answer, wire_topic=self.answer_wire, network=self.home_network, at=at + latency)

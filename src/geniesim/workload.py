"""Trace ingestion and synthesis, plus the deterministic detector stand-in.

No real perception runs anywhere in this package: the detector "computes"
by looking up a frame's pre-extracted ground-truth detections and charging
a device-dependent latency.  Traces are JSON lines, one frame per line:

    {"car": str, "t_ms": int,
     "pose": {"x": f, "y": f, "z": f, "yaw": f},
     "image_id": str,
     "truths": [{"label": str, "conf": f, "loc": [x, y, z],
                 "extent": [dx, dy, dz]}]}

Every rule of a trace is checked by ``Trace.build``, once per frame: each
rule about one frame is :func:`_check_frame`'s.  The loader checks JSON types
only, and names the line of a frame that ``Trace.build`` refuses.

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
import sys
from dataclasses import dataclass
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
    index: int | None = None  # the refused frame's position in the input, when one frame is at fault


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


def _check_frame(f: TraceFrame, content: bool = True) -> None:
    """Raise ``TraceError`` at the first rule that ``f`` breaks on its own.
    The stamp is an integer (an integral float passes) in [0, 2**53] and the car
    holds no ``/``.  With ``content``: the pose is finite, and each truth has a
    confidence in [0, 1], a finite offset and a finite, positive extent."""
    t = f.t_ms
    if (type(t) is not int and not (type(t) is float and t.is_integer())) or t < 0:
        raise TraceError(f"t_ms must be a non-negative integer: {t!r} (car {f.car!r})")
    if t > 2**53:  # the replay stamps each frame as a float
        raise TraceError(f"car {f.car!r} has a stamp above 2**53: t_ms={t}")
    if "/" in f.car:  # its origin prefix '<car>/' would also admit '<car>/x'
        raise TraceError(f"car name {f.car!r} may not contain '/'")
    if not content:
        return
    p = f.pose  # an infinite yaw normalizes to NaN, so this catches both
    if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.z) and math.isfinite(p.yaw)):
        raise TraceError(f"non-finite pose (image {f.image_id!r})")
    for g in f.truths:
        (ox, oy, oz), (ex, ey, ez) = g.offset, g.extent  # unpacked: map() or a generator costs more
        if not 0.0 <= g.confidence <= 1.0:
            raise TraceError(f"confidence {g.confidence} out of range (car {f.car!r}, image {f.image_id!r})")
        if not (math.isfinite(ox) and math.isfinite(oy) and math.isfinite(oz)):
            raise TraceError(f"non-finite loc {list(g.offset)} (image {f.image_id!r})")
        if not (0.0 < ex < math.inf and 0.0 < ey < math.inf and 0.0 < ez < math.inf):  # also false for NaN
            raise TraceError(f"extent {list(g.extent)} is not finite and positive (image {f.image_id!r})")


@dataclass(frozen=True)
class Trace:
    """Frames sorted by time, per-car views, and each image id's earliest frame.
    ``build`` checks each frame once, a repeat as an exact replay of its first
    sighting, and tags a one-frame refusal with its input ``index``; then each
    car's stamps must strictly increase.  So ``load_trace`` reads what ``save_trace`` writes."""

    frames: tuple[TraceFrame, ...]
    by_car: dict[str, tuple[TraceFrame, ...]]
    by_image: dict[str, TraceFrame]

    @staticmethod
    def build(frames: Iterable[TraceFrame]) -> "Trace":
        frames, firsts = tuple(frames), {}
        try:
            for i, f in enumerate(frames):
                first = firsts.setdefault(f.image_id, f)
                _check_frame(f, first is f)  # a repeat's content is checked as equal to its first's
                if first is not f and (first.pose, first.truths) != (f.pose, f.truths):
                    raise TraceError(
                        f"image_id {f.image_id!r} reused with different content; repeated ids must be exact replays"
                    )
        except TraceError as exc:
            exc.index = i
            raise
        ordered = tuple(sorted(frames, key=lambda f: (f.t_ms, f.car)))
        by_car: dict[str, list[TraceFrame]] = {}
        by_image: dict[str, TraceFrame] = {}
        for f in ordered:
            own = by_car.setdefault(f.car, [])
            if own and own[-1].t_ms == f.t_ms:  # sorted, so a car's stamps can fail only by a tie
                raise TraceError(f"timestamps for car {f.car!r} not strictly increasing at t_ms={f.t_ms}")
            own.append(f)
            by_image.setdefault(f.image_id, f)
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


def _text(value, what: str) -> str:
    if type(value) is not str:
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float):  # not a bool or a string
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _triple(value, what: str) -> tuple[float, float, float]:
    if type(value) is not list or len(value) != 3:
        raise TypeError(f"{what} must be a list of 3 numbers, got {value!r}")
    return tuple(_number(v, what) for v in value)


def _frame_from_dict(d: dict, lineno: int) -> TraceFrame:
    try:
        pose = d["pose"]
        truths = tuple(
            GroundTruth(
                label=_text(t["label"], "label"),
                confidence=_number(t["conf"], "conf"),
                offset=_triple(t["loc"], "loc"),
                extent=_triple(t["extent"], "extent"),
            )
            for t in d["truths"]
        )
        return TraceFrame(
            car=_text(d["car"], "car"),
            t_ms=d["t_ms"],  # its rules are Trace.build's
            pose=Pose(*(_number(pose[axis], f"pose.{axis}") for axis in ("x", "y", "z", "yaw"))),
            image_id=_text(d["image_id"], "image_id"),
            truths=truths,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceError(f"line {lineno}: malformed frame: {exc}") from exc


def load_trace(path: str | Path) -> Trace:
    frames, linenos = [], []
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
            linenos.append(lineno)
    try:
        return Trace.build(frames)
    except TraceError as exc:
        if exc.index is None:
            raise
        raise TraceError(f"line {linenos[exc.index]}: {exc}") from exc


def save_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in trace.frames:
            fh.write(json.dumps(_frame_to_dict(f), sort_keys=True) + "\n")


# -- synthesis ----------------------------------------------------------------

ROUTES = ("loop", "shared-corridor", "disjoint")


@dataclass(frozen=True)
class SynthSpec:
    """The shape of a synthetic trace: the keywords of :func:`synth_trace`,
    the ``synth`` section of a scenario config and the flags of
    ``genie-sim synth``, with their defaults.  A ``None`` seed means 0 to
    ``synth_trace`` and the scenario's seed to a scenario config."""

    route: str = "loop"
    n_frames: int = 100
    objects_per_frame: int = 3
    overlap_fraction: float = 0.0
    frame_period_ms: int = 100
    stagger_ms: float = 300.0
    conf_alpha: float = 5.0
    conf_beta: float = 3.0
    seed: int | None = None

    def check(self) -> None:
        """Raise ``ValueError`` at the first field out of range; the message
        starts with the field's name."""
        if self.route not in ROUTES:
            raise ValueError(f"route must be one of {ROUTES}: {self.route!r}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1: {self.n_frames}")
        for name in ("objects_per_frame", "frame_period_ms", "stagger_ms"):
            if not 0 <= getattr(self, name) < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and non-negative: {getattr(self, name)}")
        if self.frame_period_ms == 0 and self.n_frames > 1:  # each car's stamps must increase
            raise ValueError(f"frame_period_ms must be positive when n_frames > 1: {self.frame_period_ms}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError(f"overlap_fraction must be in [0, 1]: {self.overlap_fraction}")
        if self.route == "disjoint" and self.overlap_fraction != 0.0:
            raise ValueError(f"overlap_fraction must be 0 on a disjoint route: {self.overlap_fraction}")
        for name in ("conf_alpha", "conf_beta"):  # beta-distribution shape parameters
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive: {getattr(self, name)}")


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


def _sighting(
    rng: random.Random, scene: _Scene, view: Pose, image_id: str, spec: SynthSpec
) -> tuple[Pose, str, tuple[GroundTruth, ...]]:
    """One look at ``scene`` from ``view``: the pose, image id and truths of a
    frame, with a fresh confidence drawn for each object."""
    alpha, beta = spec.conf_alpha, spec.conf_beta
    truths = []
    for label, absolute, extent in scene.objects:
        conf = min(1.0, max(0.0, rng.betavariate(alpha, beta)))
        truths.append(GroundTruth(label, round(conf, 4), inverse_translate(absolute, view), extent))
    return view, image_id, tuple(truths)


def synth_trace(n_cars: int, route: str, n_frames: int, **params) -> Trace:
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

    ``params`` are the other :class:`SynthSpec` fields, which ``check``
    validates; an omitted or ``None`` seed means 0.  Identical seeds yield
    identical traces, and car k's frames do not depend on n_cars, so a 1-car
    run is a strict subset of a 3-car run.
    """
    spec = SynthSpec(route, n_frames, **params)
    spec.check()
    if n_cars < 1:
        raise ValueError(f"n_cars must be >= 1: {n_cars}")
    if not math.isfinite((n_cars - 1) * spec.stagger_ms):  # the last car's start, rounded below
        raise ValueError(f"stagger_ms is too large for {n_cars} cars: {spec.stagger_ms}")
    seed = 0 if spec.seed is None else spec.seed

    n_shared = round(spec.overlap_fraction * n_frames)
    n_own = n_frames - n_shared
    frames: list[TraceFrame] = []

    shared_scenes: list[_Scene] = []
    shared: list[tuple[Pose, str, tuple[GroundTruth, ...]]] = []
    if route == "shared-corridor":
        # string seeds hash stably across processes; tuple seeds would not
        world_rng = random.Random(f"{seed}:corridor")
        n_scenes = max(1, n_shared if n_shared else math.ceil(n_own / 2))
        shared_scenes = [_make_scene(world_rng, i, 0.0, spec.objects_per_frame) for i in range(n_scenes)]
        for i in range(n_shared):
            scene = shared_scenes[i % n_scenes]
            shared.append(_sighting(world_rng, scene, scene.pose, f"S{i:06d}", spec))

    for ci in range(n_cars):
        car = f"car{ci + 1}"
        rng = random.Random(f"{seed}:{car}")
        start = round(ci * spec.stagger_ms)

        if route != "shared-corridor":
            # loop and disjoint: the car's own scenes in its own band, each
            # seen from its own pose; a loop revisits them in order, and a
            # disjoint route (n_shared == 0) sees each once
            band = ci * _CAR_BAND_M
            prefix = "L" if route == "loop" else "D"
            n_unique = max(1, n_own)
            uniques = []
            for i in range(n_unique):
                scene = _make_scene(rng, i, band, spec.objects_per_frame)
                uniques.append(_sighting(rng, scene, scene.pose, f"{prefix}{ci + 1}F{i:06d}", spec))
            schedule = [uniques[i % n_unique] for i in range(n_frames)]
        else:
            own = []
            lane_offset = 2.5 * (ci + 1)
            for i in range(n_own):
                scene = shared_scenes[i % len(shared_scenes)]
                view = Pose(scene.pose.x, scene.pose.y + lane_offset, scene.pose.z, 0.0)
                own.append(_sighting(rng, scene, view, f"C{ci + 1}F{i:06d}", spec))
            schedule = shared + own
            rng.shuffle(schedule)

        for i, (pose, image_id, truths) in enumerate(schedule):
            frames.append(TraceFrame(car, start + i * spec.frame_period_ms, pose, image_id, truths))

    return Trace.build(frames)


# -- device profiles -----------------------------------------------------------


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

    def latency_ms(self, model: str) -> float:
        """The model's mean latency; raises OomError for a model flagged
        out-of-memory and UnknownModelError for one the device lacks."""
        if model in self.oom_models:
            raise OomError(f"{model} does not fit on {self.device}")
        try:
            return self.mean_latency_ms[model]
        except KeyError:
            raise UnknownModelError(f"{self.device} has no entry for {model}") from None


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
            if type(oom := entry.get("oom", False)) is not bool:
                raise ValueError(f"device profile {device}/{model}: oom must be true or false, got {oom!r}")
            if oom:
                ooms.add(model)
            elif type(mean := entry.get("mean_ms")) in (int, float) and abs(mean) <= sys.float_info.max:
                means[model] = float(mean)  # not a bool, a string, NaN, infinity or an int no float holds
            else:
                raise ValueError(f"device profile {device}/{model} needs oom or a finite mean_ms, got {mean!r}")
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


def detect(truths: tuple[GroundTruth, ...], pose: Pose) -> ObjectList:
    """What a detection model reports for a frame: its ground truths with
    locations translated to the absolute frame.  A pure function of the
    frame content, hence of the image id under exact-replay traces; raises
    ``ValueError`` for a truth no ``DetectedObject`` can hold."""
    return ObjectList(tuple([
        DetectedObject(t.label, t.confidence, translate_location(t.offset, pose), t.extent) for t in truths
    ]))


def detector_stub(
    image_id: str, truths: tuple[GroundTruth, ...], pose: Pose, profile: DeviceProfile, model: str
) -> tuple[ObjectList, float]:
    """The reference detector for one frame: :func:`detect`'s fresh
    ``ObjectList`` and the model's mean latency.  ``image_id`` only names the
    frame.  An out-of-memory model raises before anything is detected."""
    latency = profile.latency_ms(model)
    return detect(truths, pose), latency


class DetectorNode(SimNode):
    """A detection service on the fabric, modeled as a pure delay station.

    Each request is answered independently, after the fabric's draw of the
    model's mean latency (:meth:`Fabric.detector_latency`); there is no
    queueing or contention.  The mean is resolved when built: ``None`` for an
    out-of-memory model, and a model the device lacks raises there.  The
    answer reuses the request header.  Each image's ``ObjectList`` is read
    from a ``detections`` table built once, which ``build_scenario`` shares among
    every detector of a run; given none, a detector detects ``frame_index`` when built.
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
        self.mean_ms = None if model in profile.oom_models else profile.latency_ms(model)
        self.request_wire = request_wire
        self.answer_wire = answer_wire
        self.answer_topic = answer_topic
        if detections is None:
            detections = {image_id: detect(f.truths, f.pose) for image_id, f in frame_index.items()}
        self.detections = detections
        self.invocations = 0
        self.oom_failures = 0
        self.unknown_frames = 0

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        payload = self.detections.get(getattr(message.payload, "content_id", None))
        if payload is None:
            self.unknown_frames += 1
            return
        if self.mean_ms is None:
            self.oom_failures += 1
            return
        self.invocations += 1
        answer = Message(message.header, self.answer_topic, payload)
        net.publish(self.name, answer, self.answer_wire, self.home_network, at + net.detector_latency(self.mean_ms))

"""Shared value types for the caching fabric.

Messages, topics, headers, poses and detected objects are immutable after
construction and safe to share across threads.  Content identity (the cache
key space) is separate from header identity (the in-flight request space):
two messages with the same payload content on the same topic are "the same"
to a cache, no matter who sent them or when.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

TAU = 2.0 * math.pi

LOCAL_SUFFIX = "-local"
REMOTE_SUFFIX = "-remote"


class PayloadKind(str, Enum):
    IMAGE = "image"
    POINT_CLOUD = "point_cloud"
    OBJECTS = "objects"


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (yaw + math.pi) % TAU - math.pi


@dataclass(frozen=True, slots=True)
class Pose:
    """Ground pose of a vehicle: position in a global frame plus heading.

    Pitch and roll are omitted; traces are assumed gravity-aligned, so the
    only rotation that matters for ground objects is about the z axis.
    """

    x: float
    y: float
    z: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))


def translate_location(
    offset: tuple[float, float, float], pose: Pose
) -> tuple[float, float, float]:
    """Map a vehicle-relative offset to absolute coordinates.

    Applies the yaw rotation about z, then translates by the pose position.
    Invertible via :func:`inverse_translate` with the same pose.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    ox, oy, oz = offset
    return (pose.x + c * ox - s * oy, pose.y + s * ox + c * oy, pose.z + oz)


def inverse_translate(
    absolute: tuple[float, float, float], pose: Pose
) -> tuple[float, float, float]:
    """Map absolute coordinates back to a vehicle-relative offset."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    dx, dy, dz = absolute[0] - pose.x, absolute[1] - pose.y, absolute[2] - pose.z
    return (c * dx + s * dy, -s * dx + c * dy, dz)


@dataclass(frozen=True, slots=True)
class Header:
    """Identity of one request/response exchange.

    ``(origin, seq)`` is unique per originating event (e.g. one camera
    frame).  Answers deliberately carry the header of the request they
    answer, so a node can correlate a response to its outstanding query.
    """

    origin: str
    seq: int
    stamp_ms: float

    def __post_init__(self) -> None:
        if self.stamp_ms < 0:
            raise ValueError(f"negative stamp: {self.stamp_ms}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.origin, self.seq)


@dataclass(frozen=True, slots=True)
class Topic:
    name: str
    kind: PayloadKind

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topic name must be non-empty")


@dataclass(frozen=True, slots=True)
class DetectedObject:
    """One detection: class label, confidence in [0, 1], absolute location
    and bounding extent in meters.

    ``from_map`` marks objects appended from an object map on the return
    path rather than produced by a detector; it is excluded from content
    identity so augmented and plain results deduplicate together.
    """

    label: str
    confidence: float
    location: tuple[float, float, float]
    extent: tuple[float, float, float]
    from_map: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence}")
        if any(e <= 0 for e in self.extent):
            raise ValueError(f"extent must be positive: {self.extent}")

    def sort_key(self) -> tuple:
        return (self.label, self.location, self.confidence, self.extent)


@dataclass(frozen=True, slots=True)
class ImageRef:
    """Opaque handle to image content; no pixel data is ever stored."""

    content_id: str
    size_bytes: int = 0
    _digest: tuple[str, str] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class PointCloudRef:
    content_id: str
    size_bytes: int = 0
    _digest: tuple[str, str] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ObjectList:
    objects: tuple[DetectedObject, ...]
    _digest: tuple[str, str] | None = field(default=None, init=False, repr=False, compare=False)


Payload = Union[ImageRef, PointCloudRef, ObjectList]

_PAYLOAD_KINDS = {
    ImageRef: PayloadKind.IMAGE,
    PointCloudRef: PayloadKind.POINT_CLOUD,
    ObjectList: PayloadKind.OBJECTS,
}


def kind_of(payload: Payload) -> PayloadKind:
    return _PAYLOAD_KINDS[type(payload)]


@dataclass(frozen=True, slots=True)
class Message:
    """A pub/sub message: header identity, logical topic and typed payload.

    ``via`` is a transport annotation ("hit", "answer") set by whoever
    emitted the message; it is excluded from content identity and from
    payload bytes.
    """

    header: Header
    topic: Topic
    payload: Payload
    via: str | None = None

    def __post_init__(self) -> None:
        if kind_of(self.payload) is not self.topic.kind:
            raise ValueError(
                f"payload kind {kind_of(self.payload).value} does not match "
                f"topic {self.topic.name} ({self.topic.kind.value})"
            )


def core_objects(payload: ObjectList) -> tuple[DetectedObject, ...]:
    """Objects produced by a detector, excluding map-appended ones."""
    return tuple(o for o in payload.objects if not o.from_map)


def strip_map_objects(message: Message) -> Message:
    """Copy of ``message`` with map-appended objects removed (no-op for
    non-object payloads)."""
    if not isinstance(message.payload, ObjectList):
        return message
    return replace(message, payload=ObjectList(core_objects(message.payload)))


def _object_token(obj: DetectedObject) -> str:
    loc = ",".join(repr(v) for v in obj.location)
    ext = ",".join(repr(v) for v in obj.extent)
    return f"{obj.label}|{obj.confidence!r}|{loc}|{ext}"


def payload_bytes(payload: Payload) -> bytes:
    """Canonical byte serialization of payload content, order-preserving.

    Used for byte-identity checks between detector outputs and cache
    answers.  ``from_map`` objects carry a marker so callers can see
    augmentation, but most comparisons strip them first.
    """
    kind = kind_of(payload)
    if isinstance(payload, (ImageRef, PointCloudRef)):
        return f"{kind.value}|{payload.content_id}".encode()
    parts = [kind.value]
    for obj in payload.objects:
        parts.append(_object_token(obj) + ("|map" if obj.from_map else ""))
    return "\x1e".join(parts).encode()


def content_key(message: Message, topic_name: str | None = None) -> str:
    """Stable digest of (topic name, payload content identity).

    Header and ``via`` never participate.  Object lists are canonically
    sorted by (label, location) first, so object order does not matter,
    and map-appended objects are excluded so an augmented answer digests
    the same as the plain one.

    Payloads are immutable, so the digest is memoized with its topic name
    in the payload's own ``_digest`` slot, which no identity check sees.  A
    table keyed by payload equality would not do: ``0.0`` and ``-0.0``
    locations compare equal but digest differently.
    """
    name = topic_name if topic_name is not None else message.topic.name
    payload = message.payload
    memo = payload._digest
    if memo is not None and memo[0] == name:
        return memo[1]
    if isinstance(payload, (ImageRef, PointCloudRef)):
        body = f"{kind_of(payload).value}|{payload.content_id}"
    else:
        objs = sorted(core_objects(payload), key=DetectedObject.sort_key)
        body = "\x1e".join([PayloadKind.OBJECTS.value] + [_object_token(o) for o in objs])
    digest = hashlib.sha256(f"{name}\x1f{body}".encode()).hexdigest()
    object.__setattr__(payload, "_digest", (name, digest))
    return digest

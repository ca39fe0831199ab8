"""Shared value types for the caching fabric.

Messages, topics, headers, poses and detected objects are immutable after
construction and safe to share across threads.  Content identity (the cache
key space) is separate from header identity (the in-flight request space):
two messages with the same payload content on the same topic are "the same"
to a cache, no matter who sent them or when: ``content_key`` gives them one
key, the canonical bytes of that content, with no hash in between.

``Header``, ``Message`` and ``DetectedObject`` are built on every hop, so
each has a hand-written ``__init__`` that validates and then fills its slots
through their member descriptors: the generated frozen ``__init__`` sets each
field through ``object.__setattr__`` and costs about 1.6 times as much on
CPython 3.11.

For the same reason every object built per delivery (``Header``,
``Message``, ``harness.Sample``, ``genie.CachedValue``) and every
``Fabric.publish`` call takes its arguments by position, with local names
carrying their meaning: on CPython 3.11 a keyword call to a class builds a
dict of its keywords each time.  ``tests/test_hot_path_calls.py`` holds
the package to this rule.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import ClassVar, Union

TAU = 2.0 * math.pi

LOCAL_SUFFIX = "-local"
REMOTE_SUFFIX = "-remote"


class PayloadKind(str, Enum):
    IMAGE = "image"
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


@dataclass(frozen=True, slots=True, init=False)
class Header:
    """Identity of one request/response exchange.

    ``(origin, seq)`` is unique per originating event (e.g. one camera
    frame).  Answers deliberately carry the header of the request they
    answer, so a node can correlate a response to its outstanding query.
    """

    origin: str
    seq: int
    stamp_ms: float

    def __init__(self, origin: str, seq: int, stamp_ms: float) -> None:
        if stamp_ms < 0:
            raise ValueError(f"negative stamp: {stamp_ms}")
        _set_origin(self, origin)
        _set_seq(self, seq)
        _set_stamp_ms(self, stamp_ms)

    @property
    def key(self) -> tuple[str, int]:
        return (self.origin, self.seq)


_set_origin = Header.origin.__set__
_set_seq = Header.seq.__set__
_set_stamp_ms = Header.stamp_ms.__set__


@dataclass(frozen=True, slots=True)
class Topic:
    name: str
    kind: PayloadKind

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topic name must be non-empty")


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        label: str,
        confidence: float,
        location: tuple[float, float, float],
        extent: tuple[float, float, float],
        from_map: bool = False,
    ) -> None:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence out of range: {confidence}")
        for e in extent:
            if not e > 0:
                raise ValueError(f"extent must be positive: {extent}")
        _set_label(self, label)
        _set_confidence(self, confidence)
        _set_location(self, location)
        _set_extent(self, extent)
        _set_from_map(self, from_map)

    def with_confidence(self, confidence: float, from_map: bool) -> DetectedObject:
        """A copy with ``confidence`` and ``from_map`` set, filled as ``__init__``
        fills it but unchecked: only for a confidence known to be in [0, 1]."""
        obj = _new_object(DetectedObject)
        _set_label(obj, self.label)
        _set_confidence(obj, confidence)
        _set_location(obj, self.location)
        _set_extent(obj, self.extent)
        _set_from_map(obj, from_map)
        return obj


_set_label = DetectedObject.label.__set__
_set_confidence = DetectedObject.confidence.__set__
_set_location = DetectedObject.location.__set__
_set_extent = DetectedObject.extent.__set__
_set_from_map = DetectedObject.from_map.__set__
_new_object = object.__new__
# the canonical order of objects: map answers sort by it
OBJECT_SORT_KEY = attrgetter("label", "location", "confidence", "extent")


@dataclass(frozen=True, slots=True)
class ImageRef:
    """Opaque handle to image content; no pixel data is ever stored."""

    content_id: str
    kind: ClassVar[PayloadKind] = PayloadKind.IMAGE
    _digest: tuple[str, bytes] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ObjectList:
    objects: tuple[DetectedObject, ...]
    kind: ClassVar[PayloadKind] = PayloadKind.OBJECTS
    _digest: tuple[str, bytes] | None = field(default=None, init=False, repr=False, compare=False)


Payload = Union[ImageRef, ObjectList]


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, header: Header, topic: Topic, payload: Payload, via: str | None = None) -> None:
        if payload.kind is not topic.kind:
            raise ValueError(
                f"payload kind {payload.kind.value} does not match "
                f"topic {topic.name} ({topic.kind.value})"
            )
        _set_header(self, header)
        _set_topic(self, topic)
        _set_payload(self, payload)
        _set_via(self, via)


_set_header = Message.header.__set__
_set_topic = Message.topic.__set__
_set_payload = Message.payload.__set__
_set_via = Message.via.__set__


# confidence, location and extent of one object, as IEEE-754 doubles
_OBJECT_FLOATS = struct.Struct("<7d")


def content_key(message: Message) -> bytes:
    """Canonical bytes of (the message's topic name, payload content
    identity), used as the cache key itself.

    Header and ``via`` never participate.  An image keys as its topic name
    and content id.  An object list keys as its topic name and one token per
    object a detector produced, sorted as bytes: map-appended objects are
    excluded, so an augmented answer keys as the plain one.  A token is the
    object's 4-byte label length, UTF-8 label and the packed IEEE-754 bits
    of its seven floats, so it delimits itself, and two lists on one topic
    key equal exactly when their objects are equal multisets of (label,
    float bits), in any order: equal labels and the same ``repr`` of each
    confidence, location and extent value.  ``repr`` is injective on
    doubles, and both it and the bits tell ``0.0`` from ``-0.0``.  Only
    NaN's many bit patterns share one ``repr``; the trace loader refuses
    non-finite numbers, so no NaN reaches a payload.

    Payloads are immutable, so the key is memoized with its topic name in
    the payload's own ``_digest`` slot, which no identity check sees; the
    name is checked, since one payload object may travel under two topics.
    A table keyed by payload equality would not do: ``0.0`` and ``-0.0``
    locations compare equal but key differently.
    """
    name = message.topic.name
    payload = message.payload
    memo = payload._digest
    if memo is not None and memo[0] == name:
        return memo[1]
    if isinstance(payload, ImageRef):
        key = f"{name}\x1fimage|{payload.content_id}".encode()
    else:
        pack = _OBJECT_FLOATS.pack
        tokens = []
        for o in payload.objects:
            if not o.from_map:
                label = o.label.encode()
                tokens.append(len(label).to_bytes(4, "little") + label + pack(o.confidence, *o.location, *o.extent))
        tokens.sort()
        key = f"{name}\x1fobjects".encode() + b"".join(tokens)
    object.__setattr__(payload, "_digest", (name, key))
    return key

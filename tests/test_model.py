import itertools
import math
import random
import re
import struct
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from geniesim import harness, model
from geniesim.model import (
    OBJECT_SORT_KEY,
    DetectedObject,
    Header,
    Message,
    ObjectList,
    PayloadKind,
    Pose,
    Topic,
    content_key,
    inverse_translate,
    normalize_yaw,
    translate_location,
)
from conftest import IMAGE, image_message, obj, objects_message
from oracles import _object_token, payload_bytes, strip_map_objects


class TestContentKey:
    def test_same_image_same_topic_equal_digests(self):
        a = image_message("img-1", origin="car1/camera", seq=1)
        b = image_message("img-1", origin="car2/camera", seq=99, stamp=500.0)
        assert content_key(a) == content_key(b)

    def test_topic_separates_key_space(self):
        a = image_message("img-1")
        b = Message(a.header, Topic("/image2", PayloadKind.IMAGE), a.payload)
        assert content_key(a) != content_key(b)

    def test_object_order_irrelevant(self):
        # brute force: all 6 orderings of a 3-object list digest identically
        objs = (
            obj("car", 0.7, (1.0, 2.0, 0.5)),
            obj("pedestrian", 0.4, (3.0, -1.0, 0.0)),
            obj("traffic_light", 0.9, (-2.0, 5.0, 3.0)),
        )
        digests = {
            content_key(objects_message(tuple(perm)))
            for perm in itertools.permutations(objs)
        }
        assert len(digests) == 1

    def test_pure_function(self):
        msg = image_message("img-7")
        digests = {content_key(msg) for _ in range(10_000)}
        assert len(digests) == 1

    def test_header_and_via_excluded(self):
        msg = objects_message((obj("car", 0.5, (0.3, 0.3, 0.3)),))
        tagged = Message(msg.header, msg.topic, msg.payload, via="hit")
        assert content_key(msg) == content_key(tagged)

    def test_map_objects_excluded(self):
        base = objects_message((obj("car", 0.5, (0.3, 0.3, 0.3)),))
        augmented = objects_message(
            (obj("car", 0.5, (0.3, 0.3, 0.3)), obj("pole", 0.9, (5.3, 0.3, 0.3), from_map=True))
        )
        assert content_key(base) == content_key(augmented)

    def test_signed_zero_tie_does_not_order_the_key(self):
        # the two cars compare equal as floats but differ in one bit, so no
        # sort by value can put them in one order for every input order
        objs = (
            obj("car", 0.5, (0.0, 1, 1)),
            obj("car", 0.5, (-0.0, 1, 1)),
            obj("pedestrian", 0.4, (3.0, -1.0, 0.0)),
        )
        keys = {content_key(objects_message(tuple(perm))) for perm in itertools.permutations(objs)}
        assert len(keys) == 1

    def test_confidence_is_content(self):
        a = objects_message((obj("car", 0.5, (0.3, 0.3, 0.3)),))
        b = objects_message((obj("car", 0.6, (0.3, 0.3, 0.3)),))
        assert content_key(a) != content_key(b)



def uncached_key(message: Message) -> str:
    """content_key of an equal message whose payload has never been digested."""
    return content_key(replace(message, payload=replace(message.payload)))


class TestContentKeyMemo:
    def test_signed_zero_payloads_keep_distinct_digests(self):
        pos = objects_message((obj("car", 0.5, (0.0, 1.0, 1.0)),))
        neg = objects_message((obj("car", 0.5, (-0.0, 1.0, 1.0)),))
        assert pos.payload == neg.payload and hash(pos.payload) == hash(neg.payload)
        assert content_key(pos) != content_key(neg)
        assert content_key(neg) == uncached_key(neg)

    def test_name_change_recomputes(self):
        msg = image_message("img-1")
        for name in ("/a", "/b", "/a"):  # one payload object under each topic
            moved = replace(msg, topic=Topic(name, PayloadKind.IMAGE))
            assert content_key(moved) == uncached_key(moved)

    def test_reheaded_message_reuses_payload_digest(self, monkeypatch):
        msg = objects_message((obj("car", 0.5, (0.3, 0.3, 0.3)),))
        digest = content_key(msg)
        moved = replace(msg, header=Header("car2/camera", 5, 10.0), via="answer")

        class NoEncoding:
            def __getattr__(self, name):
                raise AssertionError("key recomputed")

        monkeypatch.setattr(model, "_OBJECT_FLOATS", NoEncoding())
        assert content_key(moved) == digest
        with pytest.raises(AssertionError, match="key recomputed"):
            uncached_key(moved)  # the stub does catch an encoding

    def test_new_augmented_list_digests_as_plain(self):
        plain = objects_message((obj("car", 0.5, (0.3, 0.3, 0.3)),))
        digest = content_key(plain)
        extra = obj("pole", 0.9, (5.3, 0.3, 0.3), from_map=True)
        augmented = replace(plain, payload=ObjectList(plain.payload.objects + (extra,)))
        assert content_key(augmented) == digest

    def test_identity_unaffected_by_memo(self):
        msg = objects_message((obj("car", 0.5, (0.3, 0.3, 0.3)),))
        before = (repr(msg.payload), hash(msg.payload), repr(msg), hash(msg))
        content_key(msg)
        assert (repr(msg.payload), hash(msg.payload), repr(msg), hash(msg)) == before
        assert msg.payload == replace(msg.payload) and msg == replace(msg, payload=replace(msg.payload))


TINY = 5e-324  # the smallest subnormal
# each pool mixes signed zeros, subnormals, huge and infinite values, so
# bit-level and repr-level identity are tested where they could part
CONFIDENCES = (0.0, -0.0, TINY, 2.2250738585072014e-308, 0.5, 0.1 + 0.2, 0.3, 1.0)
COORDINATES = (0.0, -0.0, TINY, -TINY, 1.5, -1.5, 1e-300, 1.7976931348623157e308, -1e308, math.inf, -math.inf)
EXTENTS = (TINY, 1e-310, 0.4, 1.0, 1e308, math.inf)
LABELS = ("", "a", "ab", "car", "pole", "é", "\x1f", "stop sign", "0.5")


def random_object(rng: random.Random) -> DetectedObject:
    return DetectedObject(
        rng.choice(LABELS),
        rng.choice(CONFIDENCES),
        tuple(rng.choice(COORDINATES) for _ in range(3)),
        tuple(rng.choice(EXTENTS) for _ in range(3)),
    )


def variant(rng: random.Random, objs: list[DetectedObject]) -> list[DetectedObject]:
    """A shuffled copy of ``objs`` with one field sometimes redrawn, and
    map-appended extras sometimes added."""
    out = list(objs)
    if out and rng.random() < 0.6:
        i = rng.randrange(len(out))
        field_name, pool = rng.choice(
            [("label", LABELS), ("confidence", CONFIDENCES), ("location", COORDINATES), ("extent", EXTENTS)]
        )
        if field_name in ("location", "extent"):
            values = list(getattr(out[i], field_name))
            values[rng.randrange(3)] = rng.choice(pool)
            out[i] = replace(out[i], **{field_name: tuple(values)})
        else:
            out[i] = replace(out[i], **{field_name: rng.choice(pool)})
    out += [replace(random_object(rng), from_map=True) for _ in range(rng.randrange(3))]
    rng.shuffle(out)
    return out


def sorted_tokens(objs: list[DetectedObject]) -> list[str]:
    """The multiset of core objects' text tokens, as a sorted list: a label
    and the ``repr`` of each float, so ``0.0`` and ``-0.0`` stay apart."""
    return sorted(_object_token(o) for o in objs if not o.from_map)


class TestContentKeyEquivalence:
    def test_packed_key_equal_exactly_when_repr_tokens_equal(self):
        rng = random.Random(21)
        outcomes = set()
        for _ in range(3000):
            a = [random_object(rng) for _ in range(rng.randrange(4))]
            b = variant(rng, a)
            same_tokens = sorted_tokens(a) == sorted_tokens(b)
            same_key = content_key(objects_message(tuple(a))) == content_key(objects_message(tuple(b)))
            assert same_key == same_tokens, (a, b)
            outcomes.add(same_key)
        assert outcomes == {True, False}

    def test_label_bytes_are_length_prefixed(self):
        # unprefixed, both lists would hash the same bytes: b's first label
        # takes in a's first confidence, and a's second label splits into
        # b's last extent and b's second label
        conf = struct.unpack("<d", b"AAAAAAA?")[0]
        extent = struct.unpack("<d", b"xAAAAAA@")[0]
        tail = DetectedObject("y", 0.5, (6.0, 7.0, 8.0), (1.0, 1.0, 1.0))
        a = (DetectedObject("x", conf, (0.25, 1.0, 2.0), (3.0, 4.0, 5.0)), replace(tail, label="xAAAAAA@y"))
        b = (DetectedObject("xAAAAAAA?", 0.25, (1.0, 2.0, 3.0), (4.0, 5.0, extent)), tail)

        def unprefixed(objs):
            return b"".join(
                o.label.encode() + struct.pack("<7d", o.confidence, *o.location, *o.extent) for o in objs
            )

        assert unprefixed(a) == unprefixed(b)
        assert content_key(objects_message(a)) != content_key(objects_message(b))

    def test_replayed_frames_share_one_image_ref(self, monkeypatch):
        config = harness.ScenarioConfig(
            n_cars=2, synth=harness.SynthSpec(route="shared-corridor", n_frames=20, overlap_fraction=0.5), seed=3
        )
        scenario = harness.build_scenario(config)
        published = []
        monkeypatch.setattr(
            type(scenario.fabric), "publish", lambda net, sender, message, *args, **kw: published.append(message)
        )
        harness._replay(scenario)
        assert len(published) == len(scenario.trace.frames)
        refs: dict[str, list] = {}
        for message in published:
            refs.setdefault(message.payload.content_id, []).append(message.payload)
        assert len(refs) < len(published)
        assert all(ref is same[0] for same in refs.values() for ref in same)


class TestTranslate:
    def test_origin_maps_to_pose_position(self):
        assert translate_location((0.0, 0.0, 0.0), Pose(10.0, 5.0, 0.0, 0.0)) == (10.0, 5.0, 0.0)

    def test_quarter_turn(self):
        out = translate_location((1.0, 0.0, 0.0), Pose(0.0, 0.0, 0.0, math.pi / 2))
        assert abs(out[0] - 0.0) < 1e-9
        assert abs(out[1] - 1.0) < 1e-9
        assert abs(out[2]) < 1e-9

    def test_identity_pose_is_identity_map(self):
        v = (3.25, -7.5, 1.125)
        assert translate_location(v, Pose(0.0, 0.0, 0.0, 0.0)) == v

    def test_round_trip_100_random_offsets(self):
        rng = random.Random(42)
        for _ in range(100):
            pose = Pose(
                rng.uniform(-1000, 1000),
                rng.uniform(-1000, 1000),
                rng.uniform(-10, 10),
                rng.uniform(-math.pi, math.pi),
            )
            v = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-5, 5))
            back = inverse_translate(translate_location(v, pose), pose)
            assert max(abs(a - b) for a, b in zip(back, v)) < 1e-9

    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(-10, 10),
        st.floats(-math.pi, math.pi),
        st.floats(-30, 30), st.floats(-30, 30), st.floats(-5, 5),
    )
    def test_round_trip_property(self, px, py, pz, yaw, vx, vy, vz):
        pose = Pose(px, py, pz, yaw)
        back = inverse_translate(translate_location((vx, vy, vz), pose), pose)
        assert max(abs(a - b) for a, b in zip(back, (vx, vy, vz))) < 1e-9


class TestTypes:
    def test_yaw_normalized(self):
        assert -math.pi <= Pose(0, 0, 0, 3 * math.pi).yaw < math.pi
        assert Pose(0, 0, 0, math.pi).yaw == pytest.approx(-math.pi)

    def test_normalize_yaw_range(self):
        for y in (-10.0, -math.pi, 0.0, math.pi, 10.0, 100.0):
            assert -math.pi <= normalize_yaw(y) < math.pi

    def test_confidence_bounds(self):
        with pytest.raises(ValueError, match=r"^confidence out of range: 1\.3$"):
            DetectedObject("car", 1.3, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match=r"^confidence out of range: -0\.1$"):
            DetectedObject("car", -0.1, (0, 0, 0), (1, 1, 1))

    def test_extent_positive(self):
        for bad in (0, -0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"extent must be positive: {(1, bad, 1)}")):
                DetectedObject("car", 0.5, (0, 0, 0), (1, bad, 1))

    def test_negative_stamp_rejected(self):
        with pytest.raises(ValueError, match=r"^negative stamp: -1\.0$"):
            Header("car1/camera", 0, -1.0)

    def test_payload_topic_kind_must_match(self):
        with pytest.raises(ValueError, match=r"^payload kind objects does not match topic /image \(image\)$"):
            Message(Header("n", 0, 0.0), IMAGE, ObjectList(()))

    def test_empty_topic_name_rejected(self):
        with pytest.raises(ValueError):
            Topic("", PayloadKind.IMAGE)


HEADER = Header("car1/camera", 3, 12.5)


class TestHandWrittenInit:
    """The value types built on every hop keep the dataclass contract: frozen
    fields, eq, hash, repr, defaults and a ``replace`` that validates again.
    ``TestTypes`` pins their error texts."""

    VALUES = (
        HEADER,
        Message(HEADER, IMAGE, model.ImageRef("f0"), via="hit"),
        DetectedObject("car", 0.5, (1.0, 2.0, 3.0), (1.0, 1.0, 1.0), True),
    )

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_every_field_refuses_assignment(self, value):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_keyword_and_replaced_copies_are_equal(self, value):
        by_keyword = type(value)(**{f.name: getattr(value, f.name) for f in fields(value)})
        for twin in (by_keyword, replace(value)):
            assert twin == value and twin is not value
            assert hash(twin) == hash(value) and repr(twin) == repr(value)

    def test_positional_construction_and_defaults(self):
        assert repr(HEADER) == "Header(origin='car1/camera', seq=3, stamp_ms=12.5)"
        message = Message(HEADER, IMAGE, model.ImageRef("f0"))
        assert message.via is None and replace(message, via="answer").via == "answer"
        detected = DetectedObject("car", 0.5, (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
        assert detected.from_map is False
        assert replace(detected, from_map=True) == self.VALUES[2]
        assert replace(HEADER, seq=4).key == ("car1/camera", 4)
        with pytest.raises(ValueError, match="negative stamp"):
            replace(HEADER, stamp_ms=-2.0)
        with pytest.raises(ValueError, match="confidence out of range"):
            replace(detected, confidence=1.5)

    def test_with_confidence_equals_the_checked_constructor(self):
        rng = random.Random(35)
        for _ in range(300):
            source = random_object(rng)
            confidence = rng.choice(CONFIDENCES)
            for from_map in (False, True):
                copy = source.with_confidence(confidence, from_map)
                checked = DetectedObject(source.label, confidence, source.location, source.extent, from_map)
                assert type(copy) is DetectedObject and copy is not source
                assert copy == checked and hash(copy) == hash(checked) and repr(copy) == repr(checked)
                assert OBJECT_SORT_KEY(copy) == OBJECT_SORT_KEY(checked) and copy.from_map is from_map
                with pytest.raises(FrozenInstanceError):
                    copy.confidence = confidence


class TestPayloadBytes:
    def test_strip_map_objects(self):
        augmented = objects_message(
            (obj("car", 0.5, (0.3, 0.3, 0.3)), obj("pole", 0.9, (5.3, 0.3, 0.3), from_map=True))
        )
        stripped = strip_map_objects(augmented)
        assert stripped.payload.objects == augmented.payload.objects[:1]

    def test_bytes_stable_and_order_sensitive(self):
        a = objects_message((obj("a", 0.5, (0.3, 0.3, 0.3)), obj("b", 0.5, (1.3, 0.3, 0.3))))
        b = objects_message((obj("b", 0.5, (1.3, 0.3, 0.3)), obj("a", 0.5, (0.3, 0.3, 0.3))))
        assert payload_bytes(a.payload) == payload_bytes(a.payload)
        assert payload_bytes(a.payload) != payload_bytes(b.payload)

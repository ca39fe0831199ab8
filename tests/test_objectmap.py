import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from geniesim.model import OBJECT_SORT_KEY, DetectedObject, ObjectList, content_key
from geniesim import harness
from geniesim.objectmap import (
    ObjectMapParams,
    ObjectMapStore,
    UpdateRule,
    apply_update,
    quantize,
    share_filter,
)
from conftest import count_scans, obj, objects_message, image_message
from oracles import state_digest


class TestObjectMapParams:
    def test_one_class_holds_the_defaults(self):
        assert harness.ObjectMapParams is ObjectMapParams
        store, defaults = ObjectMapStore(), ObjectMapParams()
        for name in ObjectMapParams.__dataclass_fields__:
            assert getattr(store, name) == getattr(defaults, name), name
        assert store.update_rule is UpdateRule.EMA

    @pytest.mark.parametrize(
        "name, value",
        [
            ("resolution_m", 0.0),
            ("resolution_m", 1e-310),
            ("confidence_threshold", 1.5),
            ("update_rate", 0.0),
            ("update_rule", "bogus"),
            ("relevance_radius_m", -1.0),
            *((name, value) for name in ("resolution_m", "relevance_radius_m") for value in (math.inf, math.nan)),
        ],
    )
    def test_a_value_out_of_range_is_refused_with_its_field_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            ObjectMapParams(**{name: value}).check()
        with pytest.raises(ValueError, match=f"^{name} "):
            ObjectMapStore(**{name: value})

    def test_a_tiny_resolution_is_refused_only_for_a_positive_radius(self):
        ObjectMapParams(resolution_m=1e-310, relevance_radius_m=0.0).check()
        assert ObjectMapStore(resolution_m=1e-300)._bucket_edge == math.ceil(15.0 / 1e-300)


class TestQuantize:
    def test_inside_first_cell(self):
        assert quantize((0.4, 0.4, 0.0), 0.5) == (0, 0, 0)

    def test_floor_not_truncate(self):
        assert quantize((-0.1, 0.0, 0.0), 0.5) == (-1, 0, 0)

    def test_requires_positive_resolution(self):
        with pytest.raises(ValueError):
            quantize((0, 0, 0), 0.0)

    def test_stability_near_points(self):
        rng = random.Random(5)
        for _ in range(1000):
            p = tuple(rng.uniform(-100, 100) for _ in range(3))
            # stay away from cell boundaries before nudging
            if any(abs((c / 0.5) - round(c / 0.5)) < 1e-6 for c in p):
                continue
            nudged = tuple(c + 1e-13 for c in p)
            assert quantize(p, 0.5) == quantize(nudged, 0.5)


class TestUpdateRules:
    def test_verbatim(self):
        assert apply_update(UpdateRule.VERBATIM, 0.5, 0.3, 0.1) == pytest.approx(0.52)

    def test_ema(self):
        assert apply_update(UpdateRule.EMA, 0.5, 0.9, 0.1) == pytest.approx(0.54)

    def test_ascend(self):
        assert apply_update(UpdateRule.ASCEND, 0.5, 0.0, 0.1) == pytest.approx(0.55)

    def test_clamped_high(self):
        assert apply_update(UpdateRule.VERBATIM, 0.95, 0.0, 1.0) == 1.0

    def test_clamped_low(self):
        assert apply_update(UpdateRule.EMA, 0.0, 0.0, 1.0) == 0.0
        assert apply_update(UpdateRule.VERBATIM, 0.1, 0.9, 1.0) == 0.0

    @pytest.mark.parametrize("rule", ["ema", None, 0])
    def test_value_that_is_not_a_rule_refused(self, rule):
        with pytest.raises(ValueError, match="unknown rule"):
            apply_update(rule, 0.5, 0.5, 0.1)

    @given(
        st.sampled_from(list(UpdateRule)),
        st.floats(0, 1),
        st.floats(0, 1),
        st.floats(0.01, 1.0),
    )
    def test_closure(self, rule, stored, observed, rate):
        assert 0.0 <= apply_update(rule, stored, observed, rate) <= 1.0


class TestIngest:
    def test_insert_at_quantized_cell(self):
        store = ObjectMapStore(resolution_m=0.5)
        msg = objects_message((obj("traffic_light", 0.3, (10.0, 20.0, 3.0)),))
        store.ingest(msg, now_ms=0.0)
        assert store.boost_records == []
        assert (20, 40, 6) in store.cells
        assert store.requests == 1 and store.hits == 0

    def test_resight_updates_confidence(self):
        store = ObjectMapStore(update_rule=UpdateRule.EMA, update_rate=0.1)
        store.ingest(objects_message((obj("car", 0.5, (1.2, 1.2, 0.2)),)), 0.0)
        store.ingest(objects_message((obj("car", 0.9, (1.2, 1.2, 0.2)),)), 100.0)
        ((t, delta),) = store.boost_records
        assert t == 100.0 and delta == pytest.approx(0.04)
        (stored,) = store.cells[quantize((1.2, 1.2, 0.2), 0.5)]
        assert stored.confidence == pytest.approx(0.54)
        assert store.hits == 1 and store.requests == 2

    @pytest.mark.parametrize("rule, after", [("verbatim", 0.38), ("ema", 0.62), ("ascend", 0.65)])
    def test_resight_applies_the_rule_the_store_was_built_with(self, rule, after):
        store = ObjectMapStore(update_rule=rule, update_rate=0.3)
        store.ingest(objects_message((obj("car", 0.5, (1.2, 1.2, 0.2)),)), 0.0)
        store.ingest(objects_message((obj("car", 0.9, (1.2, 1.2, 0.2)),)), 1.0)
        (stored,) = store.cells[quantize((1.2, 1.2, 0.2), 0.5)]
        assert stored.confidence == pytest.approx(after)

    def test_same_cell_different_label_coexists(self):
        store = ObjectMapStore()
        store.ingest(objects_message((obj("pole", 0.5, (1.2, 1.2, 0.2)),)), 0.0)
        store.ingest(objects_message((obj("stop_sign", 0.7, (1.2, 1.2, 0.2)),)), 1.0)
        assert len(store) == 2
        assert store.hits == 0

    def test_non_object_payload_ignored(self):
        store = ObjectMapStore()
        store.ingest(image_message("f0"), 0.0)
        assert len(store) == 0 and store.requests == 0
        assert store.boost_records == []

    def test_sequences_stay_in_bounds(self):
        rng = random.Random(9)
        for rule in UpdateRule:
            store = ObjectMapStore(update_rule=rule, update_rate=0.9)
            for i in range(200):
                conf = rng.random()
                store.ingest(objects_message((obj("car", conf, (0.2, 0.2, 0.2)),)), float(i))
            for objects in store.cells.values():
                assert all(0.0 <= o.confidence <= 1.0 for o in objects)


def reference_ingest(store, message, now_ms):
    """Reference for ``ingest``, written plainly: ``quantize`` per object,
    the checking constructor for each boost, and ``replace`` for an object
    that arrives flagged ``from_map``.  It updates ``store``'s cells,
    counters and boost records as ``store.ingest`` should."""
    if not isinstance(message.payload, ObjectList):
        return
    for o in message.payload.objects:
        cell = quantize(o.location, store.resolution_m)
        store.requests += 1
        stored_list = store.cells.get(cell)
        match = None
        if stored_list is not None:
            for i, stored in enumerate(stored_list):
                if stored.label == o.label:
                    match = i
                    break
        if match is None:
            store.cells.setdefault(cell, []).append(replace(o, from_map=False) if o.from_map else o)
            continue
        store.hits += 1
        stored = stored_list[match]
        after = apply_update(store.update_rule, stored.confidence, o.confidence, store.update_rate)
        stored_list[match] = DetectedObject(stored.label, after, stored.location, stored.extent)
        store.boost_records.append((now_ms, after - stored.confidence))


class TestIngestMatchesReference:
    LABELS = ("car", "pole")

    @staticmethod
    def coordinate(rng):
        # signed zeros, cell edges and points inside a few cells
        return rng.choice([0.0, -0.0, 0.5, -0.5, rng.randint(-4, 4) * 0.5, rng.uniform(-2.0, 2.0)])

    def test_matches_reference_on_seeded_stores(self):
        rng = random.Random(35)
        seen = {"boosts": 0, "from_map": 0, "shared_cells": 0, "clamped": 0}
        for _ in range(150):
            params = dict(
                update_rule=rng.choice(list(UpdateRule)).value,
                update_rate=rng.choice([0.1, 0.5, 1.0]),
                resolution_m=rng.choice([0.5, 0.3, 1.0]),
            )
            store, reference = ObjectMapStore(**params), ObjectMapStore(**params)
            for step in range(rng.randint(1, 12)):
                if rng.random() < 0.1:
                    message = image_message(f"f{step}")
                else:
                    message = objects_message(tuple(
                        obj(
                            rng.choice(self.LABELS),
                            rng.choice([0.0, 1.0, rng.random()]),
                            tuple(self.coordinate(rng) for _ in range(3)),
                            from_map=rng.random() < 0.3,
                        )
                        for _ in range(rng.randint(0, 5))
                    ))
                    seen["from_map"] += sum(o.from_map for o in message.payload.objects)
                store.ingest(message, float(step))
                reference_ingest(reference, message, float(step))
                assert repr(store.cells) == repr(reference.cells)
                assert (store.requests, store.hits) == (reference.requests, reference.hits)
                assert repr(store.boost_records) == repr(reference.boost_records)
            seen["boosts"] += len(store.boost_records)
            seen["shared_cells"] += sum(len({o.label for o in v}) > 1 for v in store.cells.values())
            seen["clamped"] += sum(o.confidence in (0.0, 1.0) for v in store.cells.values() for o in v)
        assert all(seen.values()), seen


class TestAugment:
    def test_neighbor_above_threshold_appended(self):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message((obj("stop_sign", 0.8, (1.2, 1.2, 0.2)),)), 0.0)
        out = store.augment(ObjectList((obj("car", 0.9, (1.4, 1.4, 0.2)),)))
        assert len(out.objects) == 2
        added = out.objects[1]
        assert added.label == "stop_sign" and added.from_map

    def test_below_threshold_excluded(self):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message((obj("stop_sign", 0.59, (1.2, 1.2, 0.2)),)), 0.0)
        out = store.augment(ObjectList((obj("car", 0.9, (1.4, 1.4, 0.2)),)))
        assert len(out.objects) == 1

    def test_boundary_confidence_included(self):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message((obj("stop_sign", 0.6, (1.2, 1.2, 0.2)),)), 0.0)
        out = store.augment(ObjectList((obj("car", 0.9, (1.4, 1.4, 0.2)),)))
        assert len(out.objects) == 2

    def test_no_duplicate_same_label_and_cell(self):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message((obj("car", 0.9, (1.2, 1.2, 0.2)),)), 0.0)
        entry = ObjectList((obj("car", 0.7, (1.2, 1.2, 0.2)),))
        out = store.augment(entry)
        # brute-force duplicate check over (label, cell) pairs
        idents = [(o.label, quantize(o.location, 0.5)) for o in out.objects]
        assert len(idents) == len(set(idents)) == 1

    def test_out_of_radius_excluded(self):
        store = ObjectMapStore(confidence_threshold=0.6, relevance_radius_m=15.0)
        store.ingest(objects_message((obj("pole", 0.9, (100.2, 0.2, 0.2)),)), 0.0)
        out = store.augment(ObjectList((obj("car", 0.9, (0.2, 0.2, 0.2)),)))
        assert len(out.objects) == 1

    def test_negative_radius_rejected_and_zero_adds_nothing(self):
        with pytest.raises(ValueError, match="relevance_radius_m"):
            ObjectMapStore(relevance_radius_m=-1.0)
        store = ObjectMapStore(confidence_threshold=0.6, relevance_radius_m=0.0)
        store.ingest(objects_message((obj("pole", 0.9, (0.7, 0.2, 0.2)),)), 0.0)
        assert len(store.augment(ObjectList((obj("car", 0.9, (0.2, 0.2, 0.2)),))).objects) == 1

    def test_read_only(self):
        store = ObjectMapStore()
        for i in range(10):
            store.ingest(objects_message((obj("car", 0.7, (1.2 + i, 1.2, 0.2)),)), 0.0)
        before = state_digest(store)
        store.augment(ObjectList((obj("car", 0.9, (3.4, 1.4, 0.2)),)))
        assert state_digest(store) == before

    def test_counts_scan_hits(self):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message((obj("stop_sign", 0.8, (1.2, 1.2, 0.2)),)), 0.0)
        store.requests = store.hits = 0
        store.augment(ObjectList((obj("car", 0.9, (1.4, 1.4, 0.2)),)))
        assert (store.requests, store.hits) == (1, 1)
        store.augment(ObjectList((obj("car", 0.9, (500.0, 1.4, 0.2)),)))
        assert (store.requests, store.hits) == (2, 1)


def labels(payload):
    return sorted(o.label for o in payload.objects)


class TestAugmentKeepsAnswers:
    """``augment`` keeps each answer it builds, keyed by the payload object,
    until the next object-list ingest."""

    NEARBY = (obj("pole", 0.8, (1.2, 1.2, 0.2)),)
    PAYLOAD = (obj("car", 0.9, (1.4, 1.4, 0.2)), obj("tree", 0.9, (90.0, 0.2, 0.2)))

    def store(self, monkeypatch, nearby=NEARBY, **kwargs):
        store = ObjectMapStore(confidence_threshold=0.6, **kwargs)
        store.ingest(objects_message(nearby), 0.0)
        return store, count_scans(store, monkeypatch)

    def test_repeat_scans_once_and_counts_every_call(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        twin, _ = self.store(monkeypatch)
        message = objects_message(self.PAYLOAD)
        content_key(message)
        payload = message.payload
        first = store.augment(payload)
        assert store.augment(payload) is first and len(scans) == 1
        assert first._digest == payload._digest
        # the twin scans twice: an equal payload is not the same payload
        assert first == twin.augment(payload) == twin.augment(ObjectList(self.PAYLOAD))
        assert labels(first) == ["car", "pole", "tree"]
        # one ingest lookup, then two per call; the car hits, the far tree not
        assert (store.requests, store.hits) == (twin.requests, twin.hits) == (5, 2)

    def test_object_list_ingest_clears(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        payload = ObjectList(self.PAYLOAD)
        assert labels(store.augment(payload)) == ["car", "pole", "tree"]
        store.ingest(objects_message((obj("bin", 0.6, (1.9, 1.4, 0.2)),)), 1.0)  # at threshold
        assert store._answers == {}
        assert labels(store.augment(payload)) == ["bin", "car", "pole", "tree"]
        assert len(scans) == 2

    def test_boost_only_ingest_clears(self, monkeypatch):
        below = (obj("bin", 0.55, (1.9, 1.4, 0.2)),)
        store, scans = self.store(monkeypatch, below, update_rate=0.5)
        payload = ObjectList(self.PAYLOAD)
        assert labels(store.augment(payload)) == ["car", "tree"]
        cells = len(store.cells)
        store.ingest(objects_message((obj("bin", 0.95, (1.9, 1.4, 0.2)),)), 1.0)
        assert len(store.cells) == cells  # a boost to 0.75, no new cell
        assert store._answers == {}
        assert labels(store.augment(payload)) == ["bin", "car", "tree"]
        assert len(scans) == 1  # rebuilt from the kept neighbourhood: no cell was added

    def test_image_ingest_keeps_answers(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        payload = ObjectList(self.PAYLOAD)
        first = store.augment(payload)
        store.ingest(image_message("f0"), 1.0)
        assert store._answers == {id(payload): (payload, first, 1)}
        assert store.augment(payload) is first and len(scans) == 1

    def test_signed_zero_payloads_get_their_own_answers(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        plus = ObjectList((obj("car", 0.9, (0.0, 1.4, 0.2)),))
        minus = ObjectList((obj("car", 0.9, (-0.0, 1.4, 0.2)),))
        assert plus == minus and hash(plus) == hash(minus)
        answers = {sign: store.augment(payload) for sign, payload in ((1.0, plus), (-1.0, minus))}
        assert len(scans) == 2
        for sign, answer in answers.items():
            assert math.copysign(1.0, answer.objects[0].location[0]) == sign
        assert store.augment(plus) is answers[1.0] and store.augment(minus) is answers[-1.0]
        assert len(scans) == 2


class TestAugmentKeepsNeighbourhoods:
    """``augment`` keeps each payload's ``(i, cell)`` pairs from its last
    scan until the map gains a cell; each rebuilt answer reads the cells'
    contents afresh."""

    NEARBY = TestAugmentKeepsAnswers.NEARBY
    PAYLOAD = TestAugmentKeepsAnswers.PAYLOAD
    BOOST = (obj("pole", 0.9, (1.2, 1.2, 0.2)),)  # re-sights NEARBY's pole: no new cell
    LABELS = ("car", "pole", "bin")

    def store(self, monkeypatch):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message(self.NEARBY), 0.0)
        return store, count_scans(store, monkeypatch)

    def detected(self, rng):
        location = tuple(rng.choice([0.0, -0.0, rng.uniform(-4, 4), rng.randint(-8, 8) * 0.5]) for _ in range(3))
        return obj(rng.choice(self.LABELS), rng.random(), location)

    def test_ingest_that_adds_a_cell_rescans(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        payload = ObjectList(self.PAYLOAD)
        assert labels(store.augment(payload)) == ["car", "pole", "tree"]
        store.ingest(objects_message(self.BOOST), 1.0)
        assert labels(store.augment(payload)) == ["car", "pole", "tree"] and len(scans) == 1
        store.ingest(objects_message((obj("bin", 0.7, (2.2, 1.4, 0.2)),)), 2.0)
        assert labels(store.augment(payload)) == ["bin", "car", "pole", "tree"] and len(scans) == 2

    def test_a_new_cell_drops_every_kept_neighbourhood(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        payloads = [ObjectList(self.PAYLOAD), ObjectList(self.PAYLOAD[:1])]
        for payload in payloads:
            store.augment(payload)
        assert list(store._near) == [id(p) for p in payloads]
        store.ingest(objects_message((obj("bin", 0.7, (2.2, 1.4, 0.2)),)), 1.0)
        store.augment(payloads[0])
        assert list(store._near) == [id(payloads[0])] and len(scans) == 3

    def test_direct_write_that_adds_a_cell_rescans(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        payload = ObjectList(self.PAYLOAD)
        store.augment(payload)
        store.cells.setdefault((4, 2, 0), []).append(obj("bin", 0.7, (2.2, 1.4, 0.2)))
        store.ingest(objects_message(self.BOOST), 1.0)  # clears the kept answers, adds no cell
        assert labels(store.augment(payload)) == ["bin", "car", "pole", "tree"] and len(scans) == 2

    def test_direct_append_to_a_scanned_cell_shows_without_a_rescan(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        payload = ObjectList(self.PAYLOAD)
        store.augment(payload)
        (pole_cell,) = store.cells
        store.cells[pole_cell].append(obj("sign", 0.7, (1.3, 1.3, 0.2)))
        store.ingest(objects_message(self.BOOST), 1.0)
        assert labels(store.augment(payload)) == ["car", "pole", "sign", "tree"] and len(scans) == 1

    def test_signed_zero_twins_keep_separate_neighbourhoods(self, monkeypatch):
        store, scans = self.store(monkeypatch)
        plus = ObjectList((obj("car", 0.9, (0.0, 1.4, 0.2)),))
        minus = ObjectList((obj("car", 0.9, (-0.0, 1.4, 0.2)),))
        assert plus == minus
        for payload in (plus, minus):
            store.augment(payload)
        store.ingest(objects_message(self.BOOST), 1.0)
        answers = {sign: store.augment(payload) for sign, payload in ((1.0, plus), (-1.0, minus))}
        assert len(scans) == 2
        kept = [entry[0] for entry in store._near.values()]
        assert len(kept) == 2 and kept[0] is plus and kept[1] is minus
        for sign, answer in answers.items():
            assert math.copysign(1.0, answer.objects[0].location[0]) == sign
            assert labels(answer) == ["car", "pole"]

    def test_matches_a_store_scanning_afresh_on_every_call(self, monkeypatch):
        """Random interleavings of ingests (new cells, boosts, image
        payloads), direct writes and augments of a few repeated payloads,
        against a twin store whose kept answers and neighbourhoods are
        cleared before every call."""
        rng = random.Random(38)
        reused = 0
        for _ in range(60):
            params = dict(
                resolution_m=rng.choice([0.5, 1.0]),
                relevance_radius_m=rng.choice([0.0, 1.7, 3.0]),
                confidence_threshold=rng.choice([0.0, 0.6]),
                update_rate=rng.choice([0.1, 0.5]),
            )
            store, fresh = ObjectMapStore(**params), ObjectMapStore(**params)
            scans = count_scans(store, monkeypatch)
            payloads = [ObjectList(tuple(self.detected(rng) for _ in range(rng.randint(0, 3)))) for _ in range(3)]
            builds = 0
            for step in range(40):
                fresh._answers.clear()
                fresh._near.clear()
                op = rng.random()
                if op < 0.3:
                    message = objects_message(tuple(self.detected(rng) for _ in range(rng.randint(0, 3))))
                    if rng.random() < 0.2:
                        message = image_message(f"f{step}")
                    for s in (store, fresh):
                        s.ingest(message, float(step))
                elif op < 0.45:
                    # a direct write, to a new cell or an occupied one; it
                    # does not clear the kept answers, so the test does
                    occupied = list(store.cells)
                    if occupied and rng.random() < 0.5:
                        cell = rng.choice(occupied)
                    else:
                        cell = tuple(rng.randint(-8, 8) for _ in range(3))
                    written = self.detected(rng)
                    for s in (store, fresh):
                        s.cells.setdefault(cell, []).append(written)
                    store._answers.clear()
                else:
                    payload = rng.choice(payloads)
                    builds += id(payload) not in store._answers
                    got, want = store.augment(payload), fresh.augment(payload)
                    assert repr(got) == repr(want)
                    assert (store.requests, store.hits) == (fresh.requests, fresh.hits)
            reused += builds - len(scans)  # answers built from a kept neighbourhood
        assert reused > 0


class TestAugmentMatchesPerPointScan:
    LABELS = ("car", "pole", "stop_sign")

    def coordinate(self, rng, span):
        return rng.choice([0.0, -0.0, rng.uniform(-span, span), rng.randint(-span, span) * 0.5])

    def location(self, rng, span):
        return tuple(self.coordinate(rng, span) for _ in range(3))

    def test_matches_reference_on_seeded_maps(self):
        rng = random.Random(22)
        compared = 0
        for _ in range(120):
            store = ObjectMapStore(
                resolution_m=rng.choice([0.5, 0.3, 1.0]),
                relevance_radius_m=rng.choice([0.0, 0.5, 1.7, 3.0]),
                confidence_threshold=rng.choice([0.0, 0.6]),
            )
            span = rng.choice([2, 6])
            for step in range(5):
                for _ in range(rng.randint(0, 8)):
                    objs = tuple(
                        obj(rng.choice(self.LABELS), rng.random(), self.location(rng, span))
                        for _ in range(rng.randint(1, 3))
                    )
                    store.ingest(objects_message(objs), float(step))
                for _ in range(rng.randint(0, 3)):
                    # a direct write, possibly of an object outside its cell
                    cell = tuple(rng.randint(-2 * span, 2 * span) for _ in range(3))
                    store.cells.setdefault(cell, []).append(
                        obj(rng.choice(self.LABELS), rng.random(), self.location(rng, span))
                    )
                payload = ObjectList(tuple(
                    obj(rng.choice(self.LABELS), rng.random(), self.location(rng, span))
                    for _ in range(rng.randint(0, 4))
                ))
                counters = (store.requests, store.hits)
                want = per_point_augment(store, payload)
                want_counters = (store.requests, store.hits)
                store.requests, store.hits = counters
                got = store.augment(payload)
                assert repr(got) == repr(want)
                assert (store.requests, store.hits) == want_counters
                compared += len(got.objects) - len(payload.objects)
        assert compared > 0


def cells_near_oracle(store, point):
    """Brute force: every occupied cell through the bounding-box and
    cell-to-sphere tests, then sorted."""
    r, res = store.relevance_radius_m, store.resolution_m
    lo = quantize(tuple(c - r for c in point), res)
    hi = quantize(tuple(c + r for c in point), res)
    out = []
    for cell in store.cells:
        if not all(a <= i <= b for a, i, b in zip(lo, cell, hi)):
            continue
        d2 = 0.0
        for idx, p in zip(cell, point):
            nearest = min(max(p, idx * res), (idx + 1) * res)
            d2 += (p - nearest) ** 2
        if d2 <= r * r:
            out.append(cell)
    out.sort()
    return out


def cells_near_multi_oracle(store, points):
    """Each cell of any point's oracle list, paired with the smallest index
    whose list holds it, sorted by (index, cell)."""
    first = {}
    for i, p in enumerate(points):
        for cell in cells_near_oracle(store, p):
            first.setdefault(cell, i)
    return sorted((i, cell) for cell, i in first.items())


def per_point_augment(store, payload):
    """Reference: the per-point scan ``augment`` replaced.  Each object's
    neighbourhood is scanned in turn, in sorted cell order, and the object
    counts a hit when one of its cells adds something."""
    present = {(o.label, quantize(o.location, store.resolution_m)) for o in payload.objects}
    additions = []
    for o in payload.objects:
        found = False
        for cell in cells_near_oracle(store, o.location):
            for stored in store.cells[cell]:
                if stored.confidence < store.confidence_threshold:
                    continue
                ident = (stored.label, cell)
                if ident in present:
                    continue
                present.add(ident)
                additions.append(DetectedObject(
                    stored.label, stored.confidence, stored.location, stored.extent, from_map=True
                ))
                found = True
        store.requests += 1
        if found:
            store.hits += 1
    additions.sort(key=OBJECT_SORT_KEY)
    return ObjectList(payload.objects + tuple(additions))


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.gets = 0
        self.keys_read = []
        self.probes = 0

    def get(self, key, default=None):
        self.gets += 1
        self.keys_read.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


class TestCellsNear:
    RADII = (0.0, 0.2, 0.5, 1.7, 3.0, 15.0)  # below, at and off multiples of a cell

    @staticmethod
    def boundary_points(rng, res, k):
        """Points on cell and bucket boundaries, on both sides of zero."""
        cell = rng.randint(-12, 12) * res
        bucket = rng.randint(-3, 3) * k * res
        return [
            (cell, bucket, 0.0),
            (bucket, -bucket, cell),
            (-cell, cell, -bucket),
            (bucket + res, bucket - res, -0.0),
        ]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(100):
            res = rng.choice([0.5, 0.3, 1.0])
            store = ObjectMapStore(resolution_m=res, relevance_radius_m=rng.choice(self.RADII))
            span = rng.choice([3, 12, 40])
            for _ in range(6):
                # direct writes between queries, as criterion 6 does
                for _ in range(rng.randint(0, 30)):
                    cell = tuple(rng.randint(-span, span) for _ in range(3))
                    store.cells.setdefault(cell, []).append(obj("x", 0.9, (0.2, 0.2, 0.2)))
                points = self.boundary_points(rng, res, store._bucket_edge)
                points += [tuple(rng.uniform(-span, span) * res for _ in range(3)) for _ in range(4)]
                for p in points:
                    got = store._cells_near([p])
                    assert got == [(0, cell) for cell in cells_near_oracle(store, p)]
                    checked += len(got)
                # all points at once, and a few small groups near each other
                groups = [points] + [
                    [tuple(c + rng.uniform(-2, 2) * store.relevance_radius_m for c in p)
                     for _ in range(rng.randint(1, 4))] + [p]
                    for p in points[:3]
                ]
                for group in groups:
                    got = store._cells_near(group)
                    assert got == cells_near_multi_oracle(store, group)
                    checked += len(got)
        assert checked > 0

    def test_cells_ingested_between_queries_are_found(self):
        store = ObjectMapStore(relevance_radius_m=3.0)
        assert store._cells_near([(0.2, 0.2, 0.2)]) == []
        store.ingest(objects_message((obj("car", 0.9, (-1.2, 0.7, 0.2)),)), 0.0)
        assert store._cells_near([(0.2, 0.2, 0.2)]) == [(0, (-3, 1, 0))]
        store.cells.setdefault((2, 0, 0), [])
        assert store._cells_near([(0.2, 0.2, 0.2)]) == [(0, (-3, 1, 0)), (0, (2, 0, 0))]

    def test_visits_at_most_9_buckets_however_large_the_map(self):
        store = ObjectMapStore(relevance_radius_m=15.0)
        store._buckets = _CountingDict()
        for i in range(5000):
            store.cells.setdefault((1000 + i, 1000 - i, i % 7), [])
        store.cells.setdefault((3, 4, 0), [])
        assert store._cells_near([(0.2, 0.2, 0.2)]) == [(0, (3, 4, 0))]
        assert store._buckets.gets <= 9 and store._buckets.probes <= 9

    def test_reads_each_column_once_per_call(self):
        rng = random.Random(4)
        store = ObjectMapStore(relevance_radius_m=3.0)
        for _ in range(300):
            store.cells.setdefault(tuple(rng.randint(-40, 40) for _ in range(3)), [])
        for _ in range(50):
            centre = [rng.uniform(-15, 15) for _ in range(3)]
            points = [tuple(c + rng.uniform(-4, 4) for c in centre) for _ in range(rng.randint(1, 5))]
            store._index_new_cells()
            counting = _CountingDict()
            counting.update(store._buckets)
            store._buckets = counting
            got = store._cells_near(points)
            assert got == cells_near_multi_oracle(store, points)
            read = store._buckets.keys_read
            assert len(read) == len(set(read)) <= 9 * len(points)


class TestShareFilter:
    def test_threshold(self):
        out = share_filter(
            ObjectList((obj("a", 0.7, (0.2, 0.2, 0.2)), obj("b", 0.5, (1.2, 0.2, 0.2)))), 0.6
        )
        assert [o.confidence for o in out.objects] == [0.7]

    def test_empty(self):
        assert share_filter(ObjectList(()), 0.6).objects == ()

    def test_boundary_kept(self):
        out = share_filter(ObjectList((obj("a", 0.6, (0.2, 0.2, 0.2)),)), 0.6)
        assert len(out.objects) == 1

    @given(st.lists(st.floats(0, 1), max_size=20), st.floats(0, 1))
    def test_matches_predicate_oracle(self, confs, threshold):
        payload = ObjectList(
            tuple(obj(f"o{i}", c, (i + 0.2, 0.2, 0.2)) for i, c in enumerate(confs))
        )
        got = share_filter(payload, threshold)
        expected = tuple(o for o in payload.objects if o.confidence >= threshold)
        assert got.objects == expected  # order preserved, subset exact


class TestAscendMonotonicity:
    def test_strictly_increasing_and_converges(self):
        store = ObjectMapStore(update_rule=UpdateRule.ASCEND, update_rate=0.2)
        store.ingest(objects_message((obj("light", 0.1, (0.2, 0.2, 0.2)),)), 0.0)
        values = [0.1]
        for i in range(60):
            store.ingest(objects_message((obj("light", 0.05, (0.2, 0.2, 0.2)),)), float(i + 1))
            values.append(store.cells[quantize((0.2, 0.2, 0.2), 0.5)][0].confidence)
        assert all(b > a for a, b in zip(values, values[1:]) if a < 1.0)
        assert values[-1] > 0.999

    def test_cumulative_boost_curve_non_decreasing(self):
        store = ObjectMapStore(update_rule=UpdateRule.ASCEND, update_rate=0.3)
        rng = random.Random(3)
        for i in range(100):
            loc = (rng.choice([0.2, 1.2, 2.2]), 0.2, 0.2)
            store.ingest(objects_message((obj("light", rng.random(), loc),)), float(i))
        totals, acc = [], 0.0
        for _, delta in store.boost_records:
            acc += delta
            totals.append(acc)
        assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_store_lookup_round_trip():
    store = ObjectMapStore(confidence_threshold=0.6)
    low = obj("car", 0.3, (1.2, 1.2, 0.2))
    store.ingest(objects_message((low,)), 0.0)
    cell = quantize(low.location, store.resolution_m)
    assert any(o.label == "car" for o in store.cells[cell])
    # internal lookup has it; share_filter refuses to expose it
    assert share_filter(ObjectList(tuple(store.cells[cell])), 0.6).objects == ()

import random

import pytest
from hypothesis import given, strategies as st

from geniesim.model import ObjectList
from geniesim.objectmap import (
    ObjectMapStore,
    UpdateRule,
    apply_update,
    quantize,
    share_filter,
)
from conftest import obj, objects_message, image_message


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

    def test_same_cell_different_label_coexists(self):
        store = ObjectMapStore()
        store.ingest(objects_message((obj("pole", 0.5, (1.2, 1.2, 0.2)),)), 0.0)
        store.ingest(objects_message((obj("stop_sign", 0.7, (1.2, 1.2, 0.2)),)), 1.0)
        assert len(store) == 2
        assert store.hits == 0

    def test_non_object_payload_ignored(self):
        store = ObjectMapStore()
        store.ingest(image_message("f0"), 0.0)
        assert len(store) == 0 and store.requests == 0 and store.version == 0
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
        before = store.state_digest()
        store.augment(ObjectList((obj("car", 0.9, (3.4, 1.4, 0.2)),)))
        assert store.state_digest() == before

    def test_counts_scan_hits(self):
        store = ObjectMapStore(confidence_threshold=0.6)
        store.ingest(objects_message((obj("stop_sign", 0.8, (1.2, 1.2, 0.2)),)), 0.0)
        store.requests = store.hits = 0
        store.augment(ObjectList((obj("car", 0.9, (1.4, 1.4, 0.2)),)))
        assert (store.requests, store.hits) == (1, 1)
        store.augment(ObjectList((obj("car", 0.9, (500.0, 1.4, 0.2)),)))
        assert (store.requests, store.hits) == (2, 1)


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


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


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
                    got = store._cells_near(p)
                    assert got == cells_near_oracle(store, p)
                    checked += len(got)
        assert checked > 0

    def test_cells_ingested_between_queries_are_found(self):
        store = ObjectMapStore(relevance_radius_m=3.0)
        assert store._cells_near((0.2, 0.2, 0.2)) == []
        store.ingest(objects_message((obj("car", 0.9, (-1.2, 0.7, 0.2)),)), 0.0)
        assert store._cells_near((0.2, 0.2, 0.2)) == [(-3, 1, 0)]
        store.cells.setdefault((2, 0, 0), [])
        assert store._cells_near((0.2, 0.2, 0.2)) == [(-3, 1, 0), (2, 0, 0)]

    def test_visits_at_most_9_buckets_however_large_the_map(self):
        store = ObjectMapStore(relevance_radius_m=15.0)
        store._buckets = _CountingDict()
        for i in range(5000):
            store.cells.setdefault((1000 + i, 1000 - i, i % 7), [])
        store.cells.setdefault((3, 4, 0), [])
        assert store._cells_near((0.2, 0.2, 0.2)) == [(3, 4, 0)]
        assert store._buckets.gets <= 9


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

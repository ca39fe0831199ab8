"""Location-keyed high-confidence object map.

Detected objects are stored under their quantized absolute location, the
one attribute of a static object that independent observers agree on.
Re-sighting a stored object (same cell, same label) updates its confidence
instead of duplicating it; returning cached results pulls nearby
high-confidence objects into the answer.  Only objects at or above the
confidence threshold are ever shared outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice, product

from .model import OBJECT_SORT_KEY, DetectedObject, Message, ObjectList


def quantize(location: tuple[float, float, float], resolution_m: float) -> tuple[int, int, int]:
    """Cell key ``(ix, iy, iz)``: each axis floor-divided by the cell edge
    length (floor, not truncate, so negative coordinates quantize
    consistently)."""
    if resolution_m <= 0:
        raise ValueError(f"resolution must be positive: {resolution_m}")
    x, y, z = location
    return (math.floor(x / resolution_m), math.floor(y / resolution_m), math.floor(z / resolution_m))


class UpdateRule(str, Enum):
    """Confidence update applied when a stored object is sighted again.

    verbatim  C <- C + rate * (C - observed); moves confidence away from
              the observation, kept for fidelity with the original
              formulation.
    ema       C <- C + rate * (observed - C); exponential moving average
              toward the observation (default).
    ascend    C <- C + rate * (1 - C); monotone climb toward 1 on every
              re-sighting, regardless of the observed score.
    """

    VERBATIM = "verbatim"
    EMA = "ema"
    ASCEND = "ascend"


def _verbatim(stored: float, observed: float, rate: float) -> float:
    return min(1.0, max(0.0, stored + rate * (stored - observed)))


def _ema(stored: float, observed: float, rate: float) -> float:
    return min(1.0, max(0.0, stored + rate * (observed - stored)))


def _ascend(stored: float, observed: float, rate: float) -> float:
    return min(1.0, max(0.0, stored + rate * (1.0 - stored)))


_UPDATES = {UpdateRule.VERBATIM: _verbatim, UpdateRule.EMA: _ema, UpdateRule.ASCEND: _ascend}


def apply_update(rule: UpdateRule, stored: float, observed: float, rate: float) -> float:
    if not isinstance(rule, UpdateRule):
        raise ValueError(f"unknown rule: {rule}")
    return _UPDATES[rule](stored, observed, rate)


def share_filter(payload: ObjectList, confidence_threshold: float) -> ObjectList:
    """Subset of objects with confidence >= threshold, order preserved.

    The rule for everything map-sourced before it leaves for a vehicle;
    :meth:`ObjectMapStore.augment` applies the same threshold inline.
    """
    return ObjectList(
        tuple(o for o in payload.objects if o.confidence >= confidence_threshold)
    )


@dataclass(frozen=True)
class ObjectMapParams:
    """The object map's knobs: the keywords of :class:`ObjectMapStore` and the
    ``object_map`` section of a scenario config, with their defaults."""

    confidence_threshold: float = 0.6
    update_rate: float = 0.1
    update_rule: str = "ema"
    resolution_m: float = 0.5
    relevance_radius_m: float = 15.0

    def check(self) -> None:
        """Raise ``ValueError`` at the first field out of range; the message
        starts with the field's name."""
        if not 0 < self.resolution_m < math.inf:
            raise ValueError("resolution_m must be finite and positive")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        if not 0.0 < self.update_rate <= 1.0:
            raise ValueError("update_rate must be in (0, 1]")
        if not 0 <= self.relevance_radius_m < math.inf:  # zero is valid: augment adds nothing
            raise ValueError("relevance_radius_m must be finite and non-negative")
        if not math.isfinite(self.relevance_radius_m / self.resolution_m):  # the hash's column width in cells
            raise ValueError(f"resolution_m is too small for relevance_radius_m: {self.resolution_m}")
        try:
            UpdateRule(self.update_rule)
        except ValueError:
            raise ValueError(f"update_rule must be one of {sorted(r.value for r in UpdateRule)}") from None


class ObjectMapStore:
    """One map per caching node, mutated only inside that node's callbacks.

    ``requests``/``hits`` count lookups made on behalf of message payloads:
    an ingest lookup hits when the cell already holds a same-label object,
    and an augment scan hits when it contributes at least one stored object
    to a returned result.

    ``augment`` keeps each answer it builds until the next object-list
    ingest, which may add an object or boost one across the threshold
    without adding a cell.  That relies on ``ingest`` being the only writer
    of the map: a direct write to ``cells`` does not clear the kept
    answers, so they do not see it.

    ``augment`` also keeps each payload's neighbourhood, the ``(i, cell)``
    pairs of its :meth:`_cells_near` scan, until the map gains a cell.
    Cells are only ever added and never move, so only a new cell, from
    ``ingest`` or a direct write, can change a neighbourhood; an answer
    rebuilt from a kept one reads the cells' current objects.  The store
    holds at most one neighbourhood per distinct payload object augmented
    since the map last gained a cell, and each entry holds that payload.

    ``boost_records`` holds one ``(time_ms, delta)`` pair per re-sighting,
    in ingest order, where delta is the confidence after minus before.

    Every object stored or appended is a checked object or a copy of one
    made by ``DetectedObject.with_confidence`` (a boost's confidence comes
    clamped from the update rule), so neither path validates again.
    """

    def __init__(self, **params) -> None:
        p = ObjectMapParams(**params)
        p.check()
        self.update_rule = UpdateRule(p.update_rule)
        self.resolution_m = p.resolution_m
        self.confidence_threshold = p.confidence_threshold
        self.update_rate = p.update_rate
        self._update = _UPDATES[self.update_rule]  # resolved once, not per boost
        self.relevance_radius_m = p.relevance_radius_m
        self.cells: dict[tuple[int, int, int], list[DetectedObject]] = {}
        # spatial hash over ``cells``: 2-D columns of ``_bucket_edge`` x
        # ``_bucket_edge`` cells, each spanning every z, at least the relevance
        # radius wide, so a point's bounding box overlaps at most 3 x 3
        # columns; z is checked per cell.  Each column lists its cells as
        # (cell, x0, x1, y0, y1, z0, z1), with the cell's box bounds
        self._bucket_edge = max(1, math.ceil(p.relevance_radius_m / p.resolution_m))
        self._buckets: dict[tuple[int, int], list[tuple]] = {}
        self._indexed = 0
        self.requests = 0
        self.hits = 0
        # id(payload) -> (payload, answer, hits) of each augment since the
        # last object-list ingest; the entry keeps the payload, and so its id
        self._answers: dict[int, tuple[ObjectList, ObjectList, int]] = {}
        # id(payload) -> (payload, pairs) of each payload's _cells_near scan
        # while the map has held _near_cells cells
        self._near: dict[int, tuple[ObjectList, list]] = {}
        self._near_cells = 0
        self.boost_records: list[tuple[float, float]] = []

    def __len__(self) -> int:
        return sum(len(v) for v in self.cells.values())

    # -- write path -----------------------------------------------------------

    def ingest(self, message: Message, now_ms: float) -> None:
        """Absorb the objects of an answer message into the map.

        Non-object payloads are ignored.  Each object either updates the
        confidence of a same-label object already stored in its cell
        (appending a boost record) or is inserted fresh.
        """
        payload = message.payload
        if not isinstance(payload, ObjectList):
            return
        self._answers.clear()
        cells, res, floor = self.cells, self.resolution_m, math.floor
        update, rate, boosts = self._update, self.update_rate, self.boost_records
        hits = 0
        for obj in payload.objects:
            x, y, z = obj.location
            cell = (floor(x / res), floor(y / res), floor(z / res))  # quantize(), inlined
            # objects are frozen, so a detector's own object is stored as is
            stored_list = cells.get(cell)
            if stored_list is None:  # a new cell gets its list only now
                cells[cell] = [obj.with_confidence(obj.confidence, False) if obj.from_map else obj]
                continue
            for i, stored in enumerate(stored_list):
                if stored.label == obj.label:
                    before = stored.confidence
                    after = update(before, obj.confidence, rate)
                    stored_list[i] = stored.with_confidence(after, False)
                    boosts.append((now_ms, after - before))
                    hits += 1
                    break
            else:
                stored_list.append(obj.with_confidence(obj.confidence, False) if obj.from_map else obj)
        self.requests += len(payload.objects)
        self.hits += hits

    # -- read path ------------------------------------------------------------

    def augment(self, payload: ObjectList) -> ObjectList:
        """Append stored high-confidence objects near the payload's objects.

        Scans every cell within the relevance radius of any object, once; a
        stored object qualifies if its confidence meets the threshold and
        no object with the same (label, cell) is already present.  Appended
        objects are flagged ``from_map``.  The store is never mutated.

        Each object counts one lookup, a hit when a cell it claims (see
        :meth:`_cells_near`) contributes an object.  This equals scanning
        each object's neighbourhood in turn: ``present`` is keyed by cell,
        so a cell already scanned for an earlier object adds nothing more.

        Until the next object-list ingest, a repeat call with the same
        payload object returns the kept answer and counts its lookups.  Not
        an equal payload: one at ``-0.0`` equals one at ``0.0`` but its
        answer carries its own objects.  Until the map gains a cell, the
        same payload object's rebuilt answer reuses its kept neighbourhood.
        """
        objects = payload.objects
        kept = self._answers.get(id(payload))
        if kept is not None and kept[0] is payload:
            self.requests += len(objects)
            self.hits += kept[2]
            return kept[1]
        res, floor = self.resolution_m, math.floor  # quantize(), inlined
        present = {(o.label, (floor(x / res), floor(y / res), floor(z / res)))
                   for o in objects for x, y, z in (o.location,)}
        threshold = self.confidence_threshold
        additions: list[DetectedObject] = []
        found = [False] * len(objects)
        if len(self.cells) != self._near_cells:  # a new cell may lie in any neighbourhood
            self._near.clear()
            self._near_cells = len(self.cells)
        near = self._near.get(id(payload))
        if near is None or near[0] is not payload:
            near = (payload, self._cells_near([o.location for o in objects]))
            self._near[id(payload)] = near
        for i, cell in near[1]:
            for stored in self.cells[cell]:
                if stored.confidence < threshold:
                    continue
                ident = (stored.label, cell)
                if ident in present:
                    continue
                present.add(ident)
                additions.append(stored.with_confidence(stored.confidence, True))
                found[i] = True
        hits = sum(found)
        self.requests += len(objects)
        self.hits += hits
        additions.sort(key=OBJECT_SORT_KEY)
        answer = ObjectList(objects + tuple(additions))
        # every addition is from_map, so the answer keys as the payload
        object.__setattr__(answer, "_digest", payload._digest)
        self._answers[id(payload)] = (payload, answer, hits)
        return answer

    def _cells_near(
        self, points: list[tuple[float, float, float]]
    ) -> list[tuple[int, tuple[int, int, int]]]:
        """Occupied cells intersecting the relevance sphere around any of
        ``points``, each as ``(i, cell)`` with ``i`` the index of the first
        point whose sphere holds it, sorted: the order in which scanning each
        point's sorted neighbourhood in turn first reaches each cell.

        Each occupied column overlapping some point's bounding box is read
        once, and its cells are tested against those points in index order,
        so the cost does not grow with the map."""
        r = self.relevance_radius_m
        res = self.resolution_m
        r2 = r * r
        k = self._bucket_edge
        self._index_new_cells()
        # occupied column -> (index, point, bounding box in cells) of each
        # point whose box overlaps it, in index order
        columns: dict[tuple[int, int], list[tuple]] = {}
        floor = math.floor
        buckets = self._buckets
        for i, (px, py, pz) in enumerate(points):
            # quantize() of the box corners, inlined
            lx, ly, lz = floor((px - r) / res), floor((py - r) / res), floor((pz - r) / res)
            hx, hy, hz = floor((px + r) / res), floor((py + r) / res), floor((pz + r) / res)
            box = (i, px, py, pz, lx, ly, lz, hx, hy, hz)
            for column in product(range(lx // k, hx // k + 1), range(ly // k, hy // k + 1)):
                if column in buckets:  # an empty column has no cell to test
                    near = columns.get(column)
                    if near is None:
                        columns[column] = [box]
                    else:
                        near.append(box)
        out = []
        for column, near in columns.items():
            for cell, x0, x1, y0, y1, z0, z1 in buckets.get(column, ()):
                ix, iy, iz = cell
                for i, px, py, pz, lx, ly, lz, hx, hy, hz in near:
                    if not (lx <= ix <= hx and ly <= iy <= hy and lz <= iz <= hz):
                        continue
                    # squared distance from the point to the cell's box,
                    # summed x, y, z; each axis is 0 when the point lies in
                    # the cell's span
                    dx = px - x0 if px < x0 else px - x1 if px > x1 else 0.0
                    dy = py - y0 if py < y0 else py - y1 if py > y1 else 0.0
                    dz = pz - z0 if pz < z0 else pz - z1 if pz > z1 else 0.0
                    if dx ** 2 + dy ** 2 + dz ** 2 <= r2:
                        out.append((i, cell))
                        break
        out.sort()
        return out

    def _index_new_cells(self) -> None:
        """Bucket the cells added since the last query, each with its box
        bounds ``ix * res, (ix + 1) * res`` and the same for y and z.

        Cells are only ever added (``ingest`` and direct writes to
        ``cells`` alike), so the unindexed ones are the insertion-ordered
        tail of the dict."""
        new = len(self.cells) - self._indexed
        if not new:
            return
        k = self._bucket_edge
        res = self.resolution_m
        for cell in islice(reversed(self.cells), new):
            ix, iy, iz = cell
            self._buckets.setdefault((ix // k, iy // k), []).append((
                cell, ix * res, (ix + 1) * res, iy * res, (iy + 1) * res, iz * res, (iz + 1) * res,
            ))
        self._indexed = len(self.cells)


"""Location-keyed high-confidence object map.

Detected objects are stored under their quantized absolute location, the
one attribute of a static object that independent observers agree on.
Re-sighting a stored object (same cell, same label) updates its confidence
instead of duplicating it; returning cached results pulls nearby
high-confidence objects into the answer.  Only objects at or above the
confidence threshold are ever shared outward.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from enum import Enum
from itertools import islice, product

from .model import DetectedObject, Message, ObjectList


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


def apply_update(rule: UpdateRule, stored: float, observed: float, rate: float) -> float:
    if rule is UpdateRule.VERBATIM:
        value = stored + rate * (stored - observed)
    elif rule is UpdateRule.EMA:
        value = stored + rate * (observed - stored)
    elif rule is UpdateRule.ASCEND:
        value = stored + rate * (1.0 - stored)
    else:  # pragma: no cover
        raise ValueError(f"unknown rule: {rule}")
    return min(1.0, max(0.0, value))


def share_filter(payload: ObjectList, confidence_threshold: float) -> ObjectList:
    """Subset of objects with confidence >= threshold, order preserved.

    The rule for everything map-sourced before it leaves for a vehicle;
    :meth:`ObjectMapStore.augment` applies it as it selects additions.
    """
    return ObjectList(
        tuple(o for o in payload.objects if o.confidence >= confidence_threshold)
    )


class ObjectMapStore:
    """One map per caching node, mutated only inside that node's callbacks.

    ``requests``/``hits`` count lookups made on behalf of message payloads:
    an ingest lookup hits when the cell already holds a same-label object,
    and an augment scan hits when it contributes at least one stored object
    to a returned result.

    ``version`` counts the ingests of object lists, so it changes whenever
    the map may have: a new object, or a boosted confidence (which may also
    lift an object across the threshold without adding a cell).
    ``GenieNode`` reuses an augmented hit answer while the version is
    unchanged.  That relies on ``ingest`` being the only writer of a genie's
    map; a direct write to ``cells`` is not counted, so memoized answers do
    not see it.

    ``boost_records`` holds one ``(time_ms, delta)`` pair per re-sighting,
    in ingest order, where delta is the confidence after minus before.
    """

    def __init__(
        self,
        resolution_m: float = 0.5,
        confidence_threshold: float = 0.6,
        update_rate: float = 0.1,
        update_rule: UpdateRule | str = UpdateRule.EMA,
        relevance_radius_m: float = 15.0,
    ) -> None:
        if resolution_m <= 0:
            raise ValueError("resolution_m must be positive")
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        if not 0.0 < update_rate <= 1.0:
            raise ValueError("update_rate must be in (0, 1]")
        if relevance_radius_m < 0:  # zero is valid: augment adds nothing
            raise ValueError("relevance_radius_m must be non-negative")
        self.resolution_m = resolution_m
        self.confidence_threshold = confidence_threshold
        self.update_rate = update_rate
        self.update_rule = UpdateRule(update_rule)
        self.relevance_radius_m = relevance_radius_m
        self.cells: dict[tuple[int, int, int], list[DetectedObject]] = {}
        # spatial hash over ``cells``: 2-D columns of ``_bucket_edge`` x
        # ``_bucket_edge`` cells, each spanning every z, at least the relevance
        # radius wide, so a query's bounding box overlaps at most 3 x 3
        # columns; z is checked per cell
        self._bucket_edge = max(1, math.ceil(relevance_radius_m / resolution_m))
        self._buckets: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._indexed = 0
        self.requests = 0
        self.hits = 0
        self.version = 0
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
        if not isinstance(message.payload, ObjectList):
            return
        self.version += 1
        for obj in message.payload.objects:
            cell = quantize(obj.location, self.resolution_m)
            self.requests += 1
            stored_list = self.cells.get(cell)
            match_idx = None
            if stored_list is not None:
                for i, stored in enumerate(stored_list):
                    if stored.label == obj.label:
                        match_idx = i
                        break
            if match_idx is None:
                # objects are frozen, so a detector's own object is stored as is
                self.cells.setdefault(cell, []).append(
                    replace(obj, from_map=False) if obj.from_map else obj
                )
                continue
            self.hits += 1
            stored = stored_list[match_idx]
            before = stored.confidence
            after = apply_update(self.update_rule, before, obj.confidence, self.update_rate)
            stored_list[match_idx] = DetectedObject(stored.label, after, stored.location, stored.extent)
            self.boost_records.append((now_ms, after - before))

    # -- read path ------------------------------------------------------------

    def augment(self, payload: ObjectList) -> ObjectList:
        """Append stored high-confidence objects near the payload's objects.

        Scans every cell within the relevance radius of each object; a
        stored object qualifies if its confidence meets the threshold and
        no object with the same (label, cell) is already present.  Appended
        objects are flagged ``from_map``.  The store is never mutated.
        """
        present = {
            (o.label, quantize(o.location, self.resolution_m)) for o in payload.objects
        }
        additions: list[DetectedObject] = []
        for obj in payload.objects:
            found = False
            for cell in self._cells_near(obj.location):
                for stored in self.cells[cell]:
                    if stored.confidence < self.confidence_threshold:
                        continue
                    ident = (stored.label, cell)
                    if ident in present:
                        continue
                    present.add(ident)
                    additions.append(DetectedObject(
                        stored.label, stored.confidence, stored.location, stored.extent,
                        from_map=True,
                    ))
                    found = True
            self.requests += 1
            if found:
                self.hits += 1
        additions.sort(key=DetectedObject.sort_key)
        return ObjectList(payload.objects + tuple(additions))

    def _cells_near(self, point: tuple[float, float, float]) -> list[tuple[int, int, int]]:
        """Occupied cells intersecting the relevance sphere around ``point``,
        in deterministic order.  Only the columns overlapping the sphere's
        bounding box are visited, so the cost does not grow with the map."""
        r = self.relevance_radius_m
        res = self.resolution_m
        px, py, pz = point
        lx, ly, lz = quantize((px - r, py - r, pz - r), res)
        hx, hy, hz = quantize((px + r, py + r, pz + r), res)
        self._index_new_cells()
        k = self._bucket_edge
        keys = product(range(lx // k, hx // k + 1), range(ly // k, hy // k + 1))
        r2 = r * r
        out = []
        for bucket in map(self._buckets.get, keys):
            for cell in bucket or ():
                ix, iy, iz = cell
                if not (lx <= ix <= hx and ly <= iy <= hy and lz <= iz <= hz):
                    continue
                # squared distance from the point to the cell's box, summed
                # x, y, z; each axis is 0 when the point lies in the cell's span
                lo, hi = ix * res, (ix + 1) * res
                dx = px - lo if px < lo else px - hi if px > hi else 0.0
                lo, hi = iy * res, (iy + 1) * res
                dy = py - lo if py < lo else py - hi if py > hi else 0.0
                lo, hi = iz * res, (iz + 1) * res
                dz = pz - lo if pz < lo else pz - hi if pz > hi else 0.0
                if dx ** 2 + dy ** 2 + dz ** 2 <= r2:
                    out.append(cell)
        out.sort()
        return out

    def _index_new_cells(self) -> None:
        """Bucket the cells added since the last query.

        Cells are only ever added (``ingest`` and direct writes to
        ``cells`` alike), so the unindexed ones are the insertion-ordered
        tail of the dict."""
        new = len(self.cells) - self._indexed
        if not new:
            return
        k = self._bucket_edge
        for cell in islice(reversed(self.cells), new):
            self._buckets.setdefault((cell[0] // k, cell[1] // k), []).append(cell)
        self._indexed = len(self.cells)

    # -- export ---------------------------------------------------------------

    def state_digest(self) -> str:
        """Hash of the full store contents; used to prove read-only paths."""
        h = hashlib.sha256()
        for cell in sorted(self.cells):
            h.update(repr(cell).encode())
            for o in sorted(self.cells[cell], key=DetectedObject.sort_key):
                h.update(repr(o.sort_key()).encode())
        return h.hexdigest()


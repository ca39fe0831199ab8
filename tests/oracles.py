"""Reference functions the tests compare the simulator against.

No simulated run calls any of these.  They take from ``geniesim`` only the
value types of ``geniesim.model``, so an expected value built here never
goes through the cache, object-map, harness or workload code it checks
(``test_stdlib_only.py`` holds this module to that).
"""

import hashlib
from dataclasses import replace

from geniesim.model import OBJECT_SORT_KEY, DetectedObject, ImageRef, Message, ObjectList, PayloadKind, content_key


def strip_map_objects(message: Message) -> Message:
    """Copy of ``message`` with map-appended objects removed (no-op for
    non-object payloads)."""
    if not isinstance(message.payload, ObjectList):
        return message
    core = tuple(o for o in message.payload.objects if not o.from_map)
    return replace(message, payload=ObjectList(core))


def _object_token(obj: DetectedObject) -> str:
    loc = ",".join(repr(v) for v in obj.location)
    ext = ",".join(repr(v) for v in obj.extent)
    return f"{obj.label}|{obj.confidence!r}|{loc}|{ext}"


def payload_bytes(payload: ImageRef | ObjectList) -> bytes:
    """Canonical byte serialization of payload content, order-preserving.

    Used for byte-identity checks between detector outputs and cache
    answers.  ``from_map`` objects carry a marker so callers can see
    augmentation, but most comparisons strip them first.
    """
    if isinstance(payload, ImageRef):
        return f"{PayloadKind.IMAGE.value}|{payload.content_id}".encode()
    parts = [PayloadKind.OBJECTS.value]
    for obj in payload.objects:
        parts.append(_object_token(obj) + ("|map" if obj.from_map else ""))
    return "\x1e".join(parts).encode()


def count_repeats(trace, car: str) -> int:
    """Brute-force count of the sightings in ``trace`` whose image id was
    seen earlier by the same car; the oracle for local image reuse."""
    seen: set[str] = set()
    repeats = 0
    for f in trace.by_car.get(car, ()):
        if f.image_id in seen:
            repeats += 1
        seen.add(f.image_id)
    return repeats


def empirical_cdf(values: list[float]) -> list[tuple[float, float]]:
    """Sorted samples paired with their cumulative fraction."""
    ordered = sorted(values)
    return [(v, (i + 1) / len(ordered)) for i, v in enumerate(ordered)]


def state_digest(store) -> str:
    """Hash of an object map's full contents; used to prove read-only paths."""
    h = hashlib.sha256()
    for cell in sorted(store.cells):
        h.update(repr(cell).encode())
        for o in sorted(store.cells[cell], key=OBJECT_SORT_KEY):
            h.update(repr(OBJECT_SORT_KEY(o)).encode())
    return h.hexdigest()


def report_csv_text(report) -> dict[str, str]:
    """The text of ``latency_cdf.csv`` and ``boost.csv`` for a metrics report,
    as a per-row f-string writer builds it: every value through its own
    ``repr``, every running total summed here."""
    cdf = ["latency_ms,cum_fraction"]
    cdf += [f"{v!r},{fraction!r}" for v, fraction in empirical_cdf(report.latencies())]
    boost = ["event_index,time_ms,genie,delta,cumulative_total,cumulative_mean"]
    total = 0.0
    for i, (t, genie, delta) in enumerate(report.boost_events):
        total += delta
        boost.append(f"{i},{t!r},{genie},{delta!r},{total!r},{total / (i + 1)!r}")
    return {name: "".join(line + "\n" for line in lines)
            for name, lines in (("latency_cdf.csv", cdf), ("boost.csv", boost))}


class ListWalkDedup:
    """The duplicate filter with the expiry walk that first lists every
    stale digest at the front of its accept-time table, then deletes them."""

    def __init__(self, window_ms: float) -> None:
        self.window_ms = window_ms
        self._last_accept: dict[str, float] = {}
        self.accepted = 0
        self.discarded = 0

    def offer(self, now: float, message: Message) -> bool:
        digest = content_key(message)
        last = self._last_accept.get(digest)
        if last is not None and now - last <= self.window_ms:
            self.discarded += 1
            return False
        self._last_accept.pop(digest, None)
        self._last_accept[digest] = now
        self.accepted += 1
        stale = []
        for seen, last in self._last_accept.items():
            if now - last <= self.window_ms:
                break
            stale.append(seen)
        for seen in stale:
            del self._last_accept[seen]
        return True

"""Transparent caching interposer for pub/sub services.

A caching node wraps an existing service node, declared by its
``ServiceSpec``, without touching it: the inner node's topics are renamed
to ``-local`` names so only the wrapper talks to it, the wrapper takes over
the original names, and a ``-remote`` variant of each topic is exposed on
the shared edge network so wrappers of identical services can trade cached
results.  A vehicle wrapper hears requests on the original names; an
edge-resident wrapper (role ``REMOTE``, or placed on the edge network
itself) serves only the ``-remote`` surface.  Each wrapper hears ``-local``
answers unless it is a phantom, ``-remote`` answers on the edge, and never
the original answer names, which only it publishes.

Message arrival follows one procedure, decided by one wire table built
with the node: it maps each wire heard to its topic, to whether it carries
requests or ``-local``/``-remote`` answers, and to where a miss on it is
forwarded or an answer on it relayed.  A message on a wire not in it, or
under another topic than its wire's, is malformed and dropped.
An answer is an answer or a stray, a request a hit or a miss.

  answer   its header key names a pending exchange; absorb it into the
           object map, store it as received as the cached value, and relay
           it to every requester waiting on that content key.
  miss     unseen content; forward to the inner node on ``-local`` (never
           for phantoms, which wrap nothing).  Only a vehicle wrapper also
           uploads it on ``-remote``: every edge wrapper hears that one
           upload, so none re-shares it.  Then park the content key as one
           pending record that concurrent repeats queue on.
  hit      known content with a stored answer; augment it from the object
           map and send it straight back to the sender.  The map keeps each
           answer it builds until its next object-list ingest, so a repeat
           hit on an unchanged map does not scan it again, and each
           answer's neighbourhood until it gains a cell, so a hit after an
           ingest that only boosted stored objects rebuilds the answer from
           the cells' current objects without a scan.
  stray    its header key names no pending exchange; dropped, never
           ingested, parked or re-requested.  From the inner node
           (``-local``) it is late: a ``-remote`` answer filled the exchange
           first, or the exchange expired.  Otherwise it is an echo: an
           edge genie hears every answer on the edge and counts other
           exchanges' answers here, and a vehicle genie, which subscribes
           with its car's origin prefix (``attach``), counts second answers
           to its own car's exchanges.

Cache keys are each payload's canonical bytes (``model.content_key``);
headers only identify in-flight exchanges, and one header names one
pending exchange.

Transparency mode (``cache_enabled=False``) runs the same procedure over a
cache DB that never stores: every request is forwarded and parked as its
own pending exchange, which expires on its own clock, and each answer goes
only to its own requester.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

from .model import (
    LOCAL_SUFFIX,
    REMOTE_SUFFIX,
    Header,
    Message,
    ObjectList,
    PayloadKind,
    Topic,
    content_key,
)
from .objectmap import ObjectMapStore
from .simnet import Fabric, SimNode


class EncapsulationError(ValueError):
    pass


class GenieRole(str, Enum):
    LOCAL = "local"  # rides a vehicle, wraps its detector
    REMOTE = "remote"  # edge-resident, wraps an edge detector
    PHANTOM = "phantom"  # no inner node; cache and object map only


@dataclass(frozen=True, slots=True)
class ServiceSpec:
    """Declared surface of a node to be wrapped: what it subscribes to
    (requests) and what it publishes (answers).

    Topics that already carry either wire suffix are rejected: they belong
    to an existing wrapper.  Each name is declared once: a repeat would
    subscribe the wrapper twice, and a name may not be both a request and an
    answer topic, since the wrapper tells the two apart by topic alone.
    """

    name: str
    subscribes: tuple[Topic, ...]
    publishes: tuple[Topic, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for t in self.subscribes + self.publishes:
            if t.name.endswith(LOCAL_SUFFIX) or t.name.endswith(REMOTE_SUFFIX):
                raise EncapsulationError(f"topic {t.name} already carries a wire suffix")
            if t.name in seen:
                raise EncapsulationError(f"{self.name} declares topic {t.name} twice")
            seen.add(t.name)


# -- cache database -------------------------------------------------------------


@dataclass(slots=True)
class CachedValue:
    result: Message | None  # None while pending
    created_ms: float  # park time
    last_hit_ms: float
    waiters: list[Header] | tuple[()] = field(default_factory=list)  # requesters owed an answer


Slot = bytes | tuple[str, int]  # a pending record's key: content key, or header key if not storing


@dataclass(slots=True)
class _TopicMap:
    topic: Topic
    entries: dict[bytes, CachedValue] = field(default_factory=dict)  # what lookups see
    pending: dict[Slot, CachedValue] = field(default_factory=dict)  # in flight, park order
    requests: int = 0
    hits: int = 0
    misses: int = 0


class TopicCacheDB:
    """Per-topic hash maps from content keys to one record each, plus one
    pending index from request header key to the (topic, slot) of its record.
    The DB is built with its topics, one map each, and adds none later.

    Caching parks one record per content key, under that key: repeats coalesce
    on it, and its answer stays in ``entries``.  With ``stores=False``
    (transparency mode) each exchange parks its own record under its header
    key: every lookup misses and each answer wakes only its own requester.

    ``oldest_park`` is a lower bound on the park time of every pending
    record, ``inf`` once a purge finds none: parking lowers it, each purge
    walk resets it, and a fill leaves it, since a bound stays a bound when
    records leave.
    """

    def __init__(self, topics: tuple[Topic, ...], max_entries: int | None = None, stores: bool = True) -> None:
        self._maps = {t.name: _TopicMap(t) for t in topics}
        self._pending: dict[tuple[str, int], tuple[str, Slot]] = {}
        self.max_entries = max_entries
        self.stores = stores
        self.oldest_park = math.inf

    def topic_map(self, name: str) -> _TopicMap:
        return self._maps[name]

    def topic_names(self) -> tuple[str, ...]:
        return tuple(self._maps)

    def pending(self, key: tuple[str, int]) -> tuple[str, Slot] | None:
        """(topic, slot) the header key is queued on, if any; pass both to
        :meth:`fill`."""
        return self._pending.get(key)

    def add_waiter(self, name: str, digest: bytes, header: Header, now: float) -> bool:
        """Queue ``header`` on its pending record, parked at ``now`` if new;
        return whether it joined a request in flight, which only a caching DB
        has.  Each header arrives once (only vehicles upload, and no edge
        wrapper re-shares), so callers queue it without checking
        :meth:`pending`."""
        m = self._maps[name]
        slot = digest if self.stores else header.key
        record = m.pending.get(slot)
        in_flight = record is not None
        if record is None:
            record = m.pending[slot] = CachedValue(None, now, now)
            if now < self.oldest_park:
                self.oldest_park = now
            if self.stores:
                m.entries[digest] = record
        record.waiters.append(header)
        self._pending[header.key] = (name, slot)
        if self.max_entries is not None:
            self._evict(m)
        return in_flight

    def fill(self, name: str, slot: Slot, result: Message) -> list[Header]:
        """Answer the pending record in ``slot`` and detach all its waiters,
        leaving ``()``; a caching DB also keeps ``result`` as the stored
        answer, evicting down to the bound, which may drop this answer at
        once.  A slot no longer pending wakes nobody: the first answer wins."""
        m = self._maps[name]
        record = m.pending.pop(slot, None)
        if record is None:
            return []
        if self.stores:
            record.result = result
            if self.max_entries is not None:
                self._evict(m)
        for w in record.waiters:
            self._pending.pop(w.key, None)
        # a filled record is never pending again, so nothing appends to it
        woken, record.waiters = record.waiters, ()
        return woken

    def purge_expired(self, now: float, ttl_ms: float) -> int:
        """Drop pending records older than the TTL, so a later repeat
        re-requests; returns the number of waiters dropped.

        Callers pass a nondecreasing ``now`` (``GenieNode`` passes the fabric
        clock) and a record never moves once parked, so ``pending`` is in
        park-time order and the walk stops at the first live record.  The
        walk runs only once ``oldest_park`` is past the TTL, by the same
        comparison it makes per record, and leaves the bound at the oldest
        live park time: the cost is O(1) until the oldest pending record is
        past the TTL, then O(expired + topics).
        """
        if now - self.oldest_park <= ttl_ms:
            return 0
        removed = 0
        oldest = math.inf
        for m in self._maps.values():
            stale = []
            for slot, record in m.pending.items():
                if now - record.created_ms <= ttl_ms:
                    oldest = min(oldest, record.created_ms)
                    break
                stale.append(slot)
            for slot in stale:
                for w in m.pending.pop(slot).waiters:
                    self._pending.pop(w.key, None)
                    removed += 1
                m.entries.pop(slot, None)
        self.oldest_park = oldest
        return removed

    def pending_count(self) -> int:
        return len(self._pending)

    def _evict(self, m: _TopicMap) -> None:
        """Drop filled records down to the bound; called only when there is one."""
        while len(m.entries) > self.max_entries:
            # pending entries must survive; min() keeps the first of equal
            # keys, so ties on the last hit go by park order
            victim = min(
                (d for d, e in m.entries.items() if e.result is not None),
                key=lambda d: m.entries[d].last_hit_ms,
                default=None,
            )
            if victim is None:
                return
            del m.entries[victim]


# -- consumer-side duplicate discard ---------------------------------------------


class DedupFilter:
    """Keeps the first message per content key (``model.content_key``, so
    equal topic and content); repeats inside the window are discarded, and
    the same key is accepted again once the window has passed since the
    last accepted copy.

    Callers pass a nondecreasing ``now`` (``ConsumerNode`` passes the fabric
    clock).  ``_last_accept`` is then in accept-time order, and keys whose
    window has passed, which would be accepted again anyway, are dropped
    from its front, in place, on each accept: it holds only keys accepted
    within the last window.  The window is non-negative, so the key just
    accepted is always live and ends the walk.
    """

    def __init__(self, window_ms: float = 1000.0) -> None:
        if not window_ms >= 0:
            raise ValueError(f"dedup window must be non-negative: {window_ms}")
        self.window_ms = window_ms
        self._last_accept: dict[bytes, float] = {}
        self.accepted = 0
        self.discarded = 0

    def offer(self, now: float, message: Message) -> bool:
        digest = content_key(message)
        accepts, window = self._last_accept, self.window_ms
        last = accepts.get(digest)
        if last is not None and now - last <= window:
            self.discarded += 1
            return False
        accepts.pop(digest, None)
        accepts[digest] = now
        self.accepted += 1
        while True:
            seen = next(iter(accepts))
            if now - accepts[seen] <= window:
                return True
            del accepts[seen]


# -- the caching node -------------------------------------------------------------


@dataclass(slots=True)
class GenieCounters:
    requests: int = 0
    hits: int = 0
    misses: int = 0
    local_answers: int = 0
    remote_answers: int = 0
    malformed_dropped: int = 0
    pending_peak: int = 0
    echoes_ignored: int = 0
    expired: int = 0
    late_answers: int = 0


class GenieNode(SimNode):
    """The caching interposer node.

    One per wrapped service (or per phantom assignment).  Every genie has
    an edge network and an object map: it builds its own empty map unless
    it is given one.  All state is owned by the node and mutated only inside
    its event callbacks.
    """

    def __init__(
        self,
        name: str,
        home_network: str,
        spec: ServiceSpec,
        role: GenieRole,
        edge_network: str,
        object_map: ObjectMapStore | None = None,
        *,
        hit_overhead_ms: float = 8.8,
        miss_overhead_ms: float = 1.0,
        answer_overhead_ms: float = 1.0,
        pending_ttl_ms: float = 10_000.0,
        cache_enabled: bool = True,
        max_entries: int | None = None,
    ) -> None:
        super().__init__(name, home_network)
        self.spec = spec
        self.role = role
        self.edge_network = edge_network
        self.object_map = ObjectMapStore() if object_map is None else object_map
        self.hit_overhead_ms = hit_overhead_ms
        self.miss_overhead_ms = miss_overhead_ms
        self.answer_overhead_ms = answer_overhead_ms
        self.pending_ttl_ms = pending_ttl_ms
        self.answers_on_edge = role is GenieRole.REMOTE or home_network == edge_network
        self.db = TopicCacheDB(spec.subscribes, max_entries, stores=cache_enabled)
        self.counters = GenieCounters()
        # answer topic -> the (wire, network) this node answers its requesters on
        self._answer_surfaces = {
            t.name: (t.name + REMOTE_SUFFIX, edge_network) if self.answers_on_edge else (t.name, home_network)
            for t in spec.publishes
        }
        forwards = [] if role is GenieRole.PHANTOM else [(LOCAL_SUFFIX, home_network)]
        if not self.answers_on_edge:
            forwards.append((REMOTE_SUFFIX, edge_network))

        def heard(network: str, t: Topic, flavor: str | None) -> tuple:
            if flavor is None:
                return network, t, None, self.db.topic_map(t.name), [(t.name + w, n) for w, n in forwards]
            relays = flavor == "local" or not self.answers_on_edge
            return network, t, flavor, None, self._answer_surfaces[t.name] if relays else None

        # wire -> (network, topic, answer flavour, request topic map, sends) for
        # each name this node hears, in subscription order.  A request has
        # flavour None and sends the (wire, network) pairs a miss is forwarded
        # on; an answer has topic map None and sends the (wire, network) it is
        # relayed on, or None on an edge-resident node's -remote wire, where
        # every requester heard the answer too
        self._wires: dict[str, tuple] = {}
        if not self.answers_on_edge:
            self._wires |= {t.name: heard(home_network, t, None) for t in spec.subscribes}
        if role is not GenieRole.PHANTOM:
            self._wires |= {t.name + LOCAL_SUFFIX: heard(home_network, t, "local") for t in spec.publishes}
        remote = {t.name + REMOTE_SUFFIX: heard(edge_network, t, "remote") for t in spec.publishes}
        if self.answers_on_edge:
            remote |= {t.name + REMOTE_SUFFIX: heard(edge_network, t, None) for t in spec.subscribes}
        self._wires |= sorted(remote.items())

    # -- wiring ---------------------------------------------------------------

    def subscriptions(self) -> list[tuple[str, str]]:
        """(wire, network) pairs this node listens on, as the module docstring
        lists them: only names some other node publishes, the ``-remote``
        ones sorted.  A vehicle wrapper uploads requests; it does not serve
        other vehicles' uploads, so only an edge-resident wrapper hears
        ``-remote`` requests."""
        return [(wire, network) for wire, (network, *_) in self._wires.items()]

    def attach(self, net: Fabric, origin_prefix: str = "") -> None:
        """Join the fabric and subscribe.  With ``origin_prefix`` (a vehicle
        wrapper's own car) the edge subscriptions deliver only traffic of
        that origin, so other vehicles' answers never reach this node."""
        net.add_node(self, (self.home_network, self.edge_network))
        for topic, network in self.subscriptions():
            prefix = origin_prefix if network == self.edge_network else ""
            net.subscribe(self.name, topic, network, origin_prefix=prefix)

    # -- message handling -------------------------------------------------------

    def expire(self, now: float) -> None:
        """Drop pending requests older than the TTL, counting the dropped
        waiters in ``expired``.  An arrival calls it only once the DB's
        oldest park is past the TTL, and the harness calls it once more when
        the drain ends, so the count does not depend on whether unrelated
        traffic arrived after the TTL."""
        self.counters.expired += self.db.purge_expired(now, self.pending_ttl_ms)

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        heard = self._wires.get(wire_topic)
        # a Message's payload kind matches its topic's, so this checks both
        if heard is None or (message.topic is not heard[1] and message.topic != heard[1]):
            self.counters.malformed_dropped += 1
            return
        _, topic, flavor, tm, sends = heard
        if at - self.db.oldest_park > self.pending_ttl_ms:
            self.expire(at)

        if tm is None:
            pend = self.db.pending(message.header.key)
            if pend is not None:
                self._handle_answer(net, at, flavor, sends, pend, message)
            elif flavor == "local":
                # not ingested: that would change objrr and the boost curve
                self.counters.late_answers += 1
            else:
                self.counters.echoes_ignored += 1
            return

        base = topic.name
        digest = content_key(message)
        self.counters.requests += 1
        tm.requests += 1

        entry = tm.entries.get(digest)
        if entry is not None and entry.result is not None:
            self.counters.hits += 1
            tm.hits += 1
            entry.last_hit_ms = at
            self._serve_hit(net, at, message, entry)
            return

        self.counters.misses += 1
        tm.misses += 1
        in_flight = self.db.add_waiter(base, digest, message.header, at)
        self.counters.pending_peak = max(self.counters.pending_peak, self.db.pending_count())
        if in_flight:
            return  # queued on the request in flight instead of re-broadcasting
        sent = at + self.miss_overhead_ms
        for wire, network in sends:
            net.publish(self.name, message, wire, network, sent)

    def _handle_answer(
        self, net: Fabric, at: float, flavor: str, relay: tuple[str, str] | None, pend: tuple[str, Slot],
        message: Message,
    ) -> None:
        if flavor == "remote":
            self.counters.remote_answers += 1
        else:
            self.counters.local_answers += 1
        self.object_map.ingest(message, at)
        woken = self.db.fill(*pend, message)
        if relay is None:
            return  # peers that heard the same broadcast we did need no relay from us
        wire, network = relay
        name, publish = self.name, net.publish
        topic, payload, sent = message.topic, message.payload, at + self.answer_overhead_ms
        for waiter in woken:
            publish(name, Message(waiter, topic, payload, "answer"), wire, network, sent)

    def _serve_hit(self, net: Fabric, at: float, request: Message, entry: CachedValue) -> None:
        result = entry.result
        payload = result.payload
        if isinstance(payload, ObjectList):
            # augment adds only objects at or above the map's share threshold
            payload = self.object_map.augment(payload)
        out = Message(request.header, result.topic, payload, "hit")
        wire, network = self._answer_surfaces[result.topic.name]
        net.publish(self.name, out, wire, network, at + self.hit_overhead_ms)

    # -- export ---------------------------------------------------------------------

    def counters_dict(self) -> dict:
        """The genie's ``summary.json`` record: its counters, per-topic
        counts, ``reuse`` as (hits, requests) over image topics and over the
        object map, and the map's size."""
        maps = [self.db.topic_map(name) for name in sorted(self.db.topic_names())]
        per_topic = {
            m.topic.name: {"requests": m.requests, "hits": m.hits, "misses": m.misses, "entries": len(m.entries)}
            for m in maps
        }
        images = [m for m in maps if m.topic.kind is PayloadKind.IMAGE]
        image = (sum(m.hits for m in images), sum(m.requests for m in images))
        store = self.object_map
        return {
            "role": self.role.value, **asdict(self.counters), "topics": per_topic,
            "reuse": {"image": image, "object": (store.hits, store.requests)},
            "object_map_size": len(store),
        }

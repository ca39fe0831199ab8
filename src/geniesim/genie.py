"""Transparent caching interposer for pub/sub services.

A caching node wraps an existing service node without touching it: the
inner node's topics are rewritten to ``-local`` names so only the wrapper
talks to it, the wrapper takes over the original names, and a ``-remote``
variant of each topic is exposed on the shared edge network so wrappers of
identical services can trade cached results.

Message arrival follows one procedure:

  answer   the header matches a request we forwarded; absorb it into the
           object map, store it as the cached value, and relay it to every
           requester waiting on that content digest.
  miss     unseen content; forward to the inner node on ``-local`` (never
           for phantoms, which wrap nothing) and to peers on ``-remote``,
           then park the digest as one pending record that concurrent
           repeats queue on instead of re-broadcasting.
  hit      known content with a stored answer; augment it from the object
           map and send it straight back to the sender.  The augmented answer
           is kept on the entry and reused while the map's version is
           unchanged, so a repeat hit on an unchanged map does not augment.
  stray    a message on an answer-only topic that answers no pending
           exchange; dropped, never ingested, parked or re-requested.  From
           the inner node (``-local``) it is late: a ``-remote`` answer
           filled the exchange first, or the exchange expired.  Otherwise it
           is an echo: an edge genie hears every answer on the edge and
           counts other exchanges' answers here, and a vehicle genie, which
           subscribes with its car's origin prefix (``attach``), counts
           second answers to its own car's exchanges.

A request whose header is already queued (a peer edge re-sharing the same
upload) counts as a request and a miss but is not queued again, so each
exchange is answered once.  Cache keys are content digests; headers only
identify in-flight exchanges, and one header names one pending exchange.

Transparency mode (``cache_enabled=False``) runs the same procedure over a
cache DB that never stores: every request is forwarded and each answer goes
only to its own requester.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    kind_of,
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
    """Declared surface of a node to be wrapped: what it subscribes to and
    what it publishes."""

    name: str
    subscribes: tuple[Topic, ...]
    publishes: tuple[Topic, ...]


@dataclass(frozen=True)
class Encapsulation:
    """Wiring plan produced by :func:`encapsulate`.

    ``routes`` pairs each request topic with the answer topic the inner
    node produces for it, which is how an incoming message is recognized
    as the answer to an earlier query.
    """

    subscribed: tuple[Topic, ...]
    published: tuple[Topic, ...]
    rewritten: dict[str, str]
    routes: dict[str, Topic]

    def topics(self) -> tuple[Topic, ...]:
        return self.subscribed + self.published


def encapsulate(spec: ServiceSpec) -> Encapsulation:
    """Build the wiring plan for wrapping ``spec``.

    Every declared topic gets exactly one ``-local`` rewrite (its ``-remote``
    name is derived by :meth:`GenieNode.subscriptions`).  Topics that already
    carry either suffix are rejected: they belong to an existing wrapper.
    """
    topics = spec.subscribes + spec.publishes
    seen: dict[str, Topic] = {}
    for t in topics:
        if t.name.endswith(LOCAL_SUFFIX) or t.name.endswith(REMOTE_SUFFIX):
            raise EncapsulationError(f"topic {t.name} is already rewritten")
        if t.name in seen and seen[t.name] != t:
            raise EncapsulationError(f"conflicting declarations for topic {t.name}")
        seen[t.name] = t

    if not spec.publishes:
        routes: dict[str, Topic] = {}
    elif len(spec.publishes) == 1:
        routes = {t.name: spec.publishes[0] for t in spec.subscribes}
    elif len(spec.publishes) == len(spec.subscribes):
        routes = {s.name: p for s, p in zip(spec.subscribes, spec.publishes)}
    else:
        raise EncapsulationError(
            f"cannot pair {len(spec.subscribes)} inputs with "
            f"{len(spec.publishes)} outputs for {spec.name}"
        )

    names = list(dict.fromkeys(t.name for t in topics))
    return Encapsulation(
        subscribed=spec.subscribes,
        published=spec.publishes,
        rewritten={n: n + LOCAL_SUFFIX for n in names},
        routes=routes,
    )


# -- cache database -------------------------------------------------------------


@dataclass(slots=True)
class CachedValue:
    result: Message | None  # None while pending
    created_ms: float  # park time
    last_hit_ms: float
    # (map version, augmented payload, requests delta, hits delta) of the last
    # hit answer built from ``result``; see ``GenieNode._serve_hit``
    augmented: tuple[int, ObjectList, int, int] | None = None
    waiters: list[Header] = field(default_factory=list)  # requesters owed an answer


@dataclass(slots=True)
class _TopicMap:
    topic: Topic
    entries: dict[str, CachedValue] = field(default_factory=dict)  # what lookups see
    pending: dict[str, CachedValue] = field(default_factory=dict)  # in flight, park order
    requests: int = 0
    hits: int = 0
    misses: int = 0


class TopicCacheDB:
    """Per-topic hash maps from content digests to one record each, plus one
    pending index from request header key to (topic, digest).

    With ``stores=False`` (transparency mode) no record enters ``entries``:
    every lookup misses, no repeat coalesces, and each answer wakes only the
    requester whose header key it carries.
    """

    def __init__(self, max_entries: int | None = None, stores: bool = True) -> None:
        self._maps: dict[str, _TopicMap] = {}
        self._pending: dict[tuple[str, int], tuple[str, str]] = {}
        self.max_entries = max_entries
        self.stores = stores

    def ensure_topic(self, topic: Topic) -> None:
        """Create the hash map for a never-seen topic; duplicate builds are
        no-ops so concurrent first-messages are legal."""
        if topic.name not in self._maps:
            self._maps[topic.name] = _TopicMap(topic)

    def topic_map(self, name: str) -> _TopicMap:
        return self._maps[name]

    def topic_names(self) -> tuple[str, ...]:
        return tuple(self._maps)

    def lookup(self, name: str, digest: str) -> CachedValue | None:
        return self._maps[name].entries.get(digest)

    def pending(self, key: tuple[str, int]) -> tuple[str, str] | None:
        """(topic, digest) the header key is queued on, if any."""
        return self._pending.get(key)

    def add_waiter(self, name: str, digest: str, header: Header, now: float) -> bool:
        """Queue ``header`` on the digest; return whether it joined a request
        in flight.  Without storage nothing joins: a repeat re-parks the
        digest at the back with a new clock, earlier waiters included.  A
        header key is queued at most once (callers check :meth:`pending`)."""
        m = self._maps[name]
        record = m.pending.get(digest)
        in_flight = record is not None and self.stores
        if record is None:
            record = m.pending[digest] = CachedValue(None, now, now)
            if self.stores:
                m.entries[digest] = record
        elif not in_flight:
            record.created_ms = now
            m.pending[digest] = m.pending.pop(digest)
        record.waiters.append(header)
        self._pending[header.key] = (name, digest)
        self._evict(m)
        return in_flight

    def fill(self, name: str, digest: str, result: Message) -> list[Header]:
        """Store ``result`` on the pending digest and detach its waiters (a
        digest no longer pending wakes nobody: the first answer wins).  Without
        storage only the waiter whose header key ``result`` carries wakes."""
        m = self._maps[name]
        record = m.pending.get(digest)
        if record is None:
            return []
        if self.stores:
            record.result = result
            woken, record.waiters = record.waiters, []
        else:
            woken = [w for w in record.waiters if w.key == result.header.key]
            record.waiters = [w for w in record.waiters if w.key != result.header.key]
        if not record.waiters:
            del m.pending[digest]
        for w in woken:
            self._pending.pop(w.key, None)
        return woken

    def purge_expired(self, now: float, ttl_ms: float) -> int:
        """Drop pending requests older than the TTL with their records, so a
        later repeat re-requests; returns the number of waiters dropped.

        Callers pass a nondecreasing ``now`` (``GenieNode`` passes the fabric
        clock) and a re-park moves a digest to the back, so ``pending`` is in
        park-time order and the walk stops at the first live record: the
        cost is O(expired + topics), not O(pending).
        """
        removed = 0
        for m in self._maps.values():
            stale = []
            for digest, record in m.pending.items():
                if now - record.created_ms <= ttl_ms:
                    break
                stale.append(digest)
            for digest in stale:
                for w in m.pending.pop(digest).waiters:
                    self._pending.pop(w.key, None)
                    removed += 1
                m.entries.pop(digest, None)
        return removed

    def pending_count(self) -> int:
        return len(self._pending)

    def entry_count(self, name: str) -> int:
        return len(self._maps[name].entries)

    def _evict(self, m: _TopicMap) -> None:
        if self.max_entries is None:
            return
        while len(m.entries) > self.max_entries:
            victim = None
            for digest, entry in m.entries.items():
                if entry.result is None:  # pending entries must survive
                    continue
                if victim is None or entry.last_hit_ms < m.entries[victim].last_hit_ms:
                    victim = digest
            if victim is None:
                return
            del m.entries[victim]


# -- consumer-side duplicate discard ---------------------------------------------


class DedupFilter:
    """Keeps the first message per content digest; repeats inside the window
    are discarded, and the same digest is accepted again once the window has
    passed since the last accepted copy.

    Callers pass a nondecreasing ``now`` (``ConsumerNode`` passes the fabric
    clock).  ``_last_accept`` is then in accept-time order, and digests whose
    window has passed, which would be accepted again anyway, are dropped
    from its front: it holds only digests accepted within the last window.
    """

    def __init__(self, window_ms: float = 1000.0) -> None:
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

    One per wrapped service (or per phantom assignment).  All state is
    owned by the node and mutated only inside its event callbacks.
    """

    def __init__(
        self,
        name: str,
        home_network: str,
        encapsulation: Encapsulation,
        role: GenieRole,
        edge_network: str | None = None,
        object_map: ObjectMapStore | None = None,
        *,
        hit_overhead_ms: float = 8.8,
        miss_overhead_ms: float = 1.0,
        answer_overhead_ms: float = 1.0,
        pending_ttl_ms: float = 10_000.0,
        cache_enabled: bool = True,
        max_entries: int | None = None,
        answers_on: str | None = None,
    ) -> None:
        super().__init__(name, home_network)
        self.encapsulation = encapsulation
        self.role = role
        self.edge_network = edge_network
        self.object_map = object_map
        self.hit_overhead_ms = hit_overhead_ms
        self.miss_overhead_ms = miss_overhead_ms
        self.answer_overhead_ms = answer_overhead_ms
        self.pending_ttl_ms = pending_ttl_ms
        if answers_on is None:
            answers_on = "edge" if role is GenieRole.REMOTE else "home"
        if answers_on not in ("home", "edge"):
            raise ValueError(f"answers_on must be 'home' or 'edge', got {answers_on!r}")
        self.answers_on = answers_on
        self.db = TopicCacheDB(max_entries, stores=cache_enabled)
        self.counters = GenieCounters()
        self._topics = {t.name: t for t in encapsulation.topics()}
        self._answer_names = {t.name for t in encapsulation.routes.values()}
        # answer topics that are never requests: unmatched traffic on them
        # answers an exchange that is not pending, and is not work for us
        self._answer_only = self._answer_names - {t.name for t in encapsulation.subscribed}

    # -- wiring ---------------------------------------------------------------

    def subscriptions(self) -> list[tuple[str, str]]:
        """(topic, network) pairs this node listens on.

        The wrapper stands in for the inner node on the original names and
        hears its answers on the ``-local`` names.  On the edge it hears
        answer traffic always, and request traffic only when it serves the
        edge side (a vehicle wrapper uploads requests, it does not serve
        other vehicles' uploads).
        """
        subs = [(t.name, self.home_network) for t in self.encapsulation.topics()]
        subs += [
            (self.encapsulation.rewritten[n], self.home_network) for n in self._answer_names
        ]
        if self.edge_network:
            remote_answer = {n + REMOTE_SUFFIX for n in self._answer_names}
            if self.answers_on == "edge":
                remote_answer.update(
                    t.name + REMOTE_SUFFIX for t in self.encapsulation.subscribed
                )
            subs += [(n, self.edge_network) for n in sorted(remote_answer)]
        return subs

    def attach(self, net: Fabric, origin_prefix: str = "") -> None:
        """Join the fabric and subscribe.  With ``origin_prefix`` (a vehicle
        wrapper's own car) the edge subscriptions deliver only traffic of
        that origin, so other vehicles' answers never reach this node."""
        networks = (self.home_network,) + (
            (self.edge_network,) if self.edge_network else ()
        )
        net.add_node(self, networks)
        for topic, network in self.subscriptions():
            prefix = origin_prefix if network == self.edge_network else ""
            net.subscribe(self.name, topic, network, origin_prefix=prefix)

    # -- message handling -------------------------------------------------------

    def expire(self, now: float) -> None:
        """Drop pending requests older than the TTL, counting the dropped
        waiters in ``expired``.  Arrivals call it, and the harness calls it
        once more when the drain ends, so the count does not depend on
        whether unrelated traffic arrived after the TTL."""
        self.counters.expired += self.db.purge_expired(now, self.pending_ttl_ms)

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        base, flavor = self._split(wire_topic)
        topic = self._topics.get(base)
        if topic is None or kind_of(message.payload) is not topic.kind:
            self.counters.malformed_dropped += 1
            return
        self.expire(at)

        pend = self._pending_answered_by(message)
        if pend is not None:
            self._handle_answer(net, at, flavor, pend, message)
            return
        if base in self._answer_only:
            # not ingested: that would change objrr and the boost curve
            if flavor == "local":
                self.counters.late_answers += 1
            else:
                self.counters.echoes_ignored += 1
            return

        self.db.ensure_topic(topic)
        tm = self.db.topic_map(base)
        digest = content_key(message, base)
        self.counters.requests += 1
        tm.requests += 1

        entry = self.db.lookup(base, digest)
        if entry is not None and entry.result is not None:
            self.counters.hits += 1
            tm.hits += 1
            entry.last_hit_ms = at
            self._serve_hit(net, at, message, entry)
            return

        self.counters.misses += 1
        tm.misses += 1
        if self.db.pending(message.header.key) is not None:
            # the same exchange again (a peer edge's re-share): one waiter,
            # one answer
            return
        in_flight = self.db.add_waiter(base, digest, message.header, at)
        self.counters.pending_peak = max(self.counters.pending_peak, self.db.pending_count())
        if in_flight:
            return  # queued on the request in flight instead of re-broadcasting
        if self.role is not GenieRole.PHANTOM:
            net.publish(
                self.name,
                message,
                wire_topic=base + LOCAL_SUFFIX,
                network=self.home_network,
                at=at + self.miss_overhead_ms,
            )
        if self.edge_network:
            net.publish(
                self.name,
                message,
                wire_topic=base + REMOTE_SUFFIX,
                network=self.edge_network,
                at=at + self.miss_overhead_ms,
            )

    def _handle_answer(
        self, net: Fabric, at: float, flavor: str, pend: tuple[str, str], message: Message
    ) -> None:
        if flavor == "remote":
            self.counters.remote_answers += 1
        else:
            self.counters.local_answers += 1
        if self.object_map is not None:
            self.object_map.ingest(message, at)
        topic_name, digest = pend
        woken = self.db.fill(topic_name, digest, replace(message, via=None))
        # peers that heard the same broadcast we did need no relay from us
        if self.answers_on == "edge" and flavor == "remote":
            return
        wire, network = self._answer_surface(message.topic.name)
        for waiter in woken:
            out = replace(message, header=waiter, via="answer")
            net.publish(self.name, out, wire_topic=wire, network=network, at=at + self.answer_overhead_ms)

    def _serve_hit(self, net: Fabric, at: float, request: Message, entry: CachedValue) -> None:
        result = entry.result
        payload = result.payload
        store = self.object_map
        if isinstance(payload, ObjectList) and store is not None:
            if entry.augmented is None or entry.augmented[0] != store.version:
                requests, hits = store.requests, store.hits
                # augment adds only objects at or above the map's share threshold
                augmented = store.augment(payload)
                # additions are all from_map, so the digest is the stored result's
                object.__setattr__(augmented, "_digest", payload._digest)
                requests, hits = store.requests - requests, store.hits - hits
                entry.augmented = (store.version, augmented, requests, hits)
            else:
                # same map, same answer: count the lookups augment would have made
                _, augmented, requests, hits = entry.augmented
                store.requests += requests
                store.hits += hits
            payload = augmented
        out = replace(result, header=request.header, payload=payload, via="hit")
        wire, network = self._answer_surface(result.topic.name)
        net.publish(self.name, out, wire_topic=wire, network=network, at=at + self.hit_overhead_ms)

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _split(wire_topic: str) -> tuple[str, str]:
        if wire_topic.endswith(LOCAL_SUFFIX):
            return wire_topic[: -len(LOCAL_SUFFIX)], "local"
        if wire_topic.endswith(REMOTE_SUFFIX):
            return wire_topic[: -len(REMOTE_SUFFIX)], "remote"
        return wire_topic, "original"

    def _pending_answered_by(self, message: Message) -> tuple[str, str] | None:
        """The pending request this message answers, if any.

        A message only counts as an answer when its payload kind matches
        the answer kind routed for the pending topic; when request and
        answer kinds coincide, identical content is the request echoing
        back, not an answer.
        """
        pend = self.db.pending(message.header.key)
        if pend is None:
            return None
        name, digest = pend
        kind = kind_of(message.payload)
        route = self.encapsulation.routes.get(name)
        if route is None or route.kind is not kind:
            return None
        if self.db.topic_map(name).topic.kind is kind and content_key(message, name) == digest:
            return None
        return pend

    def _answer_surface(self, answer_topic: str) -> tuple[str, str]:
        if self.answers_on == "edge":
            return answer_topic + REMOTE_SUFFIX, self.edge_network
        return answer_topic, self.home_network

    # -- export ---------------------------------------------------------------------

    def reuse_counts(self, kind: PayloadKind) -> tuple[int, int]:
        """(hits, requests) summed over cached topics of the given kind."""
        hits = requests = 0
        for name in self.db.topic_names():
            m = self.db.topic_map(name)
            if m.topic.kind is kind:
                hits += m.hits
                requests += m.requests
        return hits, requests

    def counters_dict(self) -> dict:
        c = self.counters
        per_topic = {
            name: {
                "requests": self.db.topic_map(name).requests,
                "hits": self.db.topic_map(name).hits,
                "misses": self.db.topic_map(name).misses,
                "entries": self.db.entry_count(name),
            }
            for name in sorted(self.db.topic_names())
        }
        return {
            "role": self.role.value,
            "requests": c.requests,
            "hits": c.hits,
            "misses": c.misses,
            "local_answers": c.local_answers,
            "remote_answers": c.remote_answers,
            "malformed_dropped": c.malformed_dropped,
            "pending_peak": c.pending_peak,
            "echoes_ignored": c.echoes_ignored,
            "expired": c.expired,
            "late_answers": c.late_answers,
            "topics": per_topic,
        }

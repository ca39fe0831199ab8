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
           then park the digest with an empty value so concurrent repeats
           coalesce instead of re-broadcasting.
  hit      known content with a stored answer; augment it from the object
           map and send it straight back to the sender.

Cache keys are content digests; headers only identify in-flight exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

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
from .objectmap import ObjectMapStore, share_filter
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

    inner_name: str | None
    subscribed: tuple[Topic, ...]
    published: tuple[Topic, ...]
    rewritten: dict[str, str]
    exposed_remote: tuple[str, ...]
    routes: dict[str, Topic]

    def topics(self) -> tuple[Topic, ...]:
        return self.subscribed + self.published


def encapsulate(spec: ServiceSpec) -> Encapsulation:
    """Build the wiring plan for wrapping ``spec``.

    Every declared topic gets exactly one ``-local`` rewrite and one
    ``-remote`` exposure.  Topics that already carry either suffix are
    rejected: they belong to an existing wrapper.
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
        inner_name=spec.name,
        subscribed=spec.subscribes,
        published=spec.publishes,
        rewritten={n: n + LOCAL_SUFFIX for n in names},
        exposed_remote=tuple(n + REMOTE_SUFFIX for n in names),
        routes=routes,
    )


# -- cache database -------------------------------------------------------------


@dataclass(slots=True)
class CachedValue:
    result: Message | None
    created_ms: float
    last_hit_ms: float


@dataclass(slots=True)
class _TopicMap:
    topic: Topic
    entries: dict[str, CachedValue] = field(default_factory=dict)
    waiters: dict[str, list[Header]] = field(default_factory=dict)  # digest -> requesters
    pending_by_key: dict[tuple[str, int], str] = field(default_factory=dict)
    pending_created: dict[str, float] = field(default_factory=dict)
    requests: int = 0
    hits: int = 0
    misses: int = 0


class TopicCacheDB:
    """Per-topic hash maps from content digests to cached answers, plus the
    pending side table keyed by request header."""

    def __init__(self, max_entries: int | None = None) -> None:
        self._maps: dict[str, _TopicMap] = {}
        self.max_entries = max_entries

    def ensure_topic(self, topic: Topic) -> None:
        """Create the hash map for a never-seen topic; duplicate builds are
        no-ops so concurrent first-messages are legal."""
        if topic.name not in self._maps:
            self._maps[topic.name] = _TopicMap(topic)

    def has_topic(self, name: str) -> bool:
        return name in self._maps

    def topic_map(self, name: str) -> _TopicMap:
        return self._maps[name]

    def topic_names(self) -> tuple[str, ...]:
        return tuple(self._maps)

    def lookup(self, name: str, digest: str) -> CachedValue | None:
        return self._maps[name].entries.get(digest)

    def add_waiter(self, name: str, digest: str, header: Header, now: float) -> None:
        m = self._maps[name]
        if digest not in m.entries:
            m.entries[digest] = CachedValue(None, now, now)
            # transparency mode drops pending entries: re-park at the back
            m.pending_created.pop(digest, None)
            m.pending_created[digest] = now
        m.waiters.setdefault(digest, []).append(header)
        m.pending_by_key[header.key] = digest
        self._evict(m)

    def fill(
        self, name: str, digest: str, result: Message | None, now: float, only: Header | None = None
    ) -> list[Header]:
        """Store ``result`` for the digest (first answer wins) and detach
        waiters.  With ``only`` set, just that requester is detached; the
        digest stays pending for the rest."""
        m = self._maps[name]
        entry = m.entries.get(digest)
        if result is not None and entry is not None and entry.result is None:
            entry.result = result
        if only is not None:
            woken = [w for w in m.waiters.get(digest, []) if w.key == only.key]
            m.waiters[digest] = [w for w in m.waiters.get(digest, []) if w.key != only.key]
            if not m.waiters[digest]:
                del m.waiters[digest]
                m.pending_created.pop(digest, None)
        else:
            woken = m.waiters.pop(digest, [])
            m.pending_created.pop(digest, None)
        for w in woken:
            m.pending_by_key.pop(w.key, None)
        return woken

    def purge_expired(self, now: float, ttl_ms: float) -> int:
        """Drop pending requests older than the TTL; an entry still empty
        after its waiters expire is removed so a later repeat re-requests.

        Callers pass a nondecreasing ``now`` (``GenieNode`` passes the fabric
        clock).  Digests are parked at that clock and a re-park moves them
        to the back, so the insertion order of ``pending_created`` is
        creation order and the walk stops at the first live entry: the
        cost is O(expired + topics), not O(pending).
        """
        removed = 0
        for m in self._maps.values():
            stale = []
            for digest, t0 in m.pending_created.items():
                if now - t0 <= ttl_ms:
                    break
                stale.append(digest)
            for digest in stale:
                for w in m.waiters.pop(digest, []):
                    m.pending_by_key.pop(w.key, None)
                    removed += 1
                m.pending_created.pop(digest, None)
                entry = m.entries.get(digest)
                if entry is not None and entry.result is None:
                    del m.entries[digest]
        return removed

    def pending_count(self) -> int:
        return sum(len(m.pending_by_key) for m in self._maps.values())

    def entry_count(self, name: str | None = None) -> int:
        if name is not None:
            return len(self._maps[name].entries)
        return sum(len(m.entries) for m in self._maps.values())

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
        for seen, t in self._last_accept.items():
            if now - t <= self.window_ms:
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


def _always(message: Message, base_topic: str) -> bool:
    return True


class GenieNode(SimNode):
    """The caching interposer node.

    One per wrapped service (or per phantom assignment).  All state is
    owned by the node and mutated only inside its event callbacks.
    ``remote_publish_predicate`` decides which misses are shared on the
    ``-remote`` topics; the default shares every miss.
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
        remote_publish_predicate: Callable[[Message, str], bool] | None = None,
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
        self.cache_enabled = cache_enabled
        self.remote_publish_predicate = remote_publish_predicate or _always
        if answers_on is None:
            answers_on = "edge" if role is GenieRole.REMOTE else "home"
        if answers_on not in ("home", "edge"):
            raise ValueError(f"answers_on must be 'home' or 'edge', got {answers_on!r}")
        self.answers_on = answers_on
        self.db = TopicCacheDB(max_entries=max_entries)
        self.counters = GenieCounters()
        self._topics = {t.name: t for t in encapsulation.topics()}
        self._answer_names = {t.name for t in encapsulation.routes.values()}

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

    def attach(self, net: Fabric) -> None:
        networks = (self.home_network,) + (
            (self.edge_network,) if self.edge_network else ()
        )
        net.add_node(self, networks)
        for topic, network in self.subscriptions():
            net.subscribe(self.name, topic, network)

    # -- message handling -------------------------------------------------------

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        base, flavor = self._split(wire_topic)
        topic = self._topics.get(base)
        if topic is None or kind_of(message.payload) is not topic.kind:
            self.counters.malformed_dropped += 1
            return
        self.db.purge_expired(at, self.pending_ttl_ms)

        pend = self._pending_answered_by(message)
        if pend is not None:
            self._handle_answer(net, at, flavor, pend, message)
            return

        self.db.ensure_topic(topic)
        tm = self.db.topic_map(base)
        digest = content_key(message, base)
        self.counters.requests += 1
        tm.requests += 1

        entry = self.db.lookup(base, digest) if self.cache_enabled else None
        if entry is not None and entry.result is not None:
            self.counters.hits += 1
            tm.hits += 1
            entry.last_hit_ms = at
            self._serve_hit(net, at, message, entry)
            return

        self.counters.misses += 1
        tm.misses += 1
        if entry is not None:
            # request already in flight: queue on it instead of re-broadcasting
            self.db.add_waiter(base, digest, message.header, at)
            self._note_pending()
            return
        if not self.cache_enabled and message.header.key in tm.pending_by_key:
            # transparency mode keeps no entries, so echoes of an exchange we
            # already forwarded must converge on the pending key instead
            return

        self.db.add_waiter(base, digest, message.header, at)
        if not self.cache_enabled:
            tm.entries.pop(digest, None)  # transparency mode stores nothing
        self._note_pending()
        if self.role is not GenieRole.PHANTOM:
            net.publish(
                self.name,
                message,
                wire_topic=base + LOCAL_SUFFIX,
                network=self.home_network,
                at=at + self.miss_overhead_ms,
            )
        if self.edge_network and self.remote_publish_predicate(message, base):
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
        stored = replace(message, via=None) if self.cache_enabled else None
        only = None if self.cache_enabled else self._waiter_for(topic_name, message.header)
        woken = self.db.fill(topic_name, digest, stored, at, only=only)
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
        if isinstance(payload, ObjectList) and self.object_map is not None:
            augmented = self.object_map.augment(payload)
            additions = augmented.objects[len(payload.objects):]
            if self.answers_on == "edge":
                additions = share_filter(
                    ObjectList(additions), self.object_map.confidence_threshold
                ).objects
            payload = ObjectList(payload.objects + additions)
            # additions are all from_map, so the digest is the stored result's
            object.__setattr__(payload, "_digest", result.payload._digest)
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
        kind = kind_of(message.payload)
        for name in self.db.topic_names():
            m = self.db.topic_map(name)
            digest = m.pending_by_key.get(message.header.key)
            if digest is None:
                continue
            route = self.encapsulation.routes.get(name)
            if route is None or route.kind is not kind:
                continue
            if m.topic.kind is kind and content_key(message, name) == digest:
                continue
            return name, digest
        return None

    def _waiter_for(self, topic_name: str, header: Header) -> Header | None:
        m = self.db.topic_map(topic_name)
        digest = m.pending_by_key.get(header.key)
        if digest is None:
            return None
        for w in m.waiters.get(digest, []):
            if w.key == header.key:
                return w
        return None

    def _answer_surface(self, answer_topic: str) -> tuple[str, str]:
        if self.answers_on == "edge":
            return answer_topic + REMOTE_SUFFIX, self.edge_network
        return answer_topic, self.home_network

    def _note_pending(self) -> None:
        self.counters.pending_peak = max(self.counters.pending_peak, self.db.pending_count())

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
            "topics": per_topic,
        }

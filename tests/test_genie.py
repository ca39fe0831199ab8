import math
import random
from dataclasses import replace

import pytest

from geniesim.genie import (
    CachedValue,
    DedupFilter,
    EncapsulationError,
    GenieNode,
    GenieRole,
    ServiceSpec,
    TopicCacheDB,
)
from geniesim.model import Header, Message, ObjectList, PayloadKind, Topic, content_key
from geniesim.objectmap import ObjectMapStore
from geniesim.simnet import Fabric, SimNode
from conftest import IMAGE, OBJECTS, count_scans, image_message, obj, objects_message


def detector_spec() -> ServiceSpec:
    return ServiceSpec("detector", subscribes=(IMAGE,), publishes=(OBJECTS,))


class TestEncapsulate:
    def test_empty_spec_is_valid_noop(self):
        genie = GenieNode("genie", "VN1", ServiceSpec("idle", (), ()), GenieRole.LOCAL, "EDGE")
        assert genie.subscriptions() == []

    def test_already_rewritten_rejected(self):
        with pytest.raises(EncapsulationError):
            ServiceSpec("detector", (Topic("/image-local", PayloadKind.IMAGE),), (OBJECTS,))
        with pytest.raises(EncapsulationError):
            ServiceSpec("detector", (IMAGE,), (Topic("/objects-remote", PayloadKind.OBJECTS),))

    def test_topic_both_subscribed_and_published_rejected(self):
        # the wrapper tells answers from requests by topic alone
        with pytest.raises(EncapsulationError, match="/image"):
            ServiceSpec("echo", (IMAGE,), (IMAGE,))
        with pytest.raises(EncapsulationError, match="/objects"):
            ServiceSpec("chain", (IMAGE, OBJECTS), (OBJECTS,))

    def test_repeated_topic_rejected(self):
        # a repeat would subscribe the wrapper to the same name twice
        with pytest.raises(EncapsulationError, match="/image"):
            ServiceSpec("d", (IMAGE, IMAGE), (OBJECTS,))
        with pytest.raises(EncapsulationError, match="/objects"):
            ServiceSpec("d", (IMAGE,), (OBJECTS, OBJECTS))

    def test_two_request_service_answers_each_requester(self):
        image2 = Topic("/image2", PayloadKind.IMAGE)
        objects2 = Topic("/objects2", PayloadKind.OBJECTS)
        net = Fabric(seed=0)
        net.add_network("VN1")
        net.add_node(SimNode("camera", "VN1"))
        inner = _AnswerSink("inner", "VN1")
        net.add_node(inner)
        consumers = {}
        for topic in ("/objects", "/objects2"):
            consumers[topic] = _AnswerSink(f"consumer{topic}", "VN1")
            net.add_node(consumers[topic])
            net.subscribe(consumers[topic].name, topic, "VN1")
        for wire in ("/image-local", "/image2-local"):
            net.subscribe("inner", wire, "VN1")
        spec = ServiceSpec("pair", (IMAGE, image2), (OBJECTS, objects2))
        genie = GenieNode("genie", "VN1", spec, GenieRole.LOCAL, "EDGE")
        genie.attach(net)
        front = image_message("f0", origin="car1/front")
        rear = replace(image_message("f0", origin="car1/rear"), topic=image2)
        net.publish("camera", front, wire_topic="/image", network="VN1", at=0.0)
        net.publish("camera", rear, wire_topic="/image2", network="VN1", at=0.0)
        net.run_until(50.0)
        assert sorted(w for _, w, _ in inner.received) == ["/image-local", "/image2-local"]
        # the inner node answers the rear request first, each on its own topic
        answers = {
            "/objects2": Message(rear.header, objects2, ObjectList((obj("car", 0.7, (1, 0, 0)),))),
            "/objects": Message(front.header, OBJECTS, ObjectList((obj("bike", 0.8, (2, 0, 0)),))),
        }
        for topic, answer in answers.items():
            net.publish("inner", answer, wire_topic=topic + "-local", network="VN1", at=50.0)
        net.run_until(200.0)
        for topic, answer in answers.items():
            [(_, wire, relayed)] = consumers[topic].received
            assert wire == topic and relayed.via == "answer"
            assert relayed.header == answer.header and relayed.payload == answer.payload
        assert genie.counters.local_answers == 2 and genie.db.pending_count() == 0


class TestTopicCacheDB:
    def test_topics_keep_independent_key_spaces(self):
        db = TopicCacheDB((IMAGE, Topic("/image2", PayloadKind.IMAGE)))
        msg_a = image_message("same-content")
        db.add_waiter("/image", content_key(msg_a, "/image"), Header("a", 0, 0.0), 0.0)
        db.fill("/image", content_key(msg_a, "/image"), objects_message(()))
        # same digest string under the second topic is still a miss
        assert db.lookup("/image2", content_key(msg_a, "/image")) is None

    def test_pending_expiry_removes_empty_entry(self):
        db = TopicCacheDB((IMAGE,))
        db.add_waiter("/image", "d1", Header("n", 0, 0.0), 0.0)
        assert db.pending_count() == 1
        db.purge_expired(now=5001.0, ttl_ms=5000.0)
        assert db.pending_count() == 0
        assert db.entry_count("/image") == 0

    def test_fill_detaches_all_waiters(self):
        db = TopicCacheDB((IMAGE,))
        h1, h2 = Header("a", 0, 0.0), Header("a", 1, 0.0)
        db.add_waiter("/image", "d1", h1, 0.0)
        db.add_waiter("/image", "d1", h2, 0.0)
        woken = db.fill("/image", "d1", objects_message(()))
        assert {w.key for w in woken} == {("a", 0), ("a", 1)}
        assert db.pending_count() == 0

    def test_filled_record_holds_no_waiters_and_still_hits(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        request = image_message("f0")
        net.publish("camera", request, wire_topic="/image", network="VN1", at=0.0)
        net.run_until(10.0)
        net.publish("inner", objects_message(()), wire_topic="/objects-local", network="VN1", at=10.0)
        net.run_until(20.0)
        record = genie.db.lookup("/image", content_key(request, "/image"))
        assert record.waiters == () and record.result is not None
        net.publish("camera", image_message("f0", seq=1, stamp=30.0), wire_topic="/image", network="VN1", at=30.0)
        net.run_until(100.0)
        assert genie.counters.hits == 1 and record.waiters == ()

    def test_first_answer_wins(self):
        db = TopicCacheDB((IMAGE,))
        db.add_waiter("/image", "d1", Header("a", 0, 0.0), 0.0)
        first = objects_message((obj("car", 0.5, (0.2, 0.2, 0.2)),))
        db.fill("/image", "d1", first)
        db.fill("/image", "d1", objects_message(()))
        assert db.lookup("/image", "d1").result is first

    def test_lru_bound_evicts_least_recently_hit(self):
        db = TopicCacheDB((IMAGE,), max_entries=2)
        for i, digest in enumerate(("d1", "d2", "d3")):
            db.add_waiter("/image", digest, Header("a", i, 0.0), float(i))
            db.fill("/image", digest, objects_message((), seq=i))
            if digest == "d1":
                db.lookup("/image", "d1").last_hit_ms = 100.0  # keep d1 warm
        assert db.entry_count("/image") == 2
        assert db.lookup("/image", "d2") is None
        assert db.lookup("/image", "d1") is not None

    def test_lru_tie_evicts_the_first_parked(self):
        db = TopicCacheDB((IMAGE,), max_entries=2)
        for i, digest in enumerate(("d1", "d2")):  # parked together, never hit
            db.add_waiter("/image", digest, Header("a", i, 0.0), 5.0)
            db.fill("/image", digest, objects_message((), seq=i))
        db.add_waiter("/image", "d3", Header("a", 2, 0.0), 6.0)  # pending, survives
        assert db.lookup("/image", "d1") is None
        assert db.lookup("/image", "d2") is not None
        assert db.lookup("/image", "d3").result is None

    def test_fill_can_evict_the_answer_it_just_stored(self):
        db = TopicCacheDB((IMAGE,), max_entries=1)
        db.add_waiter("/image", "d1", Header("a", 0, 0.0), 0.0)
        db.add_waiter("/image", "d2", Header("a", 1, 0.0), 1.0)
        db.add_waiter("/image", "d2", Header("a", 2, 0.0), 1.0)
        # d1 is still pending, so the only stored answer is the LRU victim
        woken = db.fill("/image", "d2", objects_message((), seq=1))
        assert [w.seq for w in woken] == [1, 2]
        assert db.lookup("/image", "d2") is None
        assert db.entry_count("/image") == 1
        db.fill("/image", "d1", objects_message((), seq=0))
        assert db.entry_count("/image") == 1
        assert db.lookup("/image", "d1").result is not None

    @pytest.mark.parametrize("stores", [True, False])
    def test_repeat_joins_the_request_in_flight_only_with_storage(self, stores):
        db = TopicCacheDB((IMAGE,), stores=stores)
        assert db.add_waiter("/image", "d1", Header("a", 0, 0.0), 0.0) is False
        assert db.add_waiter("/image", "d1", Header("a", 1, 0.0), 1.0) is stores
        assert db.pending_count() == 2

    def test_unstored_answer_is_not_looked_up(self):
        db = TopicCacheDB((IMAGE,), stores=False)
        db.add_waiter("/image", "d1", Header("car1/camera", 0, 0.0), 0.0)
        pend = db.pending(("car1/camera", 0))
        assert [w.seq for w in db.fill(*pend, objects_message(()))] == [0]
        assert db.lookup("/image", "d1") is None
        assert db.entry_count("/image") == 0


class TestPendingExpiryOrder:
    """Pending order in transparency mode, where each exchange parks its own
    record and keeps its own clock."""

    TTL = 5000.0

    @staticmethod
    def db():
        return TopicCacheDB((IMAGE,), stores=False)

    @staticmethod
    def park(db, digest, seq, now):
        db.add_waiter("/image", digest, Header("a", seq, 0.0), now)

    @staticmethod
    def fill(db, seq):
        return db.fill(*db.pending(("a", seq)), objects_message((), origin="a", seq=seq))

    @staticmethod
    def parked(db):
        """The seq of each pending record's requester, in park order."""
        return [w.seq for r in db.topic_map("/image").pending.values() for w in r.waiters]

    def test_purge_stops_at_first_live_entry(self):
        db = self.db()
        for t in (0, 1, 2):
            self.park(db, f"d{t}", t, float(t))
        assert db.purge_expired(now=self.TTL + 1.5, ttl_ms=self.TTL) == 2
        assert db.pending_count() == 1
        assert self.parked(db) == [2]

    def test_repeat_after_fill_parks_at_the_back(self):
        db = self.db()
        self.park(db, "d1", 0, 0.0)
        self.park(db, "d2", 1, 1.0)
        assert self.fill(db, 0)
        self.park(db, "d1", 2, 3.0)
        assert self.parked(db) == [1, 2]
        assert db.purge_expired(now=self.TTL + 2.0, ttl_ms=self.TTL) == 1
        assert db.pending_count() == 1
        assert db.purge_expired(now=self.TTL + 3.5, ttl_ms=self.TTL) == 1
        assert db.pending_count() == 0

    def test_repeat_on_one_digest_keeps_the_earlier_clock(self):
        db = self.db()
        self.park(db, "d1", 0, 0.0)
        self.park(db, "d2", 1, 1.0)
        self.park(db, "d1", 2, 2.0)
        assert self.parked(db) == [0, 1, 2]
        assert db.purge_expired(now=self.TTL + 1.5, ttl_ms=self.TTL) == 2
        assert self.parked(db) == [2]

    def test_fill_leaves_park_order_intact(self):
        db = self.db()
        self.park(db, "d1", 0, 0.0)
        self.park(db, "d2", 1, 1.0)
        self.park(db, "d1", 2, 2.0)
        assert [w.key for w in self.fill(db, 0)] == [("a", 0)]
        assert self.parked(db) == [1, 2]
        assert db.purge_expired(now=self.TTL + 0.5, ttl_ms=self.TTL) == 0
        assert db.purge_expired(now=self.TTL + 1.5, ttl_ms=self.TTL) == 1
        assert self.parked(db) == [2]


class TestDedupFilter:
    def test_duplicate_discarded_remote_first(self):
        dedup = DedupFilter(window_ms=1000.0)
        payload = objects_message((obj("car", 0.7, (0.2, 0.2, 0.2)),))
        from dataclasses import replace

        remote_copy = replace(payload, via="answer")
        local_copy = replace(payload, via="answer", header=Header("car1/camera", 0, 0.0))
        assert dedup.offer(10.0, remote_copy) is True
        assert dedup.offer(12.0, local_copy) is False
        assert (dedup.accepted, dedup.discarded) == (1, 1)

    def test_distinct_digests_both_delivered(self):
        dedup = DedupFilter(window_ms=1000.0)
        assert dedup.offer(0.0, objects_message((obj("car", 0.7, (0.2, 0.2, 0.2)),)))
        assert dedup.offer(0.0, objects_message((obj("car", 0.8, (0.2, 0.2, 0.2)),)))

    def test_window_boundary(self):
        dedup = DedupFilter(window_ms=1000.0)
        msg = objects_message((obj("car", 0.7, (0.2, 0.2, 0.2)),))
        assert dedup.offer(0.0, msg) is True
        assert dedup.offer(999.0, msg) is False
        assert dedup.offer(1001.0, msg) is True  # window expired, delivered again


class TestDedupBound:
    WINDOW = 1000.0

    def test_matches_unbounded_reference_and_holds_only_the_last_window(self):
        rng = random.Random(3)
        messages = [objects_message((obj("car", 0.5 + i / 20, (0.2, 0.2, 0.2)),)) for i in range(8)]
        dedup = DedupFilter(window_ms=self.WINDOW)
        reference: dict[str, float] = {}  # the filter without eviction
        now = 0.0
        last_accept = 0.0
        for _ in range(2000):
            now += rng.choice([0.0, 0.0, 1.0, 50.0, 400.0, self.WINDOW, 1500.0])
            msg = rng.choice(messages)
            seen = reference.get(content_key(msg))
            expected = seen is None or now - seen > self.WINDOW
            assert dedup.offer(now, msg) is expected
            if expected:
                reference[content_key(msg)] = last_accept = now
            held = dedup._last_accept
            assert all(last_accept - t <= self.WINDOW for t in held.values())
            assert list(held.values()) == sorted(held.values())  # accept-time order
            assert all(reference[d] == t for d, t in held.items())
        assert dedup.accepted + dedup.discarded == 2000
        assert dedup.discarded > 0


class _AnswerSink(SimNode):
    def __init__(self, name, home):
        super().__init__(name, home)
        self.received = []

    def on_message(self, net, at, network, wire_topic, message):
        self.received.append((at, wire_topic, message))


class _EdgeSpy(SimNode):
    def __init__(self, name):
        super().__init__(name, "EDGE")
        self.received = []

    def on_message(self, net, at, network, wire_topic, message):
        self.received.append((at, wire_topic, message))


def wire_local_genie(**genie_kwargs):
    """One car network with a genie, plus spies for the inner node's wires
    and the edge side."""
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_network("EDGE")
    net.add_node(SimNode("camera", "VN1"))
    inner = _AnswerSink("inner", "VN1")  # stands in for the wrapped detector
    net.add_node(inner)
    net.subscribe("inner", "/image-local", "VN1")
    consumer = _AnswerSink("consumer", "VN1")
    net.add_node(consumer)
    net.subscribe("consumer", "/objects", "VN1")
    spy = _EdgeSpy("edge-spy")
    net.add_node(spy)
    net.subscribe("edge-spy", "/image-remote", "EDGE")
    genie = GenieNode(
        "genie", "VN1", detector_spec(), GenieRole.LOCAL,
        edge_network="EDGE", **genie_kwargs,
    )
    genie.attach(net)
    return net, genie, inner, consumer, spy


class TestArrivalProcedure:
    def test_miss_forwards_local_and_remote_and_parks_digest(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        msg = image_message("f0")
        net.publish("camera", msg, wire_topic="/image", network="VN1", at=0.0)
        net.run_until(100.0)
        assert len(inner.received) == 1  # shared with the wrapped node
        assert len(spy.received) == 1  # shared with remote peers
        assert genie.counters.misses == 1
        assert genie.db.entry_count("/image") == 1
        assert genie.db.lookup("/image", content_key(msg, "/image")).result is None

    def test_miss_answer_relayed_to_consumer_and_cached(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        msg = image_message("f0")
        net.publish("camera", msg, wire_topic="/image", network="VN1", at=0.0)
        net.run_until(50.0)
        answer = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),))
        net.publish("inner", answer, wire_topic="/objects-local", network="VN1", at=50.0)
        net.run_until(200.0)
        assert len(consumer.received) == 1
        assert consumer.received[0][2].via == "answer"
        assert genie.counters.local_answers == 1
        assert genie.db.lookup("/image", content_key(msg, "/image")).result is not None

    def test_hit_publishes_stored_result_without_recompute(self):
        net, genie, inner, consumer, spy = wire_local_genie(
            object_map=ObjectMapStore(), hit_overhead_ms=8.8
        )
        net.publish("camera", image_message("f0", seq=0), wire_topic="/image", network="VN1", at=0.0)
        net.run_until(50.0)
        answer = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),))
        net.publish("inner", answer, wire_topic="/objects-local", network="VN1", at=50.0)
        net.run_until(100.0)
        # the same content again, new header
        net.publish("camera", image_message("f0", seq=1, stamp=100.0), wire_topic="/image", network="VN1", at=100.0)
        net.run_until(200.0)
        assert genie.counters.hits == 1
        assert len(inner.received) == 1  # no second -local delivery
        assert len(spy.received) == 1  # no second upload
        hit_at, _, hit_msg = consumer.received[-1]
        assert hit_at == pytest.approx(108.8)
        assert hit_msg.via == "hit"
        assert hit_msg.header.seq == 1  # re-headed to the requesting exchange

    def test_hit_from_a_relayed_answer_leaves_as_a_hit(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        net.add_node(SimNode("edge", "EDGE"))
        net.publish("camera", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
        net.run_until(10.0)
        relayed = replace(objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),)), via="answer")
        net.publish("edge", relayed, wire_topic="/objects-remote", network="EDGE", at=10.0)
        net.run_until(20.0)
        repeat = image_message("f0", seq=1, stamp=30.0)
        net.publish("camera", repeat, wire_topic="/image", network="VN1", at=30.0)
        net.run_until(100.0)
        assert genie.db.lookup("/image", content_key(repeat, "/image")).result is relayed  # stored as received
        _, wire, hit = consumer.received[-1]
        assert (wire, hit.via, hit.header, hit.topic) == ("/objects", "hit", repeat.header, OBJECTS)
        assert hit.payload == relayed.payload

    def test_unmatched_local_answer_is_late_and_dropped(self, monkeypatch):
        net, genie, inner, consumer, spy = wire_local_genie()
        net.publish("camera", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
        net.run_until(10.0)
        published = spy_publishes(net, genie.name, monkeypatch)
        stray = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),), seq=77)
        net.publish("inner", stray, wire_topic="/objects-local", network="VN1", at=10.0)
        net.run_until(100.0)
        assert genie.counters.late_answers == 1
        assert genie.counters.requests == 1
        assert published == []  # neither relayed downstream nor re-requested
        assert "/objects" not in genie.db.topic_names()
        assert genie.db.pending_count() == 1  # the f0 request, untouched

    def test_inflight_coalescing_answers_both_requesters(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        net.publish("camera", image_message("f0", seq=0), wire_topic="/image", network="VN1", at=0.0)
        net.publish("camera", image_message("f0", seq=1, stamp=5.0), wire_topic="/image", network="VN1", at=5.0)
        net.run_until(20.0)
        assert len(inner.received) == 1  # second request does not re-broadcast
        assert len(spy.received) == 1
        assert genie.counters.misses == 2  # in-flight repeat counts as a miss
        answer = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),), seq=0)
        net.publish("inner", answer, wire_topic="/objects-local", network="VN1", at=20.0)
        net.run_until(100.0)
        assert {m.header.seq for _, _, m in consumer.received} == {0, 1}

    def test_pending_ttl_allows_retry(self):
        net, genie, inner, consumer, spy = wire_local_genie(pending_ttl_ms=1000.0)
        net.publish("camera", image_message("f0", seq=0), wire_topic="/image", network="VN1", at=0.0)
        net.run_until(10.0)
        net.publish(
            "camera", image_message("f0", seq=1, stamp=2000.0), wire_topic="/image", network="VN1", at=2000.0
        )
        net.run_until(3000.0)
        assert len(inner.received) == 2  # expired request is re-asked

    def test_expired_waiters_are_counted(self):
        net, genie, inner, consumer, spy = wire_local_genie(pending_ttl_ms=1000.0)
        for seq in range(2):
            net.publish(
                "camera", image_message("f0", seq=seq, stamp=float(seq)),
                wire_topic="/image", network="VN1", at=float(seq),
            )
        net.run_until(10.0)
        assert genie.counters.expired == 0
        net.publish("camera", image_message("f1", seq=2, stamp=2000.0), wire_topic="/image", network="VN1", at=2000.0)
        net.run_until(3000.0)
        assert genie.counters.expired == 2  # both coalesced waiters on f0
        assert genie.counters_dict()["expired"] == 2

    def test_arrivals_walk_the_pending_records_only_once_one_is_due(self, monkeypatch):
        net, genie, inner, consumer, spy = wire_local_genie(pending_ttl_ms=1000.0)
        walks = []
        purge = TopicCacheDB.purge_expired

        def spy_purge(db, now, ttl_ms):
            walks.append(now)
            return purge(db, now, ttl_ms)

        monkeypatch.setattr(TopicCacheDB, "purge_expired", spy_purge)

        def arrive(content, seq, t):
            net.publish("camera", image_message(content, seq=seq, stamp=t), wire_topic="/image", network="VN1", at=t)
            net.run_until(t)

        arrive("f0", 0, 0.0)
        arrive("f1", 1, 500.0)
        arrive("f1", 2, 999.0)  # coalesces on f1
        arrive("f2", 3, 1000.0)  # exactly f0's park + TTL: not yet past it
        assert walks == []
        assert genie.db.pending(("car1/camera", 0)) is not None
        past_due = math.nextafter(1000.0, math.inf)
        arrive("f3", 4, past_due)
        assert walks == [past_due]
        assert genie.counters.expired == 1
        assert genie.db.pending(("car1/camera", 0)) is None
        arrive("f0", 5, 1001.0)  # f1, parked at 500, bounds the next walk
        net.run_until(1100.0)
        assert walks == [past_due]
        assert genie.counters.expired == 1
        # the repeat of f0 after its expiry misses and is forwarded again
        assert genie.counters.misses == 6
        assert [m.payload.content_id for _, _, m in inner.received] == ["f0", "f1", "f2", "f3", "f0"]

    def test_malformed_message_dropped_with_diagnostic(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        wrong = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),))
        net.publish("camera", wrong, wire_topic="/image", network="VN1", at=0.0)  # objects on an image wire
        net.run_until(10.0)
        assert genie.counters.malformed_dropped == 1
        assert genie.counters.requests == 0
        unknown = image_message("f0")
        net.publish("camera", unknown, wire_topic="/unheard-of", network="VN1", at=10.0)
        net.run_until(20.0)
        assert genie.counters.malformed_dropped == 1  # not even subscribed; nothing happens

    def test_counter_consistency(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        for seq, content in enumerate(["a", "b", "a", "a", "c"]):
            net.publish(
                "camera",
                image_message(content, seq=seq, stamp=float(seq * 1000)),
                wire_topic="/image",
                network="VN1",
                at=float(seq * 1000),
            )
            net.run_until(seq * 1000 + 10.0)
            answer = objects_message((obj("car", 0.7, (3.2 + seq, 0.2, 0.2)),), seq=seq)
            net.publish("inner", answer, wire_topic="/objects-local", network="VN1", at=seq * 1000 + 10.0)
            net.run_until(seq * 1000 + 500.0)
        c = genie.counters
        assert c.hits + c.misses == c.requests
        assert c.pending_peak >= 1

    def test_cache_growth_matches_distinct_digests(self):
        net, genie, inner, consumer, spy = wire_local_genie()
        contents = ["a", "b", "a", "c", "b", "a"]
        for seq, content in enumerate(contents):
            net.publish(
                "camera",
                image_message(content, seq=seq, stamp=float(seq * 1000)),
                wire_topic="/image",
                network="VN1",
                at=float(seq * 1000),
            )
            net.run_until(seq * 1000 + 999.0)
        assert genie.db.entry_count("/image") == len(set(contents))


def wire_remote_genie(**genie_kwargs):
    """An edge-resident genie with its own device network, plus spies on
    the edge broadcast surface and on the inner detector wire."""
    net = Fabric(seed=0)
    net.add_network("E1")
    net.add_network("EDGE")
    inner = _AnswerSink("edge-detector", "E1")
    net.add_node(inner)
    net.subscribe("edge-detector", "/image-local", "E1")
    requester = _EdgeSpy("car-side")  # a car genie's view of the edge
    net.add_node(requester)
    net.subscribe("car-side", "/objects-remote", "EDGE")
    peer = _EdgeSpy("peer-spy")
    net.add_node(peer)
    net.subscribe("peer-spy", "/image-remote", "EDGE")
    genie = GenieNode(
        "edge-genie", "E1", detector_spec(), GenieRole.REMOTE,
        edge_network="EDGE", **genie_kwargs,
    )
    genie.attach(net)
    return net, genie, inner, requester, peer


class TestRemoteRole:
    def test_uploaded_miss_reaches_edge_detector(self):
        net, genie, inner, requester, peer = wire_remote_genie()
        net.publish("car-side", image_message("f0"), wire_topic="/image-remote", network="EDGE", at=0.0)
        net.run_until(100.0)
        assert len(inner.received) == 1
        reshared = [
            r for r in net.deliveries
            if r.frm == "edge-genie" and r.to == "peer-spy" and r.topic == "/image-remote"
        ]
        assert reshared == []  # every edge peer heard the car's upload itself

    def test_hit_served_on_edge_surface_reheaded_to_requester(self):
        net, genie, inner, requester, peer = wire_remote_genie(object_map=ObjectMapStore())
        net.publish("car-side", image_message("f0", seq=0), wire_topic="/image-remote", network="EDGE", at=0.0)
        net.run_until(10.0)
        answer = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),), seq=0)
        net.publish("edge-detector", answer, wire_topic="/objects-local", network="E1", at=10.0)
        net.run_until(50.0)
        assert len(requester.received) == 1  # the relayed first answer
        net.publish(
            "car-side",
            image_message("f0", origin="car2/camera", seq=4, stamp=100.0),
            wire_topic="/image-remote", network="EDGE", at=100.0,
        )
        net.run_until(200.0)
        assert genie.counters.hits == 1
        assert len(inner.received) == 1  # no recompute for the second car
        _, wire, served = requester.received[-1]
        assert wire == "/objects-remote"
        assert served.header.key == ("car2/camera", 4)
        assert served.via == "hit"

    def test_broadcast_learned_answer_not_reemitted(self):
        # two remote peers hold the same pending; when one's answer is
        # broadcast, the other fills its cache silently
        net, genie, inner, requester, peer = wire_remote_genie()
        request = image_message("f0", seq=0)
        net.publish("car-side", request, wire_topic="/image-remote", network="EDGE", at=0.0)
        net.run_until(10.0)
        answer = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),), seq=0)
        net.publish("car-side", answer, wire_topic="/objects-remote", network="EDGE", at=10.0)
        net.run_until(100.0)
        assert genie.counters.remote_answers == 1
        from geniesim.model import content_key as ck

        assert genie.db.lookup("/image", ck(request, "/image")).result is not None
        assert requester.received == []  # no duplicate echo back onto the edge


class TestEchoIgnored:
    """Another exchange's answer heard on the edge is not a request."""

    @pytest.mark.parametrize("wire", [wire_local_genie, wire_remote_genie])
    def test_unmatched_remote_answer_is_counted_and_dropped(self, wire, monkeypatch):
        net, genie, *_ = wire()
        net.add_node(SimNode("other-car", "EDGE"))
        if genie.role is GenieRole.LOCAL:
            net.publish("camera", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
        else:
            net.publish("other-car", image_message("f0"), wire_topic="/image-remote", network="EDGE", at=0.0)
        net.run_until(10.0)
        requests, pending = genie.counters.requests, genie.db.pending_count()
        assert pending == 1
        published = []
        publish = net.publish

        def spy(sender, *args, **kwargs):
            if sender == genie.name:
                published.append(args)
            return publish(sender, *args, **kwargs)

        monkeypatch.setattr(net, "publish", spy)
        echo = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),), origin="car2/camera", seq=5)
        net.publish("other-car", echo, wire_topic="/objects-remote", network="EDGE", at=10.0)
        net.run_until(100.0)
        assert genie.counters.requests == requests
        assert published == []
        assert genie.db.pending_count() == pending
        assert genie.counters.echoes_ignored == 1
        assert genie.counters_dict()["echoes_ignored"] == 1

    def test_disjoint_fleet_traffic_stays_linear(self):
        from geniesim.harness import ScenarioConfig, SynthSpec, build_genie_scenario, run_built_scenario

        frames = 20
        car_requests, per_frame = set(), {}
        for cars in (1, 2, 4, 8):
            config = ScenarioConfig(
                n_cars=cars,
                edge_devices=("AGX",),
                synth=SynthSpec(route="disjoint", n_frames=frames, overlap_fraction=0.0),
                seed=7,
            )
            scenario = build_genie_scenario(config)
            report = run_built_scenario(scenario, "DG")
            assert report.completed == cars * frames
            car_requests.update(
                g.counters.requests for n, g in scenario.genies.items() if n.startswith("car")
            )
            per_frame[cars] = scenario.fabric.delivered / (cars * frames)
        assert len(car_requests) == 1  # a car's work does not grow with the fleet
        assert per_frame[8] <= 3 * per_frame[1]


class TestAddressedEdgeAnswers:
    """A car genie hears on the edge only the answers to its own car's
    requests, so fabric traffic per frame does not grow with the fleet."""

    @staticmethod
    def run(route: str, cars: int, frames: int, edges: tuple[str, ...]):
        from geniesim.harness import ScenarioConfig, SynthSpec, build_scenario, run_built_scenario

        overlap = 0.0 if route == "disjoint" else 0.5
        config = ScenarioConfig(
            n_cars=cars,
            edge_devices=edges,
            synth=SynthSpec(route=route, n_frames=frames, overlap_fraction=overlap),
            seed=7,
        )
        scenario = build_scenario(config)
        run_built_scenario(scenario, "DG")
        return scenario, scenario.fabric.delivered / (cars * frames)

    def test_disjoint_traffic_per_frame_is_flat(self):
        per_frame = {}
        for cars in (1, 2, 4, 8):
            scenario, per_frame[cars] = self.run("disjoint", cars, 20, ("AGX",))
            for name, genie in scenario.genies.items():
                if name.startswith("car"):
                    assert genie.counters.echoes_ignored == 0, (cars, name)
        assert len(set(per_frame.values())) == 1, per_frame

    def test_corridor_traffic_per_frame_does_not_grow(self):
        edges = ("AGX", "A4500")
        _, one = self.run("shared-corridor", 1, 40, edges)
        _, eight = self.run("shared-corridor", 8, 40, edges)
        assert eight <= one


class TestHitDigest:
    """A hit answer carries the stored result's digest over; under any name
    it must equal the digest of a freshly built copy of the served objects."""

    NAMES = (OBJECTS.name, "/car1/objects")  # the genie's base, a consumer's own
    NEARBY = (obj("pole", 0.9, (5.2, 0.2, 0.2)), obj("bin", 0.3, (6.2, 0.2, 0.2)))

    def serve(self, wire, memo_name, map_objects=None):
        store = None
        if map_objects is not None:
            store = ObjectMapStore(confidence_threshold=0.6)
            store.ingest(objects_message(map_objects), 0.0)
        net, genie, _, sink, _ = wire(object_map=store)
        result = objects_message(
            (obj("car", 0.7, (3.2, 0.2, 0.2)), obj("sign", 0.8, (4.2, 1.2, 0.2), from_map=True))
        )
        content_key(result, memo_name)
        genie._serve_hit(net, 0.0, image_message("f0", seq=3), CachedValue(result, 0.0, 0.0))
        net.run_until(100.0)
        return result, sink.received[-1][2]

    @staticmethod
    def assert_fresh_digests(served):
        fresh = replace(served, payload=replace(served.payload))
        assert fresh.payload._digest is None
        for name in TestHitDigest.NAMES:
            assert content_key(served, name) == content_key(fresh, name)

    @pytest.mark.parametrize("memo_name", NAMES)
    @pytest.mark.parametrize(
        "case", ["plain", "empty map", "augmented", "edge share-filtered"]
    )
    def test_hit_answer_digest_equals_fresh_copy(self, case, memo_name):
        wire = wire_remote_genie if case == "edge share-filtered" else wire_local_genie
        map_objects = {"plain": None, "empty map": ()}.get(case, self.NEARBY)
        result, served = self.serve(wire, memo_name, map_objects)
        assert served.via == "hit"
        added = len(served.payload.objects) - len(result.payload.objects)
        assert added == (1 if map_objects else 0)  # the pole; the bin is below threshold
        if map_objects is not None:
            assert served.payload is not result.payload
            assert served.payload._digest == result.payload._digest  # carried over
        self.assert_fresh_digests(served)

    def test_memo_under_another_name_is_never_returned(self):
        result, served = self.serve(wire_local_genie, "/other", self.NEARBY)
        memo_name, memo_digest = served.payload._digest
        assert memo_name == "/other"
        for name in self.NAMES:
            assert content_key(served, name) != memo_digest
        self.assert_fresh_digests(served)
        forged = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),))
        object.__setattr__(forged.payload, "_digest", ("/other", "forged"))
        assert content_key(forged, OBJECTS.name) != "forged"


class TestHitMemo:
    """A hit answer is augmented once per object-map state: repeat hits on an
    unchanged map get the map's kept answer, with its lookup counts."""

    NEARBY = TestHitDigest.NEARBY
    RESULT = (obj("car", 0.7, (3.2, 0.2, 0.2)),)

    def wire(self, monkeypatch, map_objects=NEARBY, **store_kwargs):
        store = ObjectMapStore(confidence_threshold=0.6, **store_kwargs)
        store.ingest(objects_message(map_objects), 0.0)
        net, genie, _, sink, _ = wire_local_genie(object_map=store)
        result = objects_message(self.RESULT)
        content_key(result)
        return net, genie, sink, store, CachedValue(result, 0.0, 0.0), count_scans(store, monkeypatch)

    @staticmethod
    def hit(net, genie, sink, entry, seq):
        t = 100.0 * seq
        genie._serve_hit(net, t, image_message("f0", seq=seq, stamp=t), entry)
        net.run_until(t + 50.0)
        return sink.received[-1][2].payload

    @staticmethod
    def labels(payload):
        return sorted(o.label for o in payload.objects)

    def test_repeat_hit_on_unchanged_map_augments_once(self, monkeypatch):
        net, genie, sink, store, entry, scans = self.wire(monkeypatch)
        twin = ObjectMapStore(confidence_threshold=0.6)
        twin.ingest(objects_message(self.NEARBY), 0.0)
        first = self.hit(net, genie, sink, entry, 1)
        second = self.hit(net, genie, sink, entry, 2)
        assert len(scans) == 1
        assert first == second == twin.augment(entry.result.payload)
        assert self.labels(first) == ["car", "pole"]
        for served in (first, second):
            assert served._digest == entry.result.payload._digest
        twin.augment(replace(entry.result.payload))  # an equal payload: scanned afresh
        assert (store.requests, store.hits) == (twin.requests, twin.hits)

    def test_ingest_of_nearby_object_shows_in_next_hit(self, monkeypatch):
        net, genie, sink, store, entry, scans = self.wire(monkeypatch)
        assert "tree" not in self.labels(self.hit(net, genie, sink, entry, 1))
        store.ingest(objects_message((obj("tree", 0.6, (3.7, 0.2, 0.2)),)), 1.0)  # at threshold
        assert self.labels(self.hit(net, genie, sink, entry, 2)) == ["car", "pole", "tree"]
        assert len(scans) == 2

    def test_boost_only_ingest_invalidates_memo(self, monkeypatch):
        below = (obj("bin", 0.55, (4.2, 0.2, 0.2)),)
        net, genie, sink, store, entry, scans = self.wire(monkeypatch, below, update_rate=0.5)
        assert self.labels(self.hit(net, genie, sink, entry, 1)) == ["car"]
        cells = len(store.cells)
        store.ingest(objects_message((obj("bin", 0.95, (4.2, 0.2, 0.2)),)), 1.0)
        assert len(store.cells) == cells  # a boost, no new cell
        assert [o.confidence >= 0.6 for objs in store.cells.values() for o in objs] == [True]
        assert self.labels(self.hit(net, genie, sink, entry, 2)) == ["bin", "car"]
        assert len(scans) == 2


class TestSubscriptions:
    ROLES = pytest.mark.parametrize(
        "home, role, expected",
        [
            ("VN-car1", GenieRole.LOCAL, [
                ("/image", "VN-car1"), ("/objects-local", "VN-car1"), ("/objects-remote", "EDGE"),
            ]),
            ("E1", GenieRole.REMOTE, [
                ("/objects-local", "E1"), ("/image-remote", "EDGE"), ("/objects-remote", "EDGE"),
            ]),
            ("VN-car1", GenieRole.PHANTOM, [("/image", "VN-car1"), ("/objects-remote", "EDGE")]),
            ("EDGE", GenieRole.PHANTOM, [("/image-remote", "EDGE"), ("/objects-remote", "EDGE")]),
        ],
        ids=["vehicle-local", "edge-remote", "vehicle-phantom", "edge-phantom"],
    )

    @ROLES
    def test_only_names_another_node_publishes(self, home, role, expected):
        # no wrapper hears its own answer names; phantoms have no -local
        # answers; edge-resident wrappers serve only the -remote surface
        genie = GenieNode("genie", home, detector_spec(), role, edge_network="EDGE")
        assert genie.subscriptions() == expected
        assert genie.answers_on_edge == (home != "VN-car1")

    @ROLES
    def test_an_unheard_wire_is_malformed_and_publishes_nothing(self, home, role, expected, monkeypatch):
        # e.g. the original /objects, which only the wrapper itself publishes
        net = Fabric(seed=0)
        genie = GenieNode("genie", home, detector_spec(), role, edge_network="EDGE")
        genie.attach(net)
        published = spy_publishes(net, genie.name, monkeypatch)
        unheard = [
            base + suffix
            for base in ("/image", "/objects")
            for suffix in ("", "-local", "-remote")
            if (base + suffix, home) not in expected and (base + suffix, "EDGE") not in expected
        ]
        assert "/objects" in unheard
        for seq, wire in enumerate(unheard):
            message = image_message("f0", seq=seq) if wire.startswith("/image") else objects_message((), seq=seq)
            genie.on_message(net, 0.0, home, wire, message)
        net.run_until(100.0)
        assert genie.counters.malformed_dropped == len(unheard)
        assert published == []
        assert genie.counters.requests == genie.counters.echoes_ignored == genie.db.pending_count() == 0


class TestPhantomRole:
    def test_phantom_never_touches_local_wires(self):
        net = Fabric(seed=0)
        net.add_network("VN2")
        net.add_network("EDGE")
        net.add_node(SimNode("camera", "VN2"))
        local_spy = _AnswerSink("local-spy", "VN2")
        net.add_node(local_spy)
        net.subscribe("local-spy", "/image-local", "VN2")
        edge_spy = _EdgeSpy("edge-spy")
        net.add_node(edge_spy)
        net.subscribe("edge-spy", "/image-remote", "EDGE")
        genie = GenieNode(
            "genie", "VN2", detector_spec(), GenieRole.PHANTOM,
            edge_network="EDGE",
        )
        genie.attach(net)
        for seq in range(3):
            net.publish(
                "camera", image_message(f"f{seq}", seq=seq, stamp=float(seq)),
                wire_topic="/image", network="VN2", at=float(seq),
            )
        net.run_until(100.0)
        assert local_spy.received == []  # phantoms forward nothing to -local
        assert len(edge_spy.received) == 3


class TestTransparency:
    def test_each_exchange_expires_on_its_own_clock(self):
        # a repeat on the same content is its own exchange: it must not
        # extend the first one's expiry
        net, genie, inner, consumer, spy = wire_local_genie(cache_enabled=False, pending_ttl_ms=1000.0)
        for seq, t in ((0, 0.0), (1, 2.0)):
            net.publish("camera", image_message("f0", seq=seq, stamp=t), wire_topic="/image", network="VN1", at=t)
        net.run_until(10.0)
        assert len(inner.received) == len(spy.received) == 2  # nothing coalesces
        genie.expire(1001.0)
        assert genie.counters.expired == 1
        assert genie.db.pending(("car1/camera", 0)) is None
        assert genie.db.pending(("car1/camera", 1)) is not None
        genie.expire(1003.0)
        assert genie.counters.expired == 2 and genie.db.pending_count() == 0

    def test_forced_miss_echoes_terminate_between_edge_peers(self):
        # with caching disabled no parked entry coalesces repeats; the run
        # ends because edge peers never re-share an upload to each other
        from geniesim.harness import ScenarioConfig, SynthSpec, run_scenario

        config = ScenarioConfig(
            n_cars=1,
            edge_devices=("AGX", "A4500"),
            synth=SynthSpec(route="loop", n_frames=10, overlap_fraction=0.0),
            seed=16,
            force_miss=True,
        )
        report = run_scenario(config)  # would never return if echoes cascaded
        assert report.completed == 10

    def test_forced_miss_stream_matches_no_genie_fabric(self):
        from geniesim.harness import (
            ScenarioConfig,
            SynthSpec,
            _scenario_trace,
            build_scenario,
            run_built_scenario,
            run_scenario,
        )
        from geniesim.model import payload_bytes, strip_map_objects

        config = ScenarioConfig(
            n_cars=1,
            synth=SynthSpec(route="loop", n_frames=30, overlap_fraction=0.5),
            seed=5,
            force_miss=True,
        )
        baseline = ScenarioConfig(
            n_cars=1,
            synth=SynthSpec(route="loop", n_frames=30, overlap_fraction=0.5),
            seed=5,
        )
        trace = _scenario_trace(baseline)
        l_report = run_built_scenario(build_scenario(baseline, trace, "L"), "L")
        dg_report = run_scenario(config, trace)
        l_payloads = {
            (s.car, s.seq): payload_bytes(strip_map_objects(s.message).payload)
            for s in l_report.samples
        }
        dg_payloads = {
            (s.car, s.seq): payload_bytes(strip_map_objects(s.message).payload)
            for s in dg_report.samples
        }
        assert l_payloads == dg_payloads
        # forced misses really disable reuse
        assert dg_report.reuse_ratio("image") == 0.0


def spy_publishes(net, sender, monkeypatch):
    """Record every publish ``sender`` makes from now on."""
    published = []
    publish = net.publish

    def spy(frm, *args, **kwargs):
        if frm == sender:
            published.append(args)
        return publish(frm, *args, **kwargs)

    monkeypatch.setattr(net, "publish", spy)
    return published


class TestLateAnswer:
    """The inner node's ``-local`` answer to an exchange that is no longer
    pending (a ``-remote`` answer filled it, or it expired) is late: counted
    and dropped."""

    ANSWER = objects_message((obj("car", 0.7, (3.2, 0.2, 0.2)),))

    def answered_remotely(self, **genie_kwargs):
        net, genie, inner, consumer, spy = wire_local_genie(**genie_kwargs)
        net.add_node(SimNode("edge", "EDGE"))
        net.publish("camera", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
        net.run_until(10.0)
        net.publish("edge", self.ANSWER, wire_topic="/objects-remote", network="EDGE", at=10.0)
        net.run_until(20.0)
        assert genie.counters.remote_answers == 1
        assert len(consumer.received) == 1
        return net, genie, consumer

    def test_late_local_answer_is_counted_and_dropped(self, monkeypatch):
        net, genie, consumer = self.answered_remotely(object_map=ObjectMapStore())
        requests, pending = genie.counters.requests, genie.db.pending_count()
        ingested = []
        monkeypatch.setattr(genie.object_map, "ingest", lambda *args: ingested.append(args))
        published = spy_publishes(net, genie.name, monkeypatch)
        net.publish("inner", self.ANSWER, wire_topic="/objects-local", network="VN1", at=300.0)
        net.run_until(400.0)
        assert genie.counters.late_answers == 1
        assert genie.counters_dict()["late_answers"] == 1
        assert published == []
        assert ingested == []
        assert genie.db.pending_count() == pending
        assert genie.counters.requests == requests
        assert "/objects" not in genie.db.topic_names()
        assert len(consumer.received) == 1

    def test_answer_after_expiry_is_late_not_a_request(self, monkeypatch):
        net, genie, inner, consumer, spy = wire_local_genie(pending_ttl_ms=1000.0)
        net.publish("camera", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
        net.run_until(10.0)
        published = spy_publishes(net, genie.name, monkeypatch)
        # the answer's arrival purges the exchange it answers
        net.publish("inner", self.ANSWER, wire_topic="/objects-local", network="VN1", at=1200.0)
        net.run_until(1300.0)
        assert genie.counters.expired == 1
        assert genie.counters.late_answers == 1
        assert genie.counters.requests == 1
        assert published == []
        assert len(spy.received) == 1  # the expired upload only
        assert "/objects" not in genie.db.topic_names()
        assert consumer.received == []


class TestOneAnswerPerExchange:
    @staticmethod
    def run(route, cars, frames, edges, overlap=0.5, edge_latency_ms=0.0, **config_kwargs):
        from geniesim.harness import ScenarioConfig, SynthSpec, build_genie_scenario, run_built_scenario

        config = ScenarioConfig(
            n_cars=cars,
            edge_devices=edges,
            synth=SynthSpec(route=route, n_frames=frames, overlap_fraction=overlap),
            seed=7,
            edge_latency_ms=edge_latency_ms,
            **config_kwargs,
        )
        scenario = build_genie_scenario(config)
        scenario.fabric.record_deliveries()
        run_built_scenario(scenario, "DG")
        return scenario

    def test_missed_upload_is_answered_once_by_an_edge_pair(self):
        frames = 3
        scenario = self.run("disjoint", 1, frames, ("AGX", "A4500"), overlap=0.0)
        answers = {}
        for d in scenario.fabric.deliveries:
            if d.to == "car1/genie" and d.topic == "/objects-remote":
                answers.setdefault(d.frm, []).append(d.seq)
        # the A4500 answers every exchange once; the AGX hears that answer
        # before its own detector finishes, so its answer is late
        assert answers == {"edge2/genie": list(range(frames))}
        assert scenario.genies["edge1/genie"].counters.late_answers == frames
        for name in ("edge1/genie", "edge2/genie"):
            genie = scenario.genies[name]
            # the car's upload only: neither edge re-shares it to the other
            assert genie.counters.requests == genie.counters.misses == frames
            assert genie.db.topic_names() == ("/image",)

    @pytest.mark.parametrize(
        "route, cars, frames, config_kwargs",
        [
            # the bench corridor: 400 uploads, some of them edge hits
            ("shared-corridor", 4, 100, {}),
            # transparency with the TTL below the 10 ms edge round trip: every
            # exchange expires unanswered, and an edge re-share would bounce
            # between the two edges until the drain ends
            ("loop", 1, 40, {"pending_ttl_ms": 5.0, "force_miss": True}),
        ],
        ids=["bench-corridor", "short-ttl-transparency"],
    )
    def test_each_edge_genie_counts_one_request_per_upload(self, route, cars, frames, config_kwargs):
        scenario = self.run(route, cars, frames, ("AGX", "A4500"), edge_latency_ms=5.0, **config_kwargs)
        for name in ("edge1/genie", "edge2/genie"):
            uploads = sum(
                1 for d in scenario.fabric.deliveries
                if d.to == name and d.topic == "/image-remote" and d.frm.startswith("car")
            )
            assert uploads == cars * frames, name
            assert scenario.genies[name].counters.requests == uploads, name

    @pytest.mark.parametrize(
        "route, cars, edges, overlap, edge_latency_ms",
        [
            ("shared-corridor", 4, ("AGX", "A4500"), 0.5, 5.0),
            ("disjoint", 8, ("AGX",), 0.0, 0.0),
            ("loop", 1, ("AGX",), 0.9, 0.0),
        ],
    )
    def test_bench_shaped_runs_drain_every_pending_request(
        self, route, cars, edges, overlap, edge_latency_ms
    ):
        scenario = self.run(route, cars, 20, edges, overlap, edge_latency_ms)
        for genie in scenario.genies.values():
            c = genie.counters
            assert genie.db.pending_count() == 0, genie.name
            assert c.hits + c.misses == c.requests, genie.name


class TestCacheBoundHolds:
    @staticmethod
    def run(max_cache_entries):
        from geniesim.harness import ScenarioConfig, SynthSpec, build_genie_scenario, run_built_scenario

        # six frames 1 ms apart show three images twice each; all three are
        # in flight together, so a fill that did not evict would keep three
        config = ScenarioConfig(
            n_cars=1,
            car_device="Orin",
            edge_devices=("AGX", "A4500"),
            model="YOLOv8s",
            synth=SynthSpec(route="loop", n_frames=6, overlap_fraction=0.5, frame_period_ms=1, stagger_ms=0),
            seed=3,
            max_cache_entries=max_cache_entries,
        )
        return run_built_scenario(build_genie_scenario(config), "DG").summary_dict()

    def test_each_genie_ends_within_the_bound(self):
        bounded, unbounded = self.run(1), self.run(None)
        for name, stats in bounded["genies"].items():
            assert stats["topics"]["/image"]["entries"] == 1, name
            assert unbounded["genies"][name]["topics"]["/image"]["entries"] == 3, name
        assert bounded["totals"]["completed"] == unbounded["totals"]["completed"] == 3
        assert bounded["totals"]["latency_ms"] == unbounded["totals"]["latency_ms"]

import heapq
import math
import random
from dataclasses import FrozenInstanceError

import pytest

from geniesim.simnet import DeliveryRecord, EventQueue, Fabric, Link, SimNode, TopologyError, UnknownNodeError
from conftest import image_message


class Recorder(SimNode):
    def __init__(self, name, home):
        super().__init__(name, home)
        self.received = []

    def on_message(self, net, at, network, wire_topic, message):
        self.received.append((at, network, wire_topic, message))


def test_single_subscriber_delivery_at_latency():
    net = Fabric(seed=0)
    net.add_network("VN1", latency_ms=2.0)
    net.add_node(SimNode("pub", "VN1"))
    sub = net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image-local", "VN1")
    net.publish("pub", image_message("f0"), wire_topic="/image-local", network="VN1", at=10.0)
    net.run_until(100.0)
    assert [r[0] for r in sub.received] == [12.0]
    assert net.delivered == 1


def test_edge_broadcast_excludes_sender():
    net = Fabric(seed=0)
    net.add_network("EDGE")
    genies = [net.add_node(Recorder(f"remote{i}/genie", "EDGE")) for i in range(3)]
    for g in genies:
        net.subscribe(g.name, "/objects-remote", "EDGE")
    net.publish("remote0/genie", image_message("f0"), wire_topic="/objects-remote", network="EDGE", at=0.0)
    net.run_until(1.0)
    assert net.delivered == 2
    assert not genies[0].received
    assert all(len(g.received) == 1 for g in genies[1:])


def test_subscription_added_after_a_publish_is_seen_by_the_next():
    net = Fabric(seed=0)
    net.add_network("VN1", latency_ms=1.0)
    net.add_node(SimNode("pub", "VN1"))
    first = net.add_node(Recorder("first", "VN1"))
    late = net.add_node(Recorder("late", "VN1"))
    net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
    net.subscribe("first", "/image", "VN1")
    net.publish("pub", image_message("f1"), wire_topic="/image", network="VN1", at=1.0)
    net.subscribe("late", "/image", "VN1")
    net.publish("pub", image_message("f2"), wire_topic="/image", network="VN1", at=2.0)
    net.run_until(10.0)
    assert net.delivered == 3
    assert [m.payload.content_id for *_, m in first.received] == ["f1", "f2"]
    assert [(at, m.payload.content_id) for at, *_, m in late.received] == [(3.0, "f2")]


def test_zero_subscribers_no_error():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(SimNode("pub", "VN1"))
    net.publish("pub", image_message("f0"), wire_topic="/nowhere", network="VN1", at=0.0)
    assert len(net.queue) == 0
    net.run_until(10.0)
    assert net.delivered == 0


def test_unknown_sender_rejected():
    net = Fabric(seed=0)
    with pytest.raises(UnknownNodeError):
        net.publish("ghost", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)


def test_same_due_time_preserves_insertion_order():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(SimNode("pub", "VN1"))
    sub = net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    for i in range(5):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", network="VN1", at=7.0)
    net.run_until(7.0)
    assert [r[3].header.seq for r in sub.received] == [0, 1, 2, 3, 4]


def test_empty_queue_advances_clock():
    net = Fabric(seed=0)
    net.run_until(55.0)
    assert net.deliveries == []
    assert net.clock == 55.0


def test_run_until_rejects_past():
    net = Fabric(seed=0)
    net.run_until(10.0)
    with pytest.raises(ValueError):
        net.run_until(5.0)


def test_publish_in_past_rejected():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(SimNode("pub", "VN1"))
    net.run_until(10.0)
    with pytest.raises(ValueError):
        net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1", at=5.0)


def test_errors_keep_their_order_before_and_after_a_route_is_used():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_network("EDGE")
    net.add_node(SimNode("pub", "VN1"))
    net.subscribe(net.add_node(Recorder("sub", "VN1")).name, "/image", "VN1")
    for _ in range(2):  # the second pass publishes on a route already used
        net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1", at=10.0)
        net.run_until(10.0)
        with pytest.raises(UnknownNodeError):
            net.publish("ghost", image_message("f0"), wire_topic="/image", network="EDGE", at=5.0)
        with pytest.raises(ValueError, match="before clock"):
            net.publish("pub", image_message("f0"), wire_topic="/image", network="EDGE", at=5.0)
        with pytest.raises(ValueError, match="before clock"):
            net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1", at=5.0)
        with pytest.raises(TopologyError):
            net.publish("pub", image_message("f0"), wire_topic="/image", network="EDGE", at=10.0)


def test_a_network_is_declared_once_and_keeps_its_first_link():
    net = Fabric(seed=0)
    net.add_network("VN1", latency_ms=1.0)
    net.add_node(SimNode("pub", "VN1"))
    sub = net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
    with pytest.raises(TopologyError, match="VN1 is already declared"):
        net.add_network("VN1", latency_ms=5.0)
    net.publish("pub", image_message("f1"), wire_topic="/image", network="VN1", at=0.0)
    net.run_until(10.0)
    assert [r[0] for r in sub.received] == [1.0, 1.0]


def test_a_node_may_not_join_an_undeclared_network():
    net = Fabric(seed=0)
    net.add_network("VN1")
    with pytest.raises(TopologyError, match="undeclared network EDGE"):
        net.add_node(SimNode("genie", "VN1"), ("VN1", "EDGE"))
    with pytest.raises(TopologyError, match="undeclared network VN2"):
        net.add_node(SimNode("pub", "VN2"))
    with pytest.raises(UnknownNodeError):  # a refused node is not added
        net.subscribe("genie", "/image", "VN1")


def test_a_sender_subscribed_to_its_own_wire_moves_no_other_delivery():
    def received(sender_subscribes: bool) -> dict[str, list[float]]:
        net = Fabric(seed=3)
        net.add_network("EDGE", latency_ms=1.0, jitter_ms=3.0)
        nodes = [net.add_node(Recorder(name, "EDGE")) for name in ("a", "pub", "b")]
        for node in nodes:
            if node.name != "pub" or sender_subscribes:
                net.subscribe(node.name, "/objects-remote", "EDGE")
        for i in range(20):
            message = image_message(f"f{i}", seq=i)
            net.publish("pub", message, wire_topic="/objects-remote", network="EDGE", at=float(i))
        net.run_until(1000.0)
        return {node.name: [r[0] for r in node.received] for node in nodes}

    plain, own = received(False), received(True)
    assert own == plain
    assert own["pub"] == [] and len(own["a"]) == len(own["b"]) == 20


def test_duplicate_subscription_rejected():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    with pytest.raises(TopologyError):
        net.subscribe("sub", "/image", "VN1")


def test_isolation_between_virtual_networks():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_network("VN2")
    net.add_node(SimNode("pub", "VN1"))
    outsider = net.add_node(Recorder("outsider", "VN2"))
    net.subscribe("outsider", "/image", "VN2")
    net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1", at=0.0)
    net.run_until(10.0)
    assert outsider.received == []
    assert net.delivered == 0


def test_membership_required_for_publish_network():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_network("EDGE")
    net.add_node(SimNode("pub", "VN1"))
    with pytest.raises(TopologyError):
        net.publish("pub", image_message("f0"), wire_topic="/t", network="EDGE", at=0.0)


def _jittery_run(seed: int) -> list:
    net = Fabric(seed=seed)
    net.add_network("EDGE", latency_ms=1.0, jitter_ms=3.0)
    net.add_node(SimNode("pub", "EDGE"))
    subs = [net.add_node(Recorder(f"s{i}", "EDGE")) for i in range(4)]
    for s in subs:
        net.subscribe(s.name, "/objects-remote", "EDGE")
    for i in range(25):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/objects-remote", network="EDGE", at=float(i))
    net.run_until(1000.0)
    return net.deliveries


def test_determinism_same_seed_identical_logs():
    assert _jittery_run(42) == _jittery_run(42)


def test_different_seed_changes_jitter():
    assert _jittery_run(42) != _jittery_run(43)


ORIGINS = ("car1/camera", "car2/camera", "car10/camera")


def _edge_answers(prefixes: dict[str, str]) -> dict[str, list[tuple[float, tuple[str, int]]]]:
    """(time, header key) received per subscriber on a jittered edge, the
    subscribers named in ``prefixes`` and subscribed with those origin prefixes."""
    net = Fabric(seed=5)
    net.add_network("EDGE", latency_ms=1.0, jitter_ms=3.0)
    net.add_node(SimNode("edge1/genie", "EDGE"))
    subs = {name: net.add_node(Recorder(name, "EDGE")) for name in prefixes}
    for name, prefix in prefixes.items():
        net.subscribe(name, "/objects-remote", "EDGE", origin_prefix=prefix)
    for i in range(30):
        message = image_message(f"f{i}", origin=ORIGINS[i % 3], seq=i)
        net.publish("edge1/genie", message, wire_topic="/objects-remote", network="EDGE", at=float(i))
    net.run_until(1000.0)
    return {name: [(at, m.header.key) for at, _, _, m in sub.received] for name, sub in subs.items()}


def test_origin_prefix_admits_only_matching_origins():
    got = _edge_answers({"car1/genie": "car1/", "edge2/genie": ""})
    assert {key[0] for _, key in got["car1/genie"]} == {"car1/camera"}  # not car10/
    assert len(got["car1/genie"]) == 10
    assert len(got["edge2/genie"]) == 30


def test_origin_filter_keeps_every_other_delivery_time():
    # a filtered subscriber still takes its jitter draw, so the deliveries
    # it does get, and every other subscriber's, keep their times
    names = ("car1/genie", "edge2/genie", "car2/genie")
    plain = _edge_answers(dict.fromkeys(names, ""))
    filtered = _edge_answers({"car1/genie": "car1/", "edge2/genie": "", "car2/genie": "car2/"})
    assert filtered["edge2/genie"] == plain["edge2/genie"]
    for car in ("car1", "car2"):
        mine = [(at, key) for at, key in plain[f"{car}/genie"] if key[0] == f"{car}/camera"]
        assert filtered[f"{car}/genie"] == mine


def test_deliveries_read_as_frozen_records_in_a_new_list():
    net = Fabric(seed=0)
    net.add_network("VN1", latency_ms=2.0)
    net.add_node(SimNode("pub", "VN1"))
    net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    net.publish("pub", image_message("f0", seq=3), wire_topic="/image", network="VN1", at=1.0)
    net.run_until(10.0)
    records = net.deliveries
    assert records == [DeliveryRecord(3.0, "pub", "sub", "/image", 3, "car1/camera", "VN1", 1.0)]
    with pytest.raises(FrozenInstanceError):
        records[0].time_ms = 0.0
    records.clear()
    assert len(net.deliveries) == 1


def test_delivery_hook_is_the_only_recorder_and_the_count_is_always_kept():
    own, silent, hooked = (Fabric(seed=0) for _ in range(3))
    silent.on_delivery = None
    sink: list[tuple] = []
    hooked.on_delivery = sink.append
    for net in (own, silent, hooked):
        net.add_network("VN1")
        net.add_node(SimNode("pub", "VN1"))
        net.add_node(Recorder("sub", "VN1"))
        net.subscribe("sub", "/image", "VN1")
        for i in range(3):
            net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", network="VN1", at=float(i))
        net.run_until(10.0)
        assert net.delivered == 3
    assert len(own.deliveries) == 3
    assert silent.deliveries == hooked.deliveries == []
    assert [DeliveryRecord(*r) for r in sink] == own.deliveries
    silent.record_deliveries()  # connects the fabric's own log from here on
    silent.publish("pub", image_message("f3", seq=3), wire_topic="/image", network="VN1", at=20.0)
    silent.run_until(20.0)
    assert silent.delivered == 4
    assert [r.seq for r in silent.deliveries] == [3]


def test_causality_delivery_not_before_publish_plus_latency():
    net = Fabric(seed=1)
    net.add_network("EDGE", latency_ms=2.5, jitter_ms=1.0)
    net.add_node(SimNode("pub", "EDGE"))
    sub = net.add_node(Recorder("sub", "EDGE"))
    net.subscribe("sub", "/image", "EDGE")
    for i in range(20):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", network="EDGE", at=float(i * 3))
    net.run_until(500.0)
    assert net.deliveries
    for r in net.deliveries:
        assert r.time_ms >= r.published_ms + 2.5


def test_link_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            Link(latency_ms=bad)
        with pytest.raises(ValueError, match="non-negative and finite"):
            Link(jitter_ms=bad)


def _check_against_one_heap(seed: int) -> int:
    """Drive an EventQueue and a plain heapq reference with the same seeded
    pushes and stepped runs; return the number of events compared.  Due
    times fall on a coarse grid, so ties between an event queued before a
    run and one pushed during it are common."""
    rng = random.Random(seed)
    queue, ref = EventQueue(), []
    n = 0

    def push(due: float) -> None:
        nonlocal n
        queue.push(due, n)
        heapq.heappush(ref, (due, n))  # n is also the queue's insertion seq
        n += 1

    compared = 0
    for _ in range(rng.randint(1, 8)):
        # pushes between calls, in time order or not, like a replay or not
        base = queue.clock
        dues = [base + rng.choice((0, 1, 2, 5, 9)) for _ in range(rng.randint(0, 40))]
        if rng.random() < 0.5:
            dues.sort()
        for due in dues:
            push(due)
        t_end = queue.clock + rng.choice((0, 1, 3, 10, 50))
        for due, item in queue.pop_due(t_end):
            assert (due, item) == heapq.heappop(ref)
            assert queue.clock == due
            compared += 1
            for _ in range(rng.choice((0, 0, 1, 2))):  # pushed while the run goes on
                push(due + rng.choice((0, 0, 1, 3, 20)))
            assert len(queue) == len(ref)
        assert not ref or ref[0][0] > t_end
        assert queue.clock == t_end
        assert len(queue) == len(ref)
    return compared


def test_event_queue_pops_in_one_heap_order():
    assert sum(_check_against_one_heap(seed) for seed in range(200)) > 5_000


def test_event_queued_before_a_run_goes_first_at_a_tie():
    queue = EventQueue()
    for due, name in ((0.0, "queued@0"), (5.0, "queued@5a"), (5.0, "queued@5b"), (9.0, "queued@9")):
        queue.push(due, name)
    got = []
    for _, name in queue.pop_due(5.0):
        got.append(name)
        if name == "queued@0":
            queue.push(5.0, "pushed@5")
            queue.push(3.0, "pushed@3")
    assert got == ["queued@0", "pushed@3", "queued@5a", "queued@5b", "pushed@5"]
    queue.push(9.0, "between@9")
    assert [name for _, name in queue.pop_due(9.0)] == ["queued@9", "between@9"]


def test_event_queue_length_counts_both_tiers():
    queue = EventQueue()
    for due in (1.0, 2.0, 3.0):
        queue.push(due, due)
    assert len(queue) == 3
    events = queue.pop_due(10.0)
    next(events)  # 1.0 delivered; 2.0 and 3.0 wait in the sorted list
    queue.push(4.0, 4.0)
    queue.push(5.0, 5.0)  # these two wait in the heap
    assert len(queue) == 4
    assert [due for due, _ in events] == [2.0, 3.0, 4.0, 5.0]
    assert len(queue) == 0


class Rerunner(Recorder):
    def on_message(self, net, at, network, wire_topic, message):
        super().on_message(net, at, network, wire_topic, message)
        if len(self.received) == 1:
            net.run_until(at + 1.0)


def test_nested_run_is_refused():
    net = Fabric(seed=0)
    net.add_network("VN1", latency_ms=1.0)
    net.add_node(SimNode("pub", "VN1"))
    sub = net.add_node(Rerunner("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    for i in range(3):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", network="VN1", at=float(i))
    with pytest.raises(RuntimeError, match="already being run"):
        net.run_until(10.0)
    # the refused run is over; the next one delivers the rest once each
    net.run_until(10.0)
    assert [m.header.seq for *_, m in sub.received] == [0, 1, 2]

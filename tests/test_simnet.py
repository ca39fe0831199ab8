from dataclasses import FrozenInstanceError

import pytest

from geniesim.simnet import DeliveryRecord, Fabric, Link, SimNode, TopologyError, UnknownNodeError
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
    count = net.publish("pub", image_message("f0"), wire_topic="/image-local", at=10.0)
    assert count == 1
    net.run_until(100.0)
    assert [r[0] for r in sub.received] == [12.0]


def test_edge_broadcast_excludes_sender():
    net = Fabric(seed=0)
    net.add_network("EDGE")
    genies = [net.add_node(Recorder(f"remote{i}/genie", "EDGE")) for i in range(3)]
    for g in genies:
        net.subscribe(g.name, "/objects-remote", "EDGE")
    count = net.publish("remote0/genie", image_message("f0"), wire_topic="/objects-remote")
    assert count == 2
    net.run_until(1.0)
    assert not genies[0].received
    assert all(len(g.received) == 1 for g in genies[1:])


def test_zero_subscribers_no_error():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(SimNode("pub", "VN1"))
    assert net.publish("pub", image_message("f0"), wire_topic="/nowhere") == 0


def test_unknown_sender_rejected():
    net = Fabric(seed=0)
    with pytest.raises(UnknownNodeError):
        net.publish("ghost", image_message("f0"))


def test_same_due_time_preserves_insertion_order():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(SimNode("pub", "VN1"))
    sub = net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    for i in range(5):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", at=7.0)
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
        net.publish("pub", image_message("f0"), wire_topic="/image", at=5.0)


def test_duplicate_subscription_rejected():
    net = Fabric(seed=0)
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
    assert net.publish("pub", image_message("f0"), wire_topic="/image", network="VN1") == 0
    net.run_until(10.0)
    assert outsider.received == []


def test_membership_required_for_publish_network():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_network("EDGE")
    net.add_node(SimNode("pub", "VN1"))
    with pytest.raises(TopologyError):
        net.publish("pub", image_message("f0"), wire_topic="/t", network="EDGE")


def _jittery_run(seed: int) -> list:
    net = Fabric(seed=seed)
    net.add_network("EDGE", latency_ms=1.0, jitter_ms=3.0)
    net.add_node(SimNode("pub", "EDGE"))
    subs = [net.add_node(Recorder(f"s{i}", "EDGE")) for i in range(4)]
    for s in subs:
        net.subscribe(s.name, "/objects-remote", "EDGE")
    for i in range(25):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/objects-remote", at=float(i))
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
        net.publish("edge1/genie", message, wire_topic="/objects-remote", at=float(i))
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
    net.publish("pub", image_message("f0", seq=3), wire_topic="/image", at=1.0)
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
        net.add_node(SimNode("pub", "VN1"))
        net.add_node(Recorder("sub", "VN1"))
        net.subscribe("sub", "/image", "VN1")
        for i in range(3):
            net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", at=float(i))
        net.run_until(10.0)
        assert net.delivered == 3
    assert len(own.deliveries) == 3
    assert silent.deliveries == hooked.deliveries == []
    assert [DeliveryRecord(*r) for r in sink] == own.deliveries
    silent.record_deliveries()  # connects the fabric's own log from here on
    silent.publish("pub", image_message("f3", seq=3), wire_topic="/image", at=20.0)
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
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/image", at=float(i * 3))
    net.run_until(500.0)
    assert net.deliveries
    for r in net.deliveries:
        assert r.time_ms >= r.published_ms + 2.5


def test_link_validation():
    with pytest.raises(ValueError):
        Link(latency_ms=-1.0)
    with pytest.raises(ValueError):
        Link(jitter_ms=-1.0)

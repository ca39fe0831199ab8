import pytest

from geniesim.simnet import Fabric, Link, SimNode, TopologyError, UnknownNodeError
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


def _jittery_run(seed: int) -> str:
    net = Fabric(seed=seed)
    net.add_network("EDGE", latency_ms=1.0, jitter_ms=3.0)
    net.add_node(SimNode("pub", "EDGE"))
    subs = [net.add_node(Recorder(f"s{i}", "EDGE")) for i in range(4)]
    for s in subs:
        net.subscribe(s.name, "/objects-remote", "EDGE")
    for i in range(25):
        net.publish("pub", image_message(f"f{i}", seq=i), wire_topic="/objects-remote", at=float(i))
    net.run_until(1000.0)
    return net.log_jsonl()


def test_determinism_same_seed_identical_logs():
    assert _jittery_run(42) == _jittery_run(42)


def test_different_seed_changes_jitter():
    assert _jittery_run(42) != _jittery_run(43)


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


def test_log_line_schema():
    net = Fabric(seed=0)
    net.add_network("VN1")
    net.add_node(SimNode("pub", "VN1"))
    net.add_node(Recorder("sub", "VN1"))
    net.subscribe("sub", "/image", "VN1")
    net.publish("pub", image_message("f0", seq=4), wire_topic="/image")
    net.run_until(1.0)
    import json

    line = json.loads(net.log_jsonl())
    assert set(line) == {"time_ms", "from", "to", "topic", "seq"}
    assert line["from"] == "pub" and line["to"] == "sub" and line["seq"] == 4


def test_link_validation():
    with pytest.raises(ValueError):
        Link("A", "A", latency_ms=-1.0)

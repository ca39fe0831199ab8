"""Deterministic discrete-event publish/subscribe fabric.

Each vehicle owns a private virtual network; edge-resident nodes share an
edge network.  A node belongs to one home network and may join others, and
subscriptions are bound to a specific network, so a message published into
VN1 can never reach a VN2-only node.  Topics whose name ends in ``-remote``
are ordinary topics by these rules; publishing one into the edge network
reaches every edge subscriber whose origin filter admits it, except the
sender (self-delivery is suppressed on every network).  A subscription's origin
filter is a prefix of the message header's origin; the empty default admits
everything, which is the broadcast the edge caching nodes rely on.  Every
car-side node that hears answers (a vehicle's caching node, its consumer,
its remote-baseline downlink relay) subscribes with its own car's prefix,
so it hears only answers addressed to that car.

The event loop is single-threaded: callbacks run to completion in
(due_time, insertion_seq) order, so identical seeds and inputs replay to
bit-identical delivery logs.  ``Fabric.delivered`` counts every delivery;
the fabric records each one only through its ``on_delivery`` hook, which a
hand-built ``Fabric()`` connects to its own log (``Fabric.deliveries``).
``harness.build_scenario`` disconnects it, so a caller that wants a built
scenario's log calls ``scenario.fabric.record_deliveries()`` before the run.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass

from .model import Message


class UnknownNodeError(KeyError):
    pass


class TopologyError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Link:
    """Delivery delay inside one network.

    Latency is fixed; jitter adds a seeded U(0, jitter_ms) draw per
    delivery.  Defaults are zero: co-located nodes exchange messages
    instantaneously unless a scenario says otherwise.
    """

    latency_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency and jitter must be non-negative")


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    time_ms: float
    frm: str
    to: str
    topic: str
    seq: int
    origin: str
    network: str
    published_ms: float


class EventQueue:
    """Min-heap of (due_time, insertion_seq, item); clock never decreases."""

    def __init__(self) -> None:
        self.clock: float = 0.0
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0

    def push(self, due_ms: float, item: object) -> None:
        if due_ms < self.clock:
            raise ValueError(f"cannot schedule at {due_ms} before clock {self.clock}")
        heapq.heappush(self._heap, (due_ms, self._seq, item))
        self._seq += 1

    def pop_due(self, t_end: float):
        while self._heap and self._heap[0][0] <= t_end:
            due, _, item = heapq.heappop(self._heap)
            self.clock = due
            yield due, item
        self.clock = max(self.clock, t_end)

    def __len__(self) -> int:
        return len(self._heap)


class SimNode:
    """Base class for fabric participants."""

    def __init__(self, name: str, home_network: str) -> None:
        self.name = name
        self.home_network = home_network

    def on_message(
        self, net: "Fabric", at: float, network: str, wire_topic: str, message: Message
    ) -> None:  # pragma: no cover - overridden
        pass


@dataclass(slots=True)
class _Delivery:
    to: str
    frm: str
    network: str
    wire_topic: str
    message: Message
    published_ms: float


class Fabric:
    """Owns networks, nodes, subscriptions, the clock and the event heap.

    :attr:`delivered` counts every delivery.  :attr:`on_delivery` is the one
    delivery hook: when set, it is called with each delivery's
    :class:`DeliveryRecord` fields as one plain tuple, just before the
    receiving node runs.  A new fabric connects it to its own log; set it
    to ``None`` to record nothing.
    :attr:`deliveries` reads the log as frozen :class:`DeliveryRecord`
    objects, built on each read in delivery order, in a new list that does
    not write back to the log; it is empty while nothing was recorded.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.queue = EventQueue()
        self._links: dict[str, Link] = {}  # per network
        self._nodes: dict[str, SimNode] = {}
        self._memberships: dict[str, set[str]] = {}
        # (network, topic) -> (node name, origin prefix) per subscriber
        self._subs: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self._sub_index: set[tuple[str, str]] = set()  # (node, topic)
        self._log: list[tuple] = []  # DeliveryRecord fields per delivery
        self.delivered = 0
        self.on_delivery: Callable[[tuple], object] | None = self._log.append

    def record_deliveries(self) -> None:
        """Connect :attr:`on_delivery` to the fabric's own log, as a new
        fabric does."""
        self.on_delivery = self._log.append

    @property
    def clock(self) -> float:
        return self.queue.clock

    @property
    def deliveries(self) -> list[DeliveryRecord]:
        return [DeliveryRecord(*r) for r in self._log]

    # -- topology -----------------------------------------------------------

    def add_network(self, name: str, latency_ms: float = 0.0, jitter_ms: float = 0.0) -> None:
        self._links[name] = Link(latency_ms, jitter_ms)

    def add_node(self, node: SimNode, networks: tuple[str, ...] | None = None) -> SimNode:
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        nets = set(networks) if networks else {node.home_network}
        nets.add(node.home_network)
        for n in nets:
            if n not in self._links:
                self.add_network(n)
        self._nodes[node.name] = node
        self._memberships[node.name] = nets
        return node

    def subscribe(
        self,
        node_name: str,
        topic_name: str,
        network: str | None = None,
        origin_prefix: str = "",
    ) -> None:
        """Deliver ``topic_name`` on ``network`` (default: the node's home)
        to the node.  With ``origin_prefix``, only messages whose header
        origin starts with it are delivered."""
        node = self._require(node_name)
        net = network or node.home_network
        if net not in self._memberships[node_name]:
            raise TopologyError(f"{node_name} is not a member of network {net}")
        if (node_name, topic_name) in self._sub_index:
            raise TopologyError(f"{node_name} already subscribed to {topic_name}")
        self._sub_index.add((node_name, topic_name))
        self._subs.setdefault((net, topic_name), []).append((node_name, origin_prefix))

    def _require(self, node_name: str) -> SimNode:
        try:
            return self._nodes[node_name]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node_name}") from None

    # -- traffic ------------------------------------------------------------

    def publish(
        self,
        sender: str,
        message: Message,
        wire_topic: str | None = None,
        network: str | None = None,
        at: float | None = None,
    ) -> int:
        """Schedule one delivery per matching subscriber; returns the count.

        The sender never receives its own publish.  A subscriber whose origin
        prefix the message's origin lacks takes its jitter draw and is then
        skipped, so the filter never moves another delivery's time.  ``at``
        defaults to the current clock and may not lie in the past.
        """
        node = self._require(sender)
        when = self.clock if at is None else at
        if when < self.clock:
            raise ValueError(f"publish at {when} before clock {self.clock}")
        topic = wire_topic or message.topic.name
        if network is None:
            nets = self._memberships[sender]
            if len(nets) != 1:
                raise TopologyError(
                    f"{sender} belongs to {sorted(nets)}; publish needs an explicit network"
                )
            network = next(iter(nets))
        elif network not in self._memberships[sender]:
            raise TopologyError(f"{sender} is not a member of network {network}")

        # add_node linked every network the sender is a member of
        link = self._links[network]
        origin = message.header.origin
        count = 0
        for to, prefix in self._subs.get((network, topic), ()):
            if to == sender:
                continue
            delay = link.latency_ms
            if link.jitter_ms > 0:
                delay += self.rng.uniform(0.0, link.jitter_ms)
            if prefix and not origin.startswith(prefix):
                continue
            self.queue.push(
                when + delay,
                _Delivery(to, sender, network, topic, message, when),
            )
            count += 1
        return count

    def run_until(self, t_end: float) -> None:
        """Process every event due at or before ``t_end`` in deterministic
        order, counting each delivery and passing its record to the
        :attr:`on_delivery` hook as it stood when the call began."""
        if t_end < self.clock:
            raise ValueError(f"t_end {t_end} before clock {self.clock}")
        hook, nodes = self.on_delivery, self._nodes
        for due, item in self.queue.pop_due(t_end):
            d: _Delivery = item
            self.delivered += 1
            if hook is not None:
                header = d.message.header
                hook((due, d.frm, d.to, d.wire_topic, header.seq, header.origin, d.network, d.published_ms))
            nodes[d.to].on_message(self, due, d.network, d.wire_topic, d.message)

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

Nothing is implied: a network is declared once, with its link, before a
node joins it; every subscription names its network, and every publish
names its sender, wire topic, network and time.

The event loop is single-threaded: callbacks run to completion in
(due_time, insertion_seq) order, so identical seeds and inputs replay to
bit-identical delivery logs.  A trace queued before a run waits in a list
sorted once, not in the heap each delivery sifts (see ``EventQueue``).  A
callback may publish but may not call ``run_until``.  ``Fabric.delivered``
counts every delivery; the fabric records each one only through its
``on_delivery`` hook, which a hand-built ``Fabric()`` connects to its own log
(``Fabric.deliveries``).
``harness.build_scenario`` disconnects it, so a caller that wants a built
scenario's log calls ``scenario.fabric.record_deliveries()`` before the run.

The fabric owns the run's one random stream, seeded by ``Fabric(seed)``, and
makes both kinds of draw from it in event order: a link's jitter in
``publish``, and a detector run's latency in :meth:`Fabric.detector_latency`.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from .model import Message


LATENCY_JITTER = 0.05  # a detector run takes its device's mean latency scaled by U(1 - f, 1 + f)


class UnknownNodeError(KeyError):
    pass


class TopologyError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Link:
    """Delivery delay inside one network.

    Latency is fixed; jitter adds a seeded U(0, jitter_ms) draw for each
    receiver ``publish`` examines, one its origin filter then skips
    included.  Defaults are zero: co-located nodes exchange messages
    instantaneously unless a scenario says otherwise.
    """

    latency_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.latency_ms < math.inf and 0 <= self.jitter_ms < math.inf):
            raise ValueError("latency and jitter must be non-negative and finite")


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
    """Events released in (due_time, insertion_seq) order; the clock never
    decreases.

    Each :meth:`pop_due` first sorts every queued event into one list,
    latest first, in the heap's own list (a trace pushed in time order
    sorts in one pass), and pops it from the end.  Events pushed while it
    runs go to a heap that holds only those.  Every listed event was pushed
    before any heap event, so it has the smaller seq, and taking the
    smaller head of the two by (due, seq) is the order of one heap over
    all events.  ``len`` counts both.
    """

    def __init__(self) -> None:
        self.clock: float = 0.0
        self._heap: list[tuple[float, int, object]] = []
        self._listed: list[tuple[float, int, object]] = []  # latest first
        self._seq = 0
        self._popping = False

    def push(self, due_ms: float, item: object) -> None:
        if due_ms < self.clock:
            raise ValueError(f"cannot schedule at {due_ms} before clock {self.clock}")
        heapq.heappush(self._heap, (due_ms, self._seq, item))
        self._seq += 1

    def pop_due(self, t_end: float):
        """Yield (due, item) for every event due at or before ``t_end``.

        A second ``pop_due`` while one is running would re-sort events the
        first still holds and release them twice, so it is refused.
        """
        if self._popping:
            raise RuntimeError("the event queue is already being run; a delivery may not run it")
        self._popping = True
        try:
            listed = self._heap
            listed += self._listed
            listed.sort(reverse=True)
            self._listed = listed
            heap = self._heap = []
            while True:
                if heap and (not listed or heap[0] < listed[-1]):
                    if heap[0][0] > t_end:
                        break
                    due, _, item = heapq.heappop(heap)
                elif listed and listed[-1][0] <= t_end:
                    due, _, item = listed.pop()
                else:
                    break
                self.clock = due
                yield due, item
            self.clock = max(self.clock, t_end)
        finally:
            self._popping = False

    def __len__(self) -> int:
        return len(self._heap) + len(self._listed)


class SimNode:
    """Base class for fabric participants."""

    def __init__(self, name: str, home_network: str) -> None:
        self.name = name
        self.home_network = home_network

    def on_message(
        self, net: "Fabric", at: float, network: str, wire_topic: str, message: Message
    ) -> None:  # pragma: no cover - overridden
        pass


class Fabric:
    """Owns networks, nodes, subscriptions, the clock and the event queue.

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
        self._rng = random.Random(seed)
        self.queue = EventQueue()
        self._links: dict[str, Link] = {}  # per network
        self._nodes: dict[str, SimNode] = {}
        self._memberships: dict[str, set[str]] = {}
        # (network, topic) -> (node name, node, origin prefix) per subscriber
        self._subs: dict[tuple[str, str], list[tuple[str, SimNode, str]]] = {}
        self._sub_index: set[tuple[str, str]] = set()  # (node, topic)
        # (sender, network, wire topic) -> (link, receivers) of a checked route
        self._routes: dict[tuple[str, str, str], tuple] = {}
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
        """Declare network ``name`` with its link, once."""
        if name in self._links:
            raise TopologyError(f"network {name} is already declared")
        self._links[name] = Link(latency_ms, jitter_ms)

    def add_node(self, node: SimNode, networks: tuple[str, ...] | None = None) -> SimNode:
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        nets = set(networks) if networks else {node.home_network}
        nets.add(node.home_network)
        undeclared = sorted(nets - self._links.keys())
        if undeclared:
            raise TopologyError(f"{node.name} joins undeclared network {', '.join(undeclared)}")
        self._nodes[node.name] = node
        self._memberships[node.name] = nets
        return node

    def subscribe(self, node_name: str, topic_name: str, network: str, origin_prefix: str = "") -> None:
        """Deliver ``topic_name`` on ``network``, one the node is a member
        of, to the node.  With ``origin_prefix``, only messages whose header
        origin starts with it are delivered."""
        node = self._require(node_name)
        if network not in self._memberships[node_name]:
            raise TopologyError(f"{node_name} is not a member of network {network}")
        if (node_name, topic_name) in self._sub_index:
            raise TopologyError(f"{node_name} already subscribed to {topic_name}")
        self._sub_index.add((node_name, topic_name))
        self._routes.clear()
        self._subs.setdefault((network, topic_name), []).append((node_name, node, origin_prefix))

    def _require(self, node_name: str) -> SimNode:
        try:
            return self._nodes[node_name]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {node_name}") from None

    # -- traffic ------------------------------------------------------------

    def publish(self, sender: str, message: Message, wire_topic: str, network: str, at: float) -> None:
        """Schedule one delivery per subscriber of ``wire_topic`` on
        ``network``, other than the sender, sent at ``at``.

        The sender must be a member of ``network``, and ``at`` may not lie
        in the past.  A subscriber whose origin prefix the message's origin
        lacks takes its jitter draw and is then skipped, so the filter never
        moves another delivery's time.

        A route that passed the checks keeps its link and its receivers,
        the subscribers other than the sender, until ``subscribe`` adds
        one; its errors come in the same order as a new route's.
        """
        route = self._routes.get((sender, network, wire_topic))
        if route is None:
            self._require(sender)
        queue = self.queue
        if at < queue.clock:
            raise ValueError(f"publish at {at} before clock {queue.clock}")
        if route is None:
            if network not in self._memberships[sender]:
                raise TopologyError(f"{sender} is not a member of network {network}")
            # add_node refused any network that was not declared
            receivers = [sub for sub in self._subs.get((network, wire_topic), ()) if sub[0] != sender]
            route = self._routes[sender, network, wire_topic] = (self._links[network], receivers)
        link, receivers = route
        latency, jitter, push = link.latency_ms, link.jitter_ms, queue.push
        origin = message.header.origin
        for _, node, prefix in receivers:
            delay = latency
            if jitter > 0:
                delay += self._rng.uniform(0.0, jitter)
            if prefix and not origin.startswith(prefix):
                continue
            push(at + delay, (node, sender, network, wire_topic, message, at))

    def detector_latency(self, mean_ms: float) -> float:
        """``mean_ms`` scaled by a draw of U(1 - LATENCY_JITTER, 1 + LATENCY_JITTER)."""
        return mean_ms * (1.0 + self._rng.uniform(-LATENCY_JITTER, LATENCY_JITTER))

    def run_until(self, t_end: float) -> None:
        """Process every event due at or before ``t_end`` in deterministic
        order, counting each delivery and passing its record to the
        :attr:`on_delivery` hook as it stood when the call began.  A
        delivery that calls ``run_until`` again is refused with
        ``RuntimeError``."""
        if t_end < self.clock:
            raise ValueError(f"t_end {t_end} before clock {self.clock}")
        hook = self.on_delivery
        # each item is (node, sender, network, wire topic, message, published_ms)
        for due, (node, frm, network, wire_topic, message, published_ms) in self.queue.pop_due(t_end):
            self.delivered += 1
            if hook is not None:
                header = message.header
                hook((due, frm, node.name, wire_topic, header.seq, header.origin, network, published_ms))
            node.on_message(self, due, network, wire_topic, message)

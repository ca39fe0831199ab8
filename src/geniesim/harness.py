"""Scenario runner and metrics engine.

Wires cars, caching nodes, detectors and the edge network per config,
replays a trace as camera requests, and reports response-time samples,
reuse ratios and confidence-boost curves.  One builder, ``build_scenario``,
wires any of three modes over one trace for comparison: local-only (``L``,
the vehicle computes everything), remote (``R``, every frame is shipped to
the edge), and the full distributed cache (``DG``).

Response time is measured from the request header's stamp, which is the
frame's emission time on the car's image topic, to the first object-list
delivery at that car's consumer.  Every answer carries its request's header.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .genie import DedupFilter, GenieNode, GenieRole, ServiceSpec
from .model import LOCAL_SUFFIX, Header, ImageRef, Message, ObjectList, PayloadKind, Topic
from .objectmap import ObjectMapParams, ObjectMapStore
from .simnet import Fabric, SimNode
from .workload import (
    DEFAULT_PROFILES,
    DetectorNode,
    DeviceProfile,
    SynthSpec,
    Trace,
    detect,
    load_device_profiles,
    load_trace,
    synth_trace,
)


class ConfigError(ValueError):
    pass


IMAGE_TOPIC = Topic("/image", PayloadKind.IMAGE)
OBJECTS_TOPIC = Topic("/objects", PayloadKind.OBJECTS)

EDGE_NET = "EDGE"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one run; mirrors the CLI config file field for
    field.  ``edge_devices`` holds one profile name per edge caching node
    (a heterogeneous cluster mixes profiles); ``phantom_cars`` lists cars
    that carry no detector and live off the collective cache.  ``from_dict``
    checks types and ``validate`` ranges, using the rules of each section's
    class (``ObjectMapParams``, ``SynthSpec``); both name the ``config.`` path.
    ``build_scenario`` checks the rest against the device table and trace."""

    n_cars: int = 1
    car_device: str = "Nano"
    edge_devices: tuple[str, ...] = ("AGX",)
    model: str = "DETR-ResNet-50"
    trace_file: str | None = None
    synth: SynthSpec | None = None
    seed: int = 0
    deadline_ms: float = 33.0
    hit_overhead_ms: float = 8.8
    miss_overhead_ms: float = 1.0
    answer_overhead_ms: float = 1.0
    dedup_window_ms: float = 1000.0
    pending_ttl_ms: float = 10_000.0
    object_map: ObjectMapParams = field(default_factory=ObjectMapParams)
    vn_latency_ms: float = 0.0
    vn_jitter_ms: float = 0.0
    edge_latency_ms: float = 0.0
    edge_jitter_ms: float = 0.0
    phantom_cars: tuple[str, ...] = ()
    drain_ms: float = 5000.0
    force_miss: bool = False
    max_cache_entries: int | None = None
    profiles_file: str | None = None

    def validate(self) -> None:
        if self.n_cars < 1:
            raise ConfigError("config.n_cars must be >= 1")
        if not 0 < self.deadline_ms < math.inf:
            raise ConfigError("config.deadline_ms must be positive and finite")
        for name in (
            "hit_overhead_ms",
            "miss_overhead_ms",
            "answer_overhead_ms",
            "dedup_window_ms",
            "pending_ttl_ms",
            "drain_ms",
            "vn_latency_ms",
            "vn_jitter_ms",
            "edge_latency_ms",
            "edge_jitter_ms",
        ):
            if not 0 <= getattr(self, name) < math.inf:  # a 0 ms dedup window still drops same-instant repeats
                raise ConfigError(f"config.{name} must be non-negative and finite")
        if self.max_cache_entries is not None and self.max_cache_entries < 1:
            raise ConfigError("config.max_cache_entries must be >= 1")
        for section in ("object_map", "synth"):
            try:
                if getattr(self, section) is not None:
                    getattr(self, section).check()
            except ValueError as exc:  # each message starts with the field name
                raise ConfigError(f"config.{section}.{exc}") from exc
        if self.trace_file is None and self.synth is None:
            raise ConfigError("config.synth: either trace_file or synth is required")
        if self.trace_file is not None and self.synth is not None:
            raise ConfigError("config.synth: set either trace_file or synth, not both")
        for i, car in enumerate(self.phantom_cars):
            if car in self.phantom_cars[:i]:
                raise ConfigError(f"config.phantom_cars[{i}]: {car} listed twice")

    def resolve_profiles(self) -> dict[str, DeviceProfile]:
        profiles = (
            DEFAULT_PROFILES if self.profiles_file is None
            else load_device_profiles(self.profiles_file)
        )
        for device in (self.car_device, *self.edge_devices):
            if device not in profiles:
                raise ConfigError(f"unknown device profile: {device}")
            if self.model not in profiles[device].models():
                raise ConfigError(f"device {device} has no entry for model {self.model}")
        return profiles

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        return _from_json(ScenarioConfig, d, "config")

    @staticmethod
    def from_json_file(path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ScenarioConfig.from_dict(json.load(fh))


def _from_json(tp, value, path: str):
    """Parsed JSON ``value`` as annotation ``tp``, or ``ConfigError`` naming
    ``path``.  A tuple passes for a list, as ``to_dict`` leaves it; a float
    field keeps an int as given, so ``summary.json`` echoes the file."""
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
        hints = get_type_hints(tp)
        unknown = sorted(value.keys() - hints.keys())
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}: unknown field")
        return tp(**{k: _from_json(hints[k], v, f"{path}.{k}") for k, v in value.items()})
    args = get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _from_json(args[0], value, path)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return tuple(_from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {type(value).__name__}")
    if tp in (int, float) and not abs(value) <= sys.float_info.max:  # json.load gives NaN, inf and any int
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    return value


# -- fabric-side helper nodes ---------------------------------------------------


@dataclass(slots=True)
class Sample:
    car: str
    seq: int
    latency_ms: float
    via: str
    message: Message


class ConsumerNode(SimNode):
    """Downstream sink for one car: discards duplicate payloads, records the
    first answer per request as a latency sample.  It subscribes with its
    car's origin prefix, so it only ever hears that car's answers."""

    def __init__(self, name: str, home_network: str, car: str, dedup_window_ms: float) -> None:
        super().__init__(name, home_network)
        self.car = car
        self.dedup = DedupFilter(dedup_window_ms)
        self.samples: dict[tuple[str, int], Sample] = {}

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        if not self.dedup.offer(at, message):
            return
        header = message.header
        key = header.key
        if key in self.samples:
            return
        latency = at - header.stamp_ms
        self.samples[key] = Sample(self.car, key[1], latency, message.via or "direct", message)


class RelayNode(SimNode):
    """Stateless forwarder with one ``{src: dst}`` rule between (network, wire)
    pairs.  Its one subscription is ``src``, so it forwards all it hears."""

    def __init__(self, name: str, home_network: str, rule: dict[tuple[str, str], tuple[str, str]]) -> None:
        super().__init__(name, home_network)
        ((self.src, self.dst),) = rule.items()

    def networks(self) -> tuple[str, ...]:
        return (self.src[0], self.dst[0])

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        dst_network, dst_wire = self.dst
        net.publish(self.name, message, dst_wire, dst_network, at)


# -- topology -----------------------------------------------------------------


@dataclass
class Scenario:
    config: ScenarioConfig
    trace: Trace
    fabric: Fabric
    consumers: dict[str, ConsumerNode]
    genies: dict[str, GenieNode]
    detectors: dict[str, DetectorNode]


MODES = ("L", "R", "DG")


DETECTOR_SERVICE = ServiceSpec("vision-detector", subscribes=(IMAGE_TOPIC,), publishes=(OBJECTS_TOPIC,))


def _scenario_trace(config: ScenarioConfig) -> Trace:
    if config.trace_file is not None:
        return load_trace(config.trace_file)
    synth = config.synth
    if synth.seed is None:
        synth = replace(synth, seed=config.seed)
    return synth_trace(n_cars=config.n_cars, **asdict(synth))


def _detect_all(trace: Trace, params: ObjectMapParams) -> dict[str, ObjectList]:
    """Each distinct image's ``ObjectList``, detected once, at its first frame.
    ``Trace.build`` has held every frame to the trace's rules.  This refuses
    what depends on the config: an object the object map cannot place, where
    a coordinate of its location, plus or minus the relevance radius, divided
    by the cell size, is not finite, so quantizing it would overflow mid-run."""
    r, res = params.relevance_radius_m, params.resolution_m
    table = {}
    for image_id, frame in trace.by_image.items():
        payload = table[image_id] = detect(frame.truths, frame.pose)
        for o in payload.objects:
            for c in o.location:
                if not math.isfinite((abs(c) + r) / res):  # the farther of c - r and c + r
                    raise ConfigError(
                        f"car {frame.car!r}, image {image_id!r}: object location {o.location} "
                        f"is out of the object map's range at resolution_m {res}"
                    )
    return table


def _replay(scenario: Scenario) -> None:
    """Turn every trace frame into a request on its car's image topic.  Frames
    of one image share one ``ImageRef``, so its content key is built once."""
    publish = scenario.fabric.publish
    names = {car: (f"{car}/camera", f"VN-{car}") for car in scenario.trace.cars}  # (origin, network)
    topic, wire = IMAGE_TOPIC, IMAGE_TOPIC.name
    seq: dict[str, int] = {}
    images: dict[str, ImageRef] = {}
    for frame in scenario.trace.frames:
        origin, network = names[frame.car]
        n = seq.get(frame.car, 0)
        seq[frame.car] = n + 1
        at = float(frame.t_ms)
        image = images.get(frame.image_id)
        if image is None:
            image = images[frame.image_id] = ImageRef(frame.image_id)
        publish(origin, Message(Header(origin, n, at), topic, image), wire, network, at)


def build_scenario(config: ScenarioConfig, trace: Trace | None = None, mode: str = "DG") -> Scenario:
    """Wire one topology over the trace.  Every mode gives each car a private
    network with its camera and consumer; then per mode:

      L   the car's detector answers on the original topics; nothing leaves
          the vehicle.
      R   per-car relays carry every frame to one edge detector (the first
          edge device) and its answer back; no caching anywhere.  A car's
          downlink hears on the edge only its own car's answers.
      DG  the distributed cache: per car a local wrapper and, unless the car
          is phantom, its detector on ``-local``; on the edge one wrapper and
          detector per edge device, plus a cache-only peer per phantom car.
          A car's wrapper hears on the edge only its own car's traffic; the
          edge wrappers and peers hear everything.

    One rule keeps a car's answers with it in every mode: each car-side node
    that hears answers (consumer, R downlink, DG wrapper) subscribes with the
    car's origin prefix, so the fabric never delivers another car's answer.

    Every refusal comes first: ``validate``'s, R with no edge device, a device
    or model not in the table, a trace without ``n_cars`` cars, a phantom not in
    it, in DG a car named like an edge node (``edge<j>``) or an object the
    object map cannot place.  A trace's own rules are ``Trace.build``'s,
    which every trace, a passed one included, has kept.
    Each distinct image is detected once, into one table that every detector shares.

    The fabric counts deliveries but records none: no output reads the
    log.  Call ``scenario.fabric.record_deliveries()`` before the run to
    keep it.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    return _wire(config, *_prepare(config, trace, (mode,)), mode)


def _prepare(
    config: ScenarioConfig, trace: Trace | None, modes: tuple[str, ...]
) -> tuple[dict[str, DeviceProfile], Trace, dict[str, ObjectList]]:
    """``build_scenario``'s refusals for ``modes``; returns the device table, trace and detection table."""
    config.validate()
    if "R" in modes and not config.edge_devices:
        raise ConfigError("remote baseline needs at least one edge device")
    profiles = config.resolve_profiles()
    trace = trace if trace is not None else _scenario_trace(config)
    if len(trace.cars) != config.n_cars:
        raise ConfigError(f"trace has {len(trace.cars)} cars but config says {config.n_cars}")
    unknown = set(config.phantom_cars) - set(trace.cars)
    if unknown:  # in every mode, though only DG wires phantoms
        raise ConfigError(f"config.phantom_cars: {sorted(unknown)} not in the trace")
    if "DG" in modes:  # DG names edge device j's nodes edge<j>/genie and edge<j>/detector
        for car in (f"edge{j}" for j in range(1, len(config.edge_devices) + 1)):
            if car in trace.by_car:
                raise ConfigError(f"car {car!r} is named like a DG edge node: {car}/genie")
    return profiles, trace, _detect_all(trace, config.object_map)


def _wire(
    config: ScenarioConfig, profiles: dict[str, DeviceProfile], trace: Trace,
    detections: dict[str, ObjectList], mode: str,
) -> Scenario:
    """``build_scenario``'s topology, once ``_prepare`` has checked for ``mode``."""
    phantoms = config.phantom_cars if mode == "DG" else ()
    net = Fabric(seed=config.seed)
    net.on_delivery = None
    if mode != "L":
        net.add_network(EDGE_NET, config.edge_latency_ms, config.edge_jitter_ms)
    scenario = Scenario(config, trace, net, {}, {}, {})
    suffix = LOCAL_SUFFIX if mode == "DG" else ""
    map_params = asdict(config.object_map)

    def add_detector(name: str, network: str, device: str) -> None:
        detector = DetectorNode(
            name,
            network,
            profiles[device],
            config.model,
            trace.by_image,
            request_wire=IMAGE_TOPIC.name + suffix,
            answer_wire=OBJECTS_TOPIC.name + suffix,
            answer_topic=OBJECTS_TOPIC,
            detections=detections,
        )
        net.add_node(detector)
        net.subscribe(name, detector.request_wire, network)
        scenario.detectors[name] = detector

    def add_genie(name: str, home: str, role: GenieRole, origin_prefix: str = "") -> None:
        genie = GenieNode(
            name,
            home,
            DETECTOR_SERVICE,
            role,
            edge_network=EDGE_NET,
            object_map=ObjectMapStore(**map_params),
            hit_overhead_ms=config.hit_overhead_ms,
            miss_overhead_ms=config.miss_overhead_ms,
            answer_overhead_ms=config.answer_overhead_ms,
            pending_ttl_ms=config.pending_ttl_ms,
            cache_enabled=not config.force_miss,
            max_entries=config.max_cache_entries,
        )
        genie.attach(net, origin_prefix)
        scenario.genies[name] = genie

    def add_relay(
        name: str, home: str, src: tuple[str, str], dst: tuple[str, str], origin_prefix: str = ""
    ) -> None:
        relay = RelayNode(name, home, {src: dst})
        net.add_node(relay, relay.networks())
        net.subscribe(name, src[1], src[0], origin_prefix)

    if mode == "R":
        add_detector("edge/detector", EDGE_NET, config.edge_devices[0])
    for car in trace.cars:
        vn = f"VN-{car}"
        net.add_network(vn, config.vn_latency_ms, config.vn_jitter_ms)
        net.add_node(SimNode(f"{car}/camera", vn))
        own = f"{car}/"  # the origin prefix that keeps the car's answers with it
        consumer = ConsumerNode(f"{car}/consumer", vn, car, config.dedup_window_ms)
        net.add_node(consumer)
        net.subscribe(consumer.name, OBJECTS_TOPIC.name, vn, own)
        scenario.consumers[car] = consumer
        if mode == "R":
            add_relay(f"{car}/uplink", vn, (vn, IMAGE_TOPIC.name), (EDGE_NET, IMAGE_TOPIC.name))
            add_relay(f"{car}/downlink", vn, (EDGE_NET, OBJECTS_TOPIC.name), (vn, OBJECTS_TOPIC.name), own)
        elif car in phantoms:
            add_genie(f"{car}/genie", vn, GenieRole.PHANTOM, origin_prefix=own)
        else:
            if mode == "DG":
                add_genie(f"{car}/genie", vn, GenieRole.LOCAL, origin_prefix=own)
            add_detector(f"{car}/detector", vn, config.car_device)

    if mode == "DG":
        for j, device in enumerate(config.edge_devices, start=1):
            enet = f"E{j}"
            net.add_network(enet)
            add_genie(f"edge{j}/genie", enet, GenieRole.REMOTE)
            add_detector(f"edge{j}/detector", enet, device)
        for car in phantoms:
            add_genie(f"edge/phantom-{car}", EDGE_NET, GenieRole.PHANTOM)

    return scenario


# the benchmark and the acceptance suite call the DG builder by this name
build_genie_scenario = build_scenario


# -- metrics -----------------------------------------------------------------


def _cdf_rows(values: list[float]) -> Iterator[tuple[float, float]]:
    """The empirical CDF, one row at a time: each sample in ascending order
    paired with its 1-based rank divided by the sample count.  ``values`` is
    sorted in place, when called, so its caller can reuse the order."""
    values.sort()
    n = len(values)
    return ((v, (i + 1) / n) for i, v in enumerate(values))


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list; 0.0 for an empty one."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _reprs(rows: Iterable[tuple], column: int) -> Iterator[tuple[str, tuple]]:
    """Each row with the ``repr`` of its value in ``column``.  The text of a
    value equal to the row before's is reused, which pays off on a column
    sorted by that value: it is formatted once per run of equal values.  A
    zero is formatted afresh, because ``0.0 == -0.0`` but their texts
    differ; NaN equals nothing, so it is formatted afresh anyway."""
    last = text = None
    for row in rows:
        value = row[column]
        if value != last or not value:
            last, text = value, repr(value)
        yield text, row


@dataclass
class MetricsReport:
    config: ScenarioConfig
    mode: str
    samples: list[Sample]
    total_requests: int
    per_genie: dict[str, dict]
    genie_scopes: dict[str, str]
    boost_events: list[tuple[float, str, float]]  # (time_ms, genie, delta)
    detector_invocations: dict[str, int]
    detector_oom_failures: dict[str, int]
    detector_unknown_frames: dict[str, int]
    consumer_stats: dict[str, dict]

    @property
    def completed(self) -> int:
        return len(self.samples)

    def latencies(self) -> list[float]:
        return [s.latency_ms for s in self.samples]

    def hit_latencies(self) -> list[float]:
        return [s.latency_ms for s in self.samples if s.via == "hit"]

    @property
    def deadline_miss_fraction(self) -> float:
        if not self.samples:
            return 0.0
        missed = sum(1 for s in self.samples if s.latency_ms > self.config.deadline_ms)
        return missed / len(self.samples)

    def reuse(self, kind: str, scope: str | None = None) -> tuple[int, int]:
        """(hits, requests) for the message cache ("image") or the object
        map ("object"), optionally restricted to local or remote nodes."""
        hits = requests = 0
        for name, stats in self.per_genie.items():
            if scope is not None and self.genie_scopes[name] != scope:
                continue
            h, r = stats["reuse"][kind]
            hits += h
            requests += r
        return hits, requests

    def reuse_ratio(self, kind: str, scope: str | None = None) -> float:
        hits, requests = self.reuse(kind, scope)
        return hits / requests if requests else 0.0

    def boost_curve(self) -> list[tuple[int, float, float, float]]:
        """(event index, time, delta, cumulative total) over all maps."""
        return list(self._boost_rows())

    def _boost_rows(self) -> Iterator[tuple[int, float, float, float]]:
        """:meth:`boost_curve`'s rows, one at a time."""
        total = 0.0
        for i, (t, _, delta) in enumerate(self.boost_events):
            total += delta
            yield i, t, delta, total

    def summary_dict(self) -> dict:
        return self._summary(sorted(self.latencies()))

    def _summary(self, ordered: list[float]) -> dict:
        """:meth:`summary_dict` given the latencies in ascending order, as
        ``emit_report`` sorts them once for the summary and the CDF."""
        hit_lat = self.hit_latencies()
        imgrr = {
            scope: self.reuse_ratio("image", scope) for scope in ("local", "remote")
        }
        objrr = {
            scope: self.reuse_ratio("object", scope) for scope in ("local", "remote")
        }
        per_car: dict[str, dict] = {}
        for s in self.samples:
            per_car.setdefault(s.car, []).append(s.latency_ms)
        per_car = {
            car: {
                "completed": len(values),
                "mean": statistics.fmean(values),
                "p99": _percentile(sorted(values), 99),
            }
            for car, values in sorted(per_car.items())
        }
        return {
            "mode": self.mode,
            "config": self.config.to_dict(),
            "totals": {
                "requests": self.total_requests,
                "completed": self.completed,
                "deadline_ms": self.config.deadline_ms,
                "deadline_miss_fraction": self.deadline_miss_fraction,
                "latency_ms": {
                    "mean": statistics.fmean(ordered) if ordered else 0.0,  # fsum: exact in any order
                    "p50": _percentile(ordered, 50),
                    "p95": _percentile(ordered, 95),
                    "p99": _percentile(ordered, 99),
                    # not ordered[-1]: max keeps the first of a 0.0/-0.0 tie, as the stable sort does
                    "max": max(ordered) if ordered else 0.0,
                },
                "hit_path_ms": {
                    "count": len(hit_lat),
                    "mean": statistics.fmean(hit_lat) if hit_lat else 0.0,
                },
            },
            "per_car": per_car,
            "reuse": {
                "imgrr": {**imgrr, "overall": self.reuse_ratio("image")},
                "objrr": {**objrr, "overall": self.reuse_ratio("object")},
            },
            "boost": {
                "events": len(self.boost_events),
                "cumulative_total": sum(d for *_, d in self.boost_events),
            },
            "genies": self.per_genie,
            "detectors": {
                "invocations": self.detector_invocations,
                "oom_failures": self.detector_oom_failures,
                "unknown_frames": self.detector_unknown_frames,
            },
            "consumers": self.consumer_stats,
        }


def collect_report(scenario: Scenario, mode: str) -> MetricsReport:
    samples = []
    for car in sorted(scenario.consumers):
        consumer = scenario.consumers[car]
        samples.extend(consumer.samples[k] for k in sorted(consumer.samples))
    per_genie = {}
    boost: list[tuple[float, str, float]] = []
    for name in sorted(scenario.genies):
        genie = scenario.genies[name]
        per_genie[name] = genie.counters_dict()
        boost.extend((t, name, delta) for t, delta in genie.object_map.boost_records)
    boost.sort(key=itemgetter(0))  # stable: ties keep name order, then ingest order
    detectors = sorted(scenario.detectors.items())
    return MetricsReport(
        config=scenario.config,
        mode=mode,
        samples=samples,
        total_requests=len(scenario.trace.frames),
        per_genie=per_genie,
        genie_scopes={
            name: "remote" if genie.answers_on_edge else "local"
            for name, genie in scenario.genies.items()
        },
        boost_events=boost,
        detector_invocations={n: d.invocations for n, d in detectors},
        detector_oom_failures={n: d.oom_failures for n, d in detectors},
        detector_unknown_frames={n: d.unknown_frames for n, d in detectors},
        consumer_stats={
            car: {
                "accepted": c.dedup.accepted,
                "discarded": c.dedup.discarded,
                # every delivery to the consumer is offered once
                "deliveries": c.dedup.accepted + c.dedup.discarded,
            }
            for car, c in sorted(scenario.consumers.items())
        },
    )


def run_built_scenario(scenario: Scenario, mode: str) -> MetricsReport:
    _replay(scenario)
    end = scenario.trace.end_ms() + scenario.config.drain_ms
    scenario.fabric.run_until(end)
    for genie in scenario.genies.values():
        genie.expire(end)
    return collect_report(scenario, mode)


def run_scenario(config: ScenarioConfig, trace: Trace | None = None) -> MetricsReport:
    return run_built_scenario(build_scenario(config, trace), "DG")


def compare_baselines(config: ScenarioConfig) -> dict[str, MetricsReport]:
    """Local-only (L), remote-only (R) and distributed-cache (DG) runs over
    one trace, device table and seed, checked once before any mode runs."""
    prepared = _prepare(config, None, MODES)
    return {mode: run_built_scenario(_wire(config, *prepared, mode), mode) for mode in MODES}


# -- report files ---------------------------------------------------------------


def _write_csv(path: Path, header: str, rows: Iterable[str]) -> Path:
    """Write ``header`` and each row as one line, row by row as ``rows``
    yields them, so no copy of the whole file is ever held."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return path


def emit_report(report: MetricsReport, out_dir: str | Path) -> list[Path]:
    """Write latency_cdf.csv, reuse.csv, boost.csv and summary.json.

    Outputs are a pure function of the report: re-running the same seed
    rewrites byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    latencies = report.latencies()  # sorted in place by _cdf_rows, once for the CDF and the summary
    cdf_path = _write_csv(
        out / "latency_cdf.csv",
        "latency_ms,cum_fraction",
        (f"{v},{fraction!r}" for v, (_, fraction) in _reprs(_cdf_rows(latencies), 0)),
    )

    lines = []
    ratios: dict[str, list[tuple[float, float]]] = {"local": [], "remote": []}
    for name in sorted(report.per_genie):
        stats = report.per_genie[name]
        ih, ir = stats["reuse"]["image"]
        oh, orq = stats["reuse"]["object"]
        imgrr = ih / ir if ir else 0.0
        objrr = oh / orq if orq else 0.0
        scope = report.genie_scopes[name]
        ratios[scope].append((imgrr, objrr))
        lines.append(
            f"{name},{scope},{ir},{ih},{imgrr!r},{orq},{oh},{objrr!r}"
        )
    for scope in ("local", "remote"):
        pairs = ratios[scope]
        if not pairs:
            continue
        imgs = [p[0] for p in pairs]
        objs = [p[1] for p in pairs]
        for stat, fn in (("min", min), ("mean", statistics.fmean), ("max", max)):
            lines.append(
                f"aggregate/{scope}/{stat},{scope},,,{fn(imgs)!r},,,{fn(objs)!r}"
            )
    reuse_path = _write_csv(
        out / "reuse.csv",
        "genie,scope,img_requests,img_hits,imgrr,obj_requests,obj_hits,objrr",
        lines,
    )

    events = report.boost_events
    boost_path = _write_csv(
        out / "boost.csv",
        "event_index,time_ms,genie,delta,cumulative_total,cumulative_mean",
        (
            f"{i},{t},{events[i][1]},{delta!r},{total!r},{total / (i + 1)!r}"
            for t, (i, _, delta, total) in _reprs(report._boost_rows(), 1)
        ),
    )

    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(report._summary(latencies), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return [cdf_path, reuse_path, boost_path, summary_path]

"""Scenario runner and metrics engine.

Wires cars, caching nodes, detectors and the edge network per config,
replays a trace as camera requests, and reports response-time samples,
reuse ratios and confidence-boost curves.  One builder, ``build_scenario``,
wires any of three modes over one trace for comparison: local-only (``L``,
the vehicle computes everything), remote (``R``, every frame is shipped to
the edge), and the full distributed cache (``DG``).

Response time is measured from frame emission on the car's image topic to
the first object-list delivery at that car's consumer.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .genie import DedupFilter, GenieNode, GenieRole, ServiceSpec, encapsulate
from .model import LOCAL_SUFFIX, Header, ImageRef, Message, PayloadKind, Topic
from .objectmap import ObjectMapStore, UpdateRule
from .simnet import Fabric, SimNode
from .workload import (
    DetectorNode,
    DeviceProfile,
    Trace,
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
class ObjectMapParams:
    confidence_threshold: float = 0.6
    update_rate: float = 0.1
    update_rule: str = "ema"
    resolution_m: float = 0.5
    relevance_radius_m: float = 15.0

    def build(self) -> ObjectMapStore:
        return ObjectMapStore(
            resolution_m=self.resolution_m,
            confidence_threshold=self.confidence_threshold,
            update_rate=self.update_rate,
            update_rule=UpdateRule(self.update_rule),
            relevance_radius_m=self.relevance_radius_m,
        )


@dataclass(frozen=True)
class SynthSpec:
    route: str = "loop"
    n_frames: int = 100
    objects_per_frame: int = 3
    overlap_fraction: float = 0.0
    frame_period_ms: int = 100
    stagger_ms: float = 300.0
    conf_alpha: float = 5.0
    conf_beta: float = 3.0
    seed: int | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one run; mirrors the CLI config file field for
    field.  ``edge_devices`` holds one profile name per edge caching node
    (a heterogeneous cluster mixes profiles); ``phantom_cars`` lists cars
    that carry no detector and live off the collective cache."""

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
    image_bytes: int = 1_000_000
    profiles_file: str | None = None

    def validate(self) -> None:
        if self.n_cars < 1:
            raise ConfigError("n_cars must be >= 1")
        if self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive")
        if self.trace_file is None and self.synth is None:
            raise ConfigError("either trace_file or synth parameters are required")
        cars = {f"car{i + 1}" for i in range(self.n_cars)}
        unknown = set(self.phantom_cars) - cars
        if unknown and self.trace_file is None:
            raise ConfigError(f"phantom cars not in scenario: {sorted(unknown)}")

    def resolve_profiles(self) -> dict[str, DeviceProfile]:
        profiles = load_device_profiles(self.profiles_file)
        for device in (self.car_device, *self.edge_devices):
            if device not in profiles:
                raise ConfigError(f"unknown device profile: {device}")
            if self.model not in profiles[device].models():
                raise ConfigError(f"device {device} has no entry for model {self.model}")
        return profiles

    def to_dict(self) -> dict:
        d = asdict(self)
        d["edge_devices"] = list(self.edge_devices)
        d["phantom_cars"] = list(self.phantom_cars)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        d = dict(d)
        if "object_map" in d and isinstance(d["object_map"], dict):
            d["object_map"] = ObjectMapParams(**d["object_map"])
        if "synth" in d and isinstance(d["synth"], dict):
            d["synth"] = SynthSpec(**d["synth"])
        if "edge_devices" in d:
            d["edge_devices"] = tuple(d["edge_devices"])
        if "phantom_cars" in d:
            d["phantom_cars"] = tuple(d["phantom_cars"])
        try:
            return ScenarioConfig(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def from_json_file(path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ScenarioConfig.from_dict(json.load(fh))


def with_phantoms(config: ScenarioConfig, car_ids: Iterable[str]) -> ScenarioConfig:
    """Assign phantom (detector-less) status to the given cars; they get a
    phantom wrapper on the vehicle and a cache-only phantom peer on the
    edge when the DG topology is built."""
    updated = replace(config, phantom_cars=tuple(car_ids))
    updated.validate()
    return updated


# -- fabric-side helper nodes ---------------------------------------------------


@dataclass(slots=True)
class Sample:
    car: str
    seq: int
    t_request_ms: float
    latency_ms: float
    via: str
    message: Message


class ConsumerNode(SimNode):
    """Downstream sink for one car: discards duplicate payloads, records the
    first answer per request as a latency sample."""

    def __init__(
        self,
        name: str,
        home_network: str,
        origin: str,
        request_times: dict[tuple[str, int], float],
        dedup_window_ms: float,
    ) -> None:
        super().__init__(name, home_network)
        self.origin = origin
        self.request_times = request_times
        self.dedup = DedupFilter(dedup_window_ms)
        self.samples: dict[tuple[str, int], Sample] = {}
        self.deliveries = 0

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        if message.header.origin != self.origin:
            return
        self.deliveries += 1
        if not self.dedup.offer(at, message):
            return
        key = message.header.key
        t0 = self.request_times.get(key)
        if t0 is None or key in self.samples:
            return
        self.samples[key] = Sample(
            car=self.origin.split("/", 1)[0],
            seq=key[1],
            t_request_ms=t0,
            latency_ms=at - t0,
            via=message.via or "direct",
            message=message,
        )


class RelayNode(SimNode):
    """Stateless forwarder: re-publishes matched traffic onto another
    (network, wire) with no processing delay."""

    def __init__(
        self,
        name: str,
        home_network: str,
        rules: dict[tuple[str, str], tuple[str, str]],
    ) -> None:
        super().__init__(name, home_network)
        self.rules = rules

    def networks(self) -> tuple[str, ...]:
        nets = {self.home_network}
        for (src_net, _), (dst_net, _) in self.rules.items():
            nets.add(src_net)
            nets.add(dst_net)
        return tuple(sorted(nets))

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        rule = self.rules.get((network, wire_topic))
        if rule is not None:
            net.publish(self.name, message, wire_topic=rule[1], network=rule[0], at=at)


# -- topology -----------------------------------------------------------------


@dataclass
class Scenario:
    config: ScenarioConfig
    trace: Trace
    fabric: Fabric
    consumers: dict[str, ConsumerNode]
    genies: dict[str, GenieNode]
    detectors: dict[str, DetectorNode]
    request_times: dict[tuple[str, int], float]


MODES = ("L", "R", "DG")


def detector_service() -> ServiceSpec:
    return ServiceSpec(
        name="vision-detector", subscribes=(IMAGE_TOPIC,), publishes=(OBJECTS_TOPIC,)
    )


def _scenario_trace(config: ScenarioConfig) -> Trace:
    if config.trace_file is not None:
        trace = load_trace(config.trace_file)
        if len(trace.cars) != config.n_cars:
            raise ConfigError(
                f"trace has {len(trace.cars)} cars but config says {config.n_cars}"
            )
        return trace
    s = config.synth
    return synth_trace(
        n_cars=config.n_cars,
        route=s.route,
        n_frames=s.n_frames,
        objects_per_frame=s.objects_per_frame,
        overlap_fraction=s.overlap_fraction,
        seed=config.seed if s.seed is None else s.seed,
        frame_period_ms=s.frame_period_ms,
        stagger_ms=s.stagger_ms,
        conf_alpha=s.conf_alpha,
        conf_beta=s.conf_beta,
    )


def _replay(scenario: Scenario) -> None:
    """Turn every trace frame into a request on its car's image topic."""
    config = scenario.config
    net = scenario.fabric
    seq: dict[str, int] = {}
    for frame in scenario.trace.frames:
        origin = f"{frame.car}/camera"
        n = seq.get(frame.car, 0)
        seq[frame.car] = n + 1
        header = Header(origin=origin, seq=n, stamp_ms=float(frame.t_ms))
        message = Message(
            header=header,
            topic=IMAGE_TOPIC,
            payload=ImageRef(frame.image_id, config.image_bytes),
        )
        scenario.request_times[header.key] = float(frame.t_ms)
        net.publish(origin, message, wire_topic=IMAGE_TOPIC.name, network=f"VN-{frame.car}", at=float(frame.t_ms))


def build_scenario(config: ScenarioConfig, trace: Trace | None = None, mode: str = "DG") -> Scenario:
    """Wire one topology over the trace.  Every mode gives each car a private
    network with its camera and consumer; then per mode:

      L   the car's detector answers on the original topics; nothing leaves
          the vehicle.
      R   per-car relays carry every frame to one edge detector (the first
          edge device) and its answer back; no caching anywhere.
      DG  the distributed cache: per car a local wrapper and, unless the car
          is phantom, its detector on ``-local``; on the edge one wrapper and
          detector per edge device, plus a cache-only peer per phantom car.
          A car's wrapper hears on the edge only its own car's traffic; the
          edge wrappers and peers hear everything.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    config.validate()
    if mode == "R" and not config.edge_devices:
        raise ConfigError("remote baseline needs at least one edge device")
    profiles = config.resolve_profiles()
    trace = trace if trace is not None else _scenario_trace(config)
    phantoms = config.phantom_cars if mode == "DG" else ()
    unknown = set(phantoms) - set(trace.cars)
    if unknown:
        raise ConfigError(f"phantom cars not in trace: {sorted(unknown)}")
    net = Fabric(seed=config.seed)
    if mode != "L":
        net.add_network(EDGE_NET, config.edge_latency_ms, config.edge_jitter_ms)
    scenario = Scenario(config, trace, net, {}, {}, {}, {})
    suffix = LOCAL_SUFFIX if mode == "DG" else ""
    encap = encapsulate(detector_service())

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
        )
        net.add_node(detector)
        net.subscribe(name, detector.request_wire, network)
        scenario.detectors[name] = detector

    def add_genie(
        name: str, home: str, role: GenieRole, answers_on: str | None = None, origin_prefix: str = ""
    ) -> None:
        genie = GenieNode(
            name,
            home,
            encap,
            role,
            edge_network=EDGE_NET,
            object_map=config.object_map.build(),
            hit_overhead_ms=config.hit_overhead_ms,
            miss_overhead_ms=config.miss_overhead_ms,
            answer_overhead_ms=config.answer_overhead_ms,
            pending_ttl_ms=config.pending_ttl_ms,
            cache_enabled=not config.force_miss,
            max_entries=config.max_cache_entries,
            answers_on=answers_on,
        )
        genie.attach(net, origin_prefix)
        scenario.genies[name] = genie

    def add_relay(name: str, home: str, src: tuple[str, str], dst: tuple[str, str]) -> None:
        relay = RelayNode(name, home, {src: dst})
        net.add_node(relay, relay.networks())
        net.subscribe(name, src[1], src[0])

    if mode == "R":
        add_detector("edge/detector", EDGE_NET, config.edge_devices[0])
    for car in trace.cars:
        vn = f"VN-{car}"
        net.add_network(vn, config.vn_latency_ms, config.vn_jitter_ms)
        net.add_node(SimNode(f"{car}/camera", vn))
        consumer = ConsumerNode(
            f"{car}/consumer", vn, f"{car}/camera", scenario.request_times, config.dedup_window_ms
        )
        net.add_node(consumer)
        net.subscribe(consumer.name, OBJECTS_TOPIC.name, vn)
        scenario.consumers[car] = consumer
        if mode == "R":
            add_relay(f"{car}/uplink", vn, (vn, IMAGE_TOPIC.name), (EDGE_NET, IMAGE_TOPIC.name))
            add_relay(f"{car}/downlink", vn, (EDGE_NET, OBJECTS_TOPIC.name), (vn, OBJECTS_TOPIC.name))
        elif car in phantoms:
            add_genie(f"{car}/genie", vn, GenieRole.PHANTOM, origin_prefix=f"{car}/")
        else:
            if mode == "DG":
                add_genie(f"{car}/genie", vn, GenieRole.LOCAL, origin_prefix=f"{car}/")
            add_detector(f"{car}/detector", vn, config.car_device)

    if mode == "DG":
        for j, device in enumerate(config.edge_devices, start=1):
            enet = f"E{j}"
            net.add_network(enet)
            add_genie(f"edge{j}/genie", enet, GenieRole.REMOTE)
            add_detector(f"edge{j}/detector", enet, device)
        for car in phantoms:
            add_genie(f"edge/phantom-{car}", EDGE_NET, GenieRole.PHANTOM, answers_on="edge")

    return scenario


# the benchmark and the acceptance suite call the DG builder by this name
build_genie_scenario = build_scenario


# -- metrics -----------------------------------------------------------------


def empirical_cdf(values: list[float]) -> list[tuple[float, float]]:
    """Sorted samples paired with their cumulative fraction."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class MetricsReport:
    config: ScenarioConfig
    mode: str
    samples: list[Sample]
    total_requests: int
    per_genie: dict[str, dict]
    genie_scopes: dict[str, str]
    boost_events: list[tuple[float, str, tuple[int, int, int], float]]
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
        rows = []
        total = 0.0
        for i, (t, _, _, delta) in enumerate(self.boost_events):
            total += delta
            rows.append((i, t, delta, total))
        return rows

    def summary_dict(self) -> dict:
        lat = self.latencies()
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
                "p99": _percentile(values, 99),
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
                    "mean": statistics.fmean(lat) if lat else 0.0,
                    "p50": _percentile(lat, 50),
                    "p95": _percentile(lat, 95),
                    "p99": _percentile(lat, 99),
                    "max": max(lat) if lat else 0.0,
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
    boost: list[tuple[float, str, tuple[int, int, int], float]] = []
    for name in sorted(scenario.genies):
        genie = scenario.genies[name]
        stats = genie.counters_dict()
        img = genie.reuse_counts(PayloadKind.IMAGE)
        store = genie.object_map
        obj = (store.hits, store.requests) if store is not None else (0, 0)
        stats["reuse"] = {"image": (img[0], img[1]), "object": obj}
        stats["object_map_size"] = len(store) if store is not None else 0
        per_genie[name] = stats
        if store is not None:
            for r in store.boost_records:
                boost.append((r.time_ms, name, tuple(r.cell), r.delta))
    boost.sort(key=lambda e: (e[0], e[1]))
    return MetricsReport(
        config=scenario.config,
        mode=mode,
        samples=samples,
        total_requests=len(scenario.trace.frames),
        per_genie=per_genie,
        genie_scopes={
            name: "remote" if genie.answers_on == "edge" else "local"
            for name, genie in scenario.genies.items()
        },
        boost_events=boost,
        detector_invocations={
            n: d.invocations for n, d in sorted(scenario.detectors.items())
        },
        detector_oom_failures={
            n: d.oom_failures for n, d in sorted(scenario.detectors.items())
        },
        detector_unknown_frames={
            n: d.unknown_frames for n, d in sorted(scenario.detectors.items())
        },
        consumer_stats={
            car: {
                "accepted": c.dedup.accepted,
                "discarded": c.dedup.discarded,
                "deliveries": c.deliveries,
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
    the identical trace and seed."""
    trace = _scenario_trace(config)
    return {mode: run_built_scenario(build_scenario(config, trace, mode), mode) for mode in MODES}


# -- report files ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_report(report: MetricsReport, out_dir: str | Path) -> list[Path]:
    """Write latency_cdf.csv, reuse.csv, boost.csv and summary.json.

    Outputs are a pure function of the report: re-running the same seed
    rewrites byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    cdf_path = out / "latency_cdf.csv"
    lines = ["latency_ms,cum_fraction"]
    for value, fraction in empirical_cdf(report.latencies()):
        lines.append(f"{_fmt(value)},{_fmt(fraction)}")
    cdf_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(cdf_path)

    reuse_path = out / "reuse.csv"
    lines = ["genie,scope,img_requests,img_hits,imgrr,obj_requests,obj_hits,objrr"]
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
            f"{name},{scope},{ir},{ih},{_fmt(imgrr)},{orq},{oh},{_fmt(objrr)}"
        )
    for scope in ("local", "remote"):
        pairs = ratios[scope]
        if not pairs:
            continue
        imgs = [p[0] for p in pairs]
        objs = [p[1] for p in pairs]
        for stat, fn in (("min", min), ("mean", statistics.fmean), ("max", max)):
            lines.append(
                f"aggregate/{scope}/{stat},{scope},,,{_fmt(fn(imgs))},,,{_fmt(fn(objs))}"
            )
    reuse_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(reuse_path)

    boost_path = out / "boost.csv"
    lines = ["event_index,time_ms,genie,delta,cumulative_total,cumulative_mean"]
    for i, t, delta, total in report.boost_curve():
        genie = report.boost_events[i][1]
        lines.append(
            f"{i},{_fmt(t)},{genie},{_fmt(delta)},{_fmt(total)},{_fmt(total / (i + 1))}"
        )
    boost_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(boost_path)

    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(report.summary_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    written.append(summary_path)
    return written

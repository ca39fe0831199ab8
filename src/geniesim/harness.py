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
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .genie import DedupFilter, GenieNode, GenieRole, ServiceSpec
from .model import LOCAL_SUFFIX, Header, ImageRef, Message, ObjectList, PayloadKind, Topic
from .objectmap import ObjectMapStore, UpdateRule
from .simnet import Fabric, SimNode
from .workload import (
    DEFAULT_PROFILES,
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
    that carry no detector and live off the collective cache.  ``from_dict``
    checks each value against the field annotations; ``validate`` checks ranges."""

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
            raise ConfigError("n_cars must be >= 1")
        if self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive")
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
            if getattr(self, name) < 0:  # zero is valid: no delay, no window
                raise ConfigError(f"{name} must be non-negative")
        if self.max_cache_entries is not None and self.max_cache_entries < 1:
            raise ConfigError("max_cache_entries must be >= 1")
        rules = sorted(r.value for r in UpdateRule)
        if self.object_map.update_rule not in rules:
            raise ConfigError(f"object_map.update_rule must be one of {rules}")
        if self.trace_file is None and self.synth is None:
            raise ConfigError("either trace_file or synth parameters are required")
        if self.synth is not None and self.synth.objects_per_frame < 0:
            raise ConfigError("config.synth.objects_per_frame must be non-negative")
        cars = {f"car{i + 1}" for i in range(self.n_cars)}
        unknown = set(self.phantom_cars) - cars
        if unknown and self.trace_file is None:
            raise ConfigError(f"phantom cars not in scenario: {sorted(unknown)}")

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
    if tp is float and not math.isfinite(value):  # json.load accepts NaN and Infinity
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
        key = message.header.key
        if key in self.samples:
            return
        t0 = message.header.stamp_ms
        self.samples[key] = Sample(
            car=self.car,
            seq=key[1],
            latency_ms=at - t0,
            via=message.via or "direct",
            message=message,
        )


class RelayNode(SimNode):
    """Stateless forwarder with one ``{src: dst}`` rule between (network, wire)
    pairs.  Its one subscription is ``src``, so it forwards all it hears."""

    def __init__(self, name: str, home_network: str, rule: dict[tuple[str, str], tuple[str, str]]) -> None:
        super().__init__(name, home_network)
        ((self.src, self.dst),) = rule.items()

    def networks(self) -> tuple[str, ...]:
        return (self.src[0], self.dst[0])

    def on_message(self, net: Fabric, at: float, network: str, wire_topic: str, message: Message) -> None:
        net.publish(self.name, message, wire_topic=self.dst[1], network=self.dst[0], at=at)


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
    synth = config.synth
    if synth.seed is None:
        synth = replace(synth, seed=config.seed)
    return synth_trace(n_cars=config.n_cars, **asdict(synth))


def _replay(scenario: Scenario) -> None:
    """Turn every trace frame into a request on its car's image topic."""
    net = scenario.fabric
    seq: dict[str, int] = {}
    for frame in scenario.trace.frames:
        origin = f"{frame.car}/camera"
        n = seq.get(frame.car, 0)
        seq[frame.car] = n + 1
        header = Header(origin=origin, seq=n, stamp_ms=float(frame.t_ms))
        message = Message(header=header, topic=IMAGE_TOPIC, payload=ImageRef(frame.image_id))
        net.publish(origin, message, wire_topic=IMAGE_TOPIC.name, network=f"VN-{frame.car}", at=float(frame.t_ms))


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

    The fabric counts deliveries but records none: no output reads the
    log.  Call ``scenario.fabric.record_deliveries()`` before the run to
    keep it.
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
    net.on_delivery = None
    if mode != "L":
        net.add_network(EDGE_NET, config.edge_latency_ms, config.edge_jitter_ms)
    scenario = Scenario(config, trace, net, {}, {}, {})
    suffix = LOCAL_SUFFIX if mode == "DG" else ""
    spec = detector_service()
    detections: dict[str, ObjectList] = {}  # one detection per frame, shared
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
            spec,
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


def empirical_cdf(values: list[float]) -> list[tuple[float, float]]:
    """Sorted samples paired with their cumulative fraction."""
    return list(_cdf_rows(values))


def _cdf_rows(values: list[float]) -> Iterator[tuple[float, float]]:
    """:func:`empirical_cdf`'s rows, one at a time."""
    ordered = sorted(values)
    n = len(ordered)
    return ((v, (i + 1) / n) for i, v in enumerate(ordered))


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
    boost: list[tuple[float, str, float]] = []
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
            boost.extend((t, name, delta) for t, delta in store.boost_records)
    boost.sort(key=lambda e: (e[0], e[1]))
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
    the identical trace and seed."""
    trace = _scenario_trace(config)
    return {mode: run_built_scenario(build_scenario(config, trace, mode), mode) for mode in MODES}


# -- report files ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


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

    cdf_path = _write_csv(
        out / "latency_cdf.csv",
        "latency_ms,cum_fraction",
        (f"{_fmt(v)},{_fmt(fraction)}" for v, fraction in _cdf_rows(report.latencies())),
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
            f"{i},{_fmt(t)},{events[i][1]},{_fmt(delta)},{_fmt(total)},{_fmt(total / (i + 1))}"
            for i, t, delta, total in report._boost_rows()
        ),
    )

    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(report.summary_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return [cdf_path, reuse_path, boost_path, summary_path]

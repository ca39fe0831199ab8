"""Deterministic simulator for transparent distributed caching in
vehicular edge pub/sub networks."""

from .model import (
    DetectedObject,
    Header,
    ImageRef,
    Message,
    ObjectList,
    PayloadKind,
    Pose,
    Topic,
    content_key,
    translate_location,
)
from .objectmap import ObjectMapParams, ObjectMapStore, UpdateRule, quantize, share_filter
from .genie import (
    DedupFilter,
    GenieNode,
    GenieRole,
    ServiceSpec,
    TopicCacheDB,
)
from .simnet import Fabric, Link, SimNode
from .workload import (
    DetectorNode,
    DeviceProfile,
    SynthSpec,
    Trace,
    TraceFrame,
    detector_stub,
    load_device_profiles,
    load_trace,
    save_trace,
    synth_trace,
)
from .harness import (
    MetricsReport,
    ScenarioConfig,
    compare_baselines,
    emit_report,
    run_scenario,
)

__version__ = "0.1.0"

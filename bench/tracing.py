"""Span tracing for the benchmark's traced run.

The tracer replaces the public entry points of each geniesim module with
thin wrappers that record one span per call: name, start, end, the span
that was open when the call began (its parent) and, where the call
receives a message, the request's ``header.key``, so every span of one
request shares an identifier.  Spans stay in memory until the run ends.
:meth:`Tracer.restore` puts every original attribute back, so an untraced
run in the same process pays nothing.

Self time is a span's duration minus the time its child spans cover.  The
event loop is single-threaded, so children nest strictly inside their
parent and the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("model", "simnet", "genie", "objectmap", "workload", "harness")


class Span:
    __slots__ = ("name", "start", "end", "parent", "key")

    def __init__(self, name: str, start: float, end: float, parent: int, key) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.key = key


@dataclass
class EntryStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the summed duration of its direct children."""
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start
    return self_s


def aggregate(spans: list[Span]) -> dict[str, EntryStats]:
    """Calls, inclusive time and self time per entry-point name.  No wrapped
    entry point calls itself, so inclusive times never overlap."""
    stats: dict[str, EntryStats] = {}
    for s, own in zip(spans, self_times(spans)):
        e = stats.setdefault(s.name, EntryStats())
        e.calls += 1
        e.total_s += s.end - s.start
        e.self_s += own
    return stats


def message_key(index: int) -> Callable[[tuple], object]:
    """Key extractor for a wrapped call whose positional argument ``index``
    is a message."""

    def key(args: tuple):
        return args[index].header.key if len(args) > index else None

    return key


def header_key(index: int) -> Callable[[tuple], object]:
    """Key extractor for a wrapped call whose positional argument ``index``
    is a header."""

    def key(args: tuple):
        return args[index].key if len(args) > index else None

    return key


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.returned: dict[str, float] = {}  # name -> sum of return values
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`restore`.  The original must be
        defined on ``owner`` itself, not inherited."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        key_of: Callable[[tuple], object] | None = None,
        sum_result: bool = False,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.
        With ``sum_result``, numeric return values are summed under the
        same name in :attr:`returned`."""
        original = vars(owner)[attr]
        spans, stack, clock, returned = self.spans, self._stack, time.perf_counter, self.returned
        if sum_result:
            returned.setdefault(name, 0)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        key_of(args) if key_of else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if sum_result:
                returned[name] += result
            return result

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as JSON lines, in start order: id, parent, name, start and
        end (seconds from the first span), key."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                key = None if s.key is None else f"{s.key[0]}:{s.key[1]}"
                fh.write(json.dumps(
                    [i, s.parent, s.name, s.start - t0, s.end - t0, key],
                    separators=(",", ":"),
                ) + "\n")


def layer_self_s(stats: dict[str, EntryStats]) -> dict[str, float]:
    """Self time summed over each layer's entry points."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, e in stats.items():
        out[name.split(".", 1)[0]] += e.self_s
    return out


def instrument(tracer: Tracer) -> dict[str, int]:
    """Wrap the public entry points of every geniesim layer.

    Returns a dict whose ``"queue_peak"`` entry tracks the largest event
    heap seen while instrumented.  ``content_key`` is wrapped at both of its
    import sites: ``geniesim.genie`` imports it by name, so patching only
    ``geniesim.model`` would miss every call the cache makes.
    """
    from geniesim import genie, harness, model, objectmap, simnet, workload

    tracer.wrap(simnet.Fabric, "run_until", "simnet.run_until")
    tracer.wrap(simnet.Fabric, "publish", "simnet.publish", message_key(2))
    tracer.wrap(genie.GenieNode, "on_message", "genie.on_message", message_key(5))
    tracer.wrap(genie.TopicCacheDB, "purge_expired", "genie.purge_expired", sum_result=True)
    tracer.wrap(genie.TopicCacheDB, "add_waiter", "genie.add_waiter", header_key(3))
    tracer.wrap(genie.TopicCacheDB, "fill", "genie.fill")
    tracer.wrap(model, "content_key", "model.content_key", message_key(0))
    tracer.wrap(genie, "content_key", "model.content_key", message_key(0))
    tracer.wrap(objectmap.ObjectMapStore, "augment", "objectmap.augment")
    tracer.wrap(objectmap.ObjectMapStore, "ingest", "objectmap.ingest", message_key(1))
    tracer.wrap(workload, "synth_trace", "workload.synth_trace")
    tracer.wrap(workload.DetectorNode, "on_message", "workload.detector", message_key(5))
    tracer.wrap(harness, "build_genie_scenario", "harness.build_genie_scenario")
    tracer.wrap(harness, "run_built_scenario", "harness.run_built_scenario")
    tracer.wrap(harness.ConsumerNode, "on_message", "harness.consumer", message_key(5))
    tracer.wrap(harness, "collect_report", "harness.collect_report")
    tracer.wrap(harness, "emit_report", "harness.emit_report")

    peak = {"queue_peak": 0}
    push = vars(simnet.EventQueue)["push"]

    def counted_push(queue, due_ms, item):
        push(queue, due_ms, item)
        if len(queue) > peak["queue_peak"]:
            peak["queue_peak"] = len(queue)

    tracer.patch(simnet.EventQueue, "push", counted_push)
    return peak

"""Host-speed sampling, so that timings on a shared machine hold still.

On a shared host the speed of one core swings by up to 2x within a second
as neighbours come and go.  A rep timed with a plain clock inherits that
swing.  :class:`SpeedSampler` times a block while a ``SIGALRM`` timer runs a
fixed probe loop every :data:`PERIOD_S`.  Each stretch of work between two
probes is rescaled by how long those probes took relative to
:data:`NOMINAL_PROBE_S`, so the sum is the time the block would have taken
on a host running the probe at its nominal speed.

The probe calls nothing in geniesim, so no change to the simulator moves
it.  Probes run in the main thread between bytecodes and touch no
simulator state, so the simulated outputs are unchanged.
"""

from __future__ import annotations

import hashlib
import heapq
import signal
import statistics
import time

# typical probe_loop() time on the machine the bounds were tuned on
NOMINAL_PROBE_S = 0.012
PERIOD_S = 0.1


class _Item:
    __slots__ = ("seq", "digest", "pos")

    def __init__(self, seq: int, digest: str, pos: tuple[int, float]) -> None:
        self.seq = seq
        self.digest = digest
        self.pos = pos


def probe_loop(n: int = 1500) -> int:
    """Fixed pure-Python work of the kinds the simulator does per message:
    sha256 hex digests, dict inserts, small slotted objects, a heap and
    short sorts."""
    table: dict[str, _Item] = {}
    heap: list[tuple[int, int, _Item]] = []
    acc = 0
    for i in range(n):
        digest = hashlib.sha256(f"k{i % 997}|{i}".encode()).hexdigest()
        item = _Item(i, digest, (i, i * 0.5))
        table[digest[:12]] = item
        heapq.heappush(heap, (i * 7919 % 1009, i, item))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1]
        acc += len(sorted((digest[j], j) for j in range(0, 16, 4)))
    return acc + len(table)


class PlainTimer:
    """Wall time of a block, with the same ``work_s`` as SpeedSampler."""

    def __enter__(self) -> "PlainTimer":
        self.work_s = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.work_s = time.perf_counter() - self.work_s


class SpeedSampler:
    """Context manager; after the block, ``work_s`` is its wall time minus
    the probes, ``nominal_s`` the same work at nominal host speed and
    ``probe_s`` the median probe time."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end) per probe
        self.work_s = self.nominal_s = self.probe_s = 0.0
        self._active = False
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._probe()
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
            stretch = s1 - e0
            self.work_s += stretch
            self.nominal_s += stretch * 2 * NOMINAL_PROBE_S / ((e0 - s0) + (e1 - s1))
        self.probe_s = statistics.median(e - s for s, e in self.marks)

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._probe()

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.marks.append((t0, time.perf_counter()))

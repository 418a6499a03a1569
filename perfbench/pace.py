"""Host speed, read from a fixed reference kernel timed beside the program.

The benchmark shares a few cores of a busy host.  Over tens of seconds
the speed of those cores moves by up to about 40%, in stretches long
enough to slow every sample of a run alike, so a median of raw host
seconds moves with the host rather than with the program.

:meth:`Pace.timed` therefore interrupts the call it times every
``PERIOD`` host seconds (``SIGALRM``) to *probe*: to time a fixed
pure-Python kernel that lives here, not in the simulator, so no change to
the program can speed it up.  The kernel does what the simulator's hot
loops do (attribute reads on many small objects, dict lookups over a
table the size of a large fabric, float ``min`` and a binary heap), so a
slow stretch slows both alike.  The probes' own time is not counted.
Each stretch of ``s`` host seconds between probes ``a`` and ``b``
counts as ``s * REFERENCE_S / ((a + b) / 2)`` seconds: the time it would
have taken on a host where one probe takes ``REFERENCE_S``.

The simulator is deterministic and never reads the clock, so the
interruptions cannot change what it computes; the benchmark's output
checks confirm this on every run.  Needs ``signal.setitimer`` (Unix).
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from typing import Any, Callable, List, Tuple, TypeVar

clock = time.perf_counter
T = TypeVar("T")

#: Probe time of the nominal host, in seconds; about what one probe
#: takes on an idle 2-vCPU x86-64 Linux VM under CPython 3.11, so that
#: scaled seconds read like host seconds there.
REFERENCE_S = 0.005

#: Host seconds between probes inside a timed call.
PERIOD = 0.25

#: Kernel timings per probe; the fastest one is the probe, so a stray
#: interrupt inside one timing does not move it.
PROBE_REPEATS = 3

_LINKS = 20_000
_PATHS = 1_500
_HOPS = 6


class _Link:
    __slots__ = ("capacity", "used")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.used = 0.0


class Pace:
    """Probes of the host's current speed, and calls timed against them."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._links = {i: _Link(1e9 + i) for i in range(_LINKS)}
        self._paths: List[Tuple[int, ...]] = [
            tuple(rng.randrange(_LINKS) for _ in range(_HOPS))
            for _ in range(_PATHS)
        ]
        #: (start, end, probe) of each probe taken inside the timed call
        self._marks: List[Tuple[float, float, float]] = []
        self.probe()  # first touch of the table is not a probe

    def _kernel(self) -> float:
        links = self._links
        heap: List[Tuple[float, int]] = []
        for index, path in enumerate(self._paths):
            share = min(links[hop].capacity for hop in path) / len(path)
            for hop in path:
                links[hop].used += share
            heapq.heappush(heap, (share, index))
        total = 0.0
        while heap:
            total += heapq.heappop(heap)[0]
        for link in links.values():
            link.used = 0.0
        return total

    def probe(self) -> float:
        """Host seconds of one kernel run now, the fastest of a few."""
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = clock()
            self._kernel()
            best = min(best, clock() - start)
        return best

    def _on_alarm(self, signum: int, frame: Any) -> None:
        start = clock()
        value = self.probe()
        self._marks.append((start, clock(), value))
        # one-shot, re-armed after the probe, so probes never nest
        signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def timed(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """``call()``, its raw host seconds and its seconds at the nominal
        speed, both without the probes taken inside it."""
        before = self.probe()
        self._marks = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = clock()
            signal.signal(signal.SIGALRM, previous)
        # a probe the handler took after the timer was stopped is not inside
        marks = [m for m in self._marks if m[0] < end] + [(end, end, self.probe())]
        raw = scaled = 0.0
        for probe_start, probe_end, value in marks:
            stretch = probe_start - start
            raw += stretch
            scaled += stretch * REFERENCE_S * 2.0 / (before + value)
            start, before = probe_end, value
        return result, raw, scaled

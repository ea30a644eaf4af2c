"""Host-speed correction for the benchmark's timings.

The shared host this benchmark runs on changes speed by up to 1.5x within
tens of seconds, and the same pure-Python loop slows with it, so raw
seconds from two runs of the same code can differ by more than any useful
bound.  :class:`HostClock` measures the host's speed *while* the program
runs: a ``SIGALRM`` interval timer interrupts the process every
:data:`PERIOD_S` and times a fixed probe -- a small event loop over a heap
of timers and a few objects, the kind of work the simulator does.  Its
working set is a few KiB, so how much of the cache the program used
before a probe barely changes the probe's time.  A window's
host factor is the probe's mean time in it divided by :data:`NOMINAL_S`.
:func:`corrected` turns raw seconds into *nominal seconds*: the probe's
own time is taken out and the rest divided by the host factor, so a value
reads as the time the work would take on a host where one probe takes
``NOMINAL_S``.

The probe allocates nothing that outlives it and touches no state of the
program, so the program's outputs are the same with the clock installed
(every pass is fingerprinted).  Child processes forked while the clock is
installed do not inherit its timer; runner-sweep installs one in each
worker instead.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from typing import Tuple

#: Seconds between probes.
PERIOD_S = 0.01
#: Heap operations per probe.
PROBE_STEPS = 800
#: The probe time (s) that defines host factor 1; about the probe's median
#: on a quiet 2-vCPU VM at 2.0 GHz with CPython 3.
NOMINAL_S = 0.6e-3

_TIMERS = 64
_ITEMS = 16


class _Item:
    __slots__ = ("t", "step")

    def __init__(self, t: float, step: float) -> None:
        self.t = t
        self.step = step


class HostClock:
    """Samples the host's speed while used as a context manager; at most
    one may be installed at a time."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._items = [_Item(0.0, rng.random()) for _ in range(_ITEMS)]
        self._heap = [[rng.random(), i % _ITEMS] for i in range(_TIMERS)]
        heapq.heapify(self._heap)
        self.probes = 0
        self.probe_s = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        heap, items = self._heap, self._items
        for _ in range(PROBE_STEPS):
            entry = heapq.heappop(heap)
            item = items[entry[1]]
            entry[0] += item.step
            item.t = entry[0]
            heapq.heappush(heap, entry)
        self.probe_s += time.perf_counter() - started
        self.probes += 1

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[int, float]:
        """Probe count and probe seconds so far; pass to :meth:`since`."""
        return self.probes, self.probe_s

    def since(self, mark: Tuple[int, float]) -> Tuple[int, float]:
        """Probes run, and seconds spent in them, since ``mark``."""
        return self.probes - mark[0], self.probe_s - mark[1]


def host_factor(window: Tuple[int, float]) -> float:
    """How much slower than nominal the host ran in ``window``, a
    :meth:`HostClock.since` result; 1.0 when no probe ran in it."""
    probes, probe_s = window
    return probe_s / probes / NOMINAL_S if probes else 1.0


def corrected(raw_s: float, elapsed_s: float, window: Tuple[int, float]) -> float:
    """Nominal seconds for ``raw_s`` host seconds of work done inside a
    window of ``elapsed_s`` seconds.  The probes interrupted the work, so
    their share of the window is taken out of ``raw_s`` first."""
    probes, probe_s = window
    share = probe_s / elapsed_s if elapsed_s > 0 else 0.0
    return raw_s * (1.0 - share) / host_factor(window)

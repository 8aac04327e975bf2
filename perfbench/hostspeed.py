"""Host-speed calibration: a fixed pure-Python kernel timed beside the
work it calibrates.

The benchmark host is shared.  Its speed wanders by up to a factor of
two, in spells from seconds to minutes, in CPU time as well as wall
time, so two runs of the same cell can differ by more than any useful
bound.  A fixed kernel slows down with the cell it is timed next to:
the host time of a cell divided by the kernel's time beside it holds
to a few percent where the raw time varies by tens of percent (see
README, "Steadiness").

Measured times are reported at the *nominal* host speed: multiplied by
``NOMINAL_KERNEL_S / kernel seconds``.  The raw times stay in the run
record.  The kernel imports nothing from the program and runs while
the program is idle, with the garbage collector off, so a change to
the program cannot change the kernel's own cost.
"""

from __future__ import annotations

import gc
import heapq
import time

NOMINAL_KERNEL_S = 0.040
"""The kernel's time on the host the benchmark was sized on, at its
usual (busy-neighbour) speed.  Only a unit: every normalised figure
scales with it alike."""

_STEPS = 12000
_SETS = 256
_WAYS = 8


class _Line:
    __slots__ = ("tag", "stamp", "dirty")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp
        self.dirty = False


def _kernel() -> int:
    """An event-queue-driven LRU set-associative cache over a fixed
    pseudo-random address stream: the interpreter work (heap, dicts,
    attribute access, small objects) the simulator does."""
    sets = [dict() for _ in range(_SETS)]
    heap = [(i, i) for i in range(16)]
    state, hits = 12345, 0
    for step in range(_STEPS):
        when, thread = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = (state >> 8) % (_SETS * 32)
        ways = sets[block % _SETS]
        line = ways.get(block)
        if line is not None:
            hits += 1
            line.stamp = step
            line.dirty = not line.dirty
        else:
            if len(ways) >= _WAYS:
                del ways[min(ways, key=lambda tag: ways[tag].stamp)]
            ways[block] = _Line(block, step)
        heapq.heappush(heap, (when + 1 + (state & 7), thread))
    return hits


def kernel_seconds() -> float:
    """Host seconds of one kernel pass, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured beside a kernel pass of ``kernel_s``,
    rescaled to the nominal host speed."""
    return seconds * NOMINAL_KERNEL_S / kernel_s

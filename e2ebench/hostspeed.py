"""The host-speed reference that the benchmark's times are scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts
with its neighbours' load: a fixed pure-Python loop timed in 5 s windows
varies by up to 65% within a minute, and CPU time tracks wall time, so
there is no steal to subtract.  More samples per run cannot remove a
slowdown that covers the whole run.

So the runner times this module's fixed reference work, a few times,
between every two measured steps.  Each step's wall time is divided by
the median reference time around it and multiplied by
:data:`REFERENCE_S`: the result is the step's time on a host where the
reference takes :data:`REFERENCE_S`, in the same units.  A change to the
program moves its steps and not the reference, so it moves the scaled
times as it would the wall times on a steady host.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, List, Sequence

#: The reference's time on the nominal host the scaled times refer to
#: (its median on a 2.1 GHz Xeon core of a shared host).
REFERENCE_S = 0.17e-3

#: Reference runs between two measured steps.
PROBES_PER_GAP = 3

_HAYSTACK = bytes(range(256)) * 256
_COPY = bytearray(len(_HAYSTACK))
_TABLE = dict.fromkeys(range(128), 0)
_CHAIN = list(range(4096))
random.Random(0).shuffle(_CHAIN)


def reference_work() -> int:
    """Fixed work in the program's mix: interpreted arithmetic and dict
    stores, a 64 KiB copy and a byte search over it, then a chase of
    list indices that takes about a third as long as the rest.

    The chase slows down more than the rest when the host is loaded, as
    the simulation's sessions do; without it, scaled session times still
    moved with the host's load.  Nothing here allocates an object the
    cyclic collector tracks, so the reference never triggers a collection.
    """
    total = 0
    for i in range(600):
        _TABLE[i & 127] = total
        total = (total + i * 31) & 0xFFFF
    _COPY[:] = _HAYSTACK
    total += _COPY.find(b"\xfe\xfd")
    index = 0
    for _ in range(1200):
        index = _CHAIN[index]
        total += index
    return total


class Reference:
    """Times :func:`reference_work` and turns wall times into scaled ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Every reference time taken, in seconds.
        self.times: List[float] = []

    def sample(self) -> List[float]:
        """Run the reference :data:`PROBES_PER_GAP` times; returns their times."""
        taken = []
        for _ in range(PROBES_PER_GAP):
            started = self.clock()
            reference_work()
            taken.append(self.clock() - started)
        self.times.extend(taken)
        return taken

    @staticmethod
    def slowdown(around: Sequence[float]) -> float:
        """How much slower than nominal the host ran, judged from the
        reference times ``around`` a step."""
        return statistics.median(around) / REFERENCE_S

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3

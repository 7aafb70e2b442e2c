"""Fixed pure-Python kernels that measure how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed wanders by
up to a quarter over tens of seconds; the kernel slows down and speeds up
with it (a wall-time and a CPU-time reading move alike).  Timing this
kernel between items and dividing each item's time by the kernel's local
time takes that wander out: an item's *reference* time is its wall time
on a machine that runs the kernel in exactly REF_S seconds.

The speed also changes within a second, so the samples nearest to an
item say the most about it.  After every item the kernel runs at least
once and until its runs add up to SHARE of the item's time, so a long item
is followed by many samples.  The local kernel time of an item is the
median of the WINDOW samples just before it and the WINDOW just after.

A kernel must do the kind of work the timed code does, because the host's
wander does not slow all code alike: while a set-and-tuple kernel ran
anywhere from 7.5 to 12.4 ms, the integer loop of the threshold scan moved
half as much.  So there are two kernels, and each workload names its own
(corpus.KERNEL):

* `mixed`: greedy matchings over a small fixed 3-uniform edge list (tuples,
  dicts, set tests, list filtering) and membership tests of generated
  sorted triples in a large edge set, as the solvers and the closeness
  code make them;
* `bits`: the threshold scan's loop, subset tests of integer bitmasks and
  popcounts, over a fixed range of masks.

Neither depends on anything in `src/`, so a change to the program never
moves them.
"""

from __future__ import annotations

import bisect
import statistics
from itertools import combinations
from time import perf_counter

# A kernel's time at reference speed.  Both kernels take about this long
# on the 2-core x86-64 VM the benchmark was written on, so reference times
# read close to wall times there.
REF_S = 0.012
# Calibration time after an item, as a share of the item's time.
SHARE = 0.2
# Samples on each side of an item that make up its local speed.
WINDOW = 3


def _edges(n: int = 30, m: int = 420, seed: int = 12345) -> list[tuple[int, int, int]]:
    """m distinct sorted triples on n vertices from a fixed linear congruential stream."""
    x = seed
    out: set[tuple[int, int, int]] = set()
    while len(out) < m:
        trip = []
        while len(trip) < 3:
            x = (6364136223846793005 * x + 1442695040888963407) % (1 << 64)
            v = (x >> 33) % n
            if v not in trip:
                trip.append(v)
        out.add(tuple(sorted(trip)))
    return sorted(out)


EDGES = _edges()
BIG = set(_edges(n=60, m=12000, seed=54321))


def mixed_kernel(stride: int = 42, span: int = 56) -> int:
    """Greedy matchings from every stride-th start edge, then lookups of span-vertex triples."""
    deg: dict[int, int] = {}
    for e in EDGES:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    total = 0
    for start in EDGES[::stride]:
        covered = set(start)
        avail = [e for e in EDGES if covered.isdisjoint(e)]
        size = 1
        while avail:
            e = min(avail, key=lambda f: (deg[f[0]] + deg[f[1]] + deg[f[2]], f))
            covered.update(e)
            avail = [f for f in avail if covered.isdisjoint(f)]
            size += 1
        total += size
    for a, b in combinations(range(10, span), 2):
        for w in range(10):
            total += tuple(sorted((a, b, w))) in BIG
    return total


TRIPLE_MASKS = [sum(1 << i for i, t in enumerate(combinations(range(6), 3)) if v in t) for v in range(6)]
SINGLE_MASKS = [1 << i for i in range(20)]


def bits_kernel(masks: int = 4000) -> int:
    """Masks with some single-bit subset, and the least popcount over the vertex masks."""
    total = 0
    for mask in range(1 << 19, (1 << 19) + masks):
        if any(mask & ds == ds for ds in SINGLE_MASKS):
            total += min((mask & inc).bit_count() for inc in TRIPLE_MASKS)
    return total


KERNELS = {"mixed": mixed_kernel, "bits": bits_kernel}


class Clock:
    """Samples of one kernel with the time each was taken, and the scale they give."""

    def __init__(self, kernel: str = "mixed"):
        self.kernel = KERNELS[kernel]
        self.at: list[float] = []  # midpoint of each sample, perf_counter seconds
        self.took: list[float] = []  # its duration in seconds

    def probe(self, busy_s: float = 0.0) -> None:
        """Run the kernel once, and again until the runs add up to SHARE * busy_s."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            self.kernel()
            t1 = perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)
            spent += t1 - t0
            if spent >= SHARE * busy_s:
                return

    def scale(self, start: float) -> float:
        """Factor that turns the wall time of a span starting at `start` into reference time.

        The span must lie between two probes, so no sample falls inside it.
        """
        j = bisect.bisect_left(self.at, start)
        return REF_S / statistics.median(self.took[max(0, j - WINDOW) : j + WINDOW])

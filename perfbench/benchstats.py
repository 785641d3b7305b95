"""Arithmetic of the benchmark: percentiles, subset-candidate counts,
seed ranges and self time from nested spans. Imports nothing from
pluralrw, so the tests in perfbench/tests can check it on its own."""

import math
import statistics
import time
from collections import defaultdict

# percentiles tried for the tail, highest last
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def ops_beyond(n, pct):
    """How many of n samples lie above the nearest-rank percentile."""
    return n - max(1, math.ceil(pct * n / 100.0))


def tail(values):
    """(percentile, value) for the highest ladder percentile that has at
    least TAIL_MIN_BEYOND samples beyond it. With too few samples for any
    ladder step the slowest sample stands in, reported as percentile 100."""
    ordered = sorted(values)
    chosen = None
    for pct in TAIL_LADDER:
        if ops_beyond(len(ordered), pct) >= TAIL_MIN_BEYOND:
            chosen = pct
    if chosen is None:
        return 100.0, ordered[-1]
    return chosen, nearest_rank(ordered, chosen)


def median(values):
    return statistics.median(values)


def subset_candidates(n, width):
    """Non-empty subsets of at most `width` out of n substitutions: the
    candidates `compressible_subsets` tests. A width of 0 or None means
    no limit, as in that function."""
    top = min(width, n) if width else n
    return sum(math.comb(n, k) for k in range(1, top + 1))


def parse_seeds(text):
    """The seeds of a range `A..B`, or of a single seed `A`."""
    lo, sep, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if sep else a
    if b < a:
        raise ValueError("empty seed range %s" % text)
    return list(range(a, b + 1))


def ratio(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    """Nested spans with self time computed as they close.

    A span's self time is its duration minus the time its child spans
    cover. Only sums per span name are kept, so hot leaf calls cost no
    memory; `counts` holds the plain event counters of the layers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    @property
    def depth(self):
        return len(self._stack)

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        dur = self.clock() - start
        self.total_s[name] += dur
        self.self_s[name] += dur - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def unwind(self, depth):
        """Close every span above `depth`, as after an interrupted op."""
        while len(self._stack) > depth:
            self.exit()

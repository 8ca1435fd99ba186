"""Host-speed reference for the end-to-end timings.

The benchmark runs on a shared host whose speed drifts by up to 2x over
minutes, as other tenants come and go, and flips between a fast and a
slow state (about 1.5x apart) every few seconds. A run therefore also
times a fixed reference kernel, owned by the benchmark and independent
of ``kssp``: a pure-Python heap Dijkstra over a pinned 100x100 grid, the
same kind of interpreter work (heap operations, list indexing, float
compares) as a solve. It is timed three times at the start and then
between the timed calls, for ``SHARE`` of the run's time.

``corrected(start, end)`` scales the wall time of one timed call to a
host where the kernel takes ``NOMINAL_S``: it multiplies it by
``NOMINAL_S`` over the harmonic mean of the last kernel time before the
call and the first one after it, so each call is judged by the host
state around it. A change to ``kssp`` moves a corrected time as it moves
the raw one, since the kernel does not call ``kssp``. ``factor()`` is
the same ratio over the whole run, printed for reference.
"""
from __future__ import annotations

import gc
import heapq
from bisect import bisect_left, bisect_right
from statistics import harmonic_mean
from time import perf_counter

SIDE = 100
# Kernel time taken as the nominal host speed: about the kernel time on a
# quiet 2-core x86-64 host with Python 3.11 when the benchmark was defined.
NOMINAL_S = 0.015
SHARE = 0.05  # of the run's time spent timing the kernel
WARMUP = 3  # kernel calls timed at the start of a run and kept


def _grid() -> list[list[tuple[int, float]]]:
    """4-neighbour SIDE x SIDE grid, arc costs 1..100 from a fixed xorshift."""
    state = 0x9E3779B97F4A7C15
    adj: list[list[tuple[int, float]]] = [[] for _ in range(SIDE * SIDE)]
    for v in range(SIDE * SIDE):
        x, y = divmod(v, SIDE)
        for a, b in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= a < SIDE and 0 <= b < SIDE:
                state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
                state ^= state >> 7
                state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
                adj[v].append((a * SIDE + b, float(1 + state % 100)))
    return adj


def _dijkstra(adj: list[list[tuple[int, float]]]) -> float:
    """Distance sum from node 0, settling every node."""
    dist = [float("inf")] * len(adj)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    done = [False] * len(adj)
    total = 0.0
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        total += d
        for w, c in adj[v]:
            nd = d + c
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return total


class HostSpeed:
    def __init__(self, collect: bool) -> None:
        self._adj = _grid()
        self._collect = collect
        self._expected = _dijkstra(self._adj)
        self.samples: list[float] = []
        self._at: list[float] = []  # midpoint of each kernel timing
        self._spent = 0.0
        self._start = perf_counter()
        self._collect_garbage()
        for _ in range(WARMUP):
            self._time()

    def _collect_garbage(self) -> None:
        if self._collect:
            gc.collect()

    def _time(self) -> None:
        t0 = perf_counter()
        total = _dijkstra(self._adj)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._at.append((t0 + t1) / 2)
        self._spent += t1 - t0
        if total != self._expected:
            raise RuntimeError("host-speed kernel gave a different result")

    def sample(self) -> None:
        """Time the kernel until it has taken SHARE of the run so far."""
        if self._behind():
            self._collect_garbage()
            while self._behind():
                self._time()

    def _behind(self) -> bool:
        return self._spent < SHARE * (perf_counter() - self._start)

    def finish(self) -> None:
        """Time the kernel once more, after the run's last timed call."""
        self._collect_garbage()
        self._time()

    def factor(self) -> float:
        return NOMINAL_S / harmonic_mean(self.samples)

    def corrected(self, start: float, end: float) -> float:
        """``end - start`` at nominal speed, by the kernel timings next to it."""
        i = bisect_left(self._at, start)
        j = bisect_right(self._at, end)
        near = self.samples[max(i - 1, 0):i] + self.samples[j:j + 1]
        return (end - start) * NOMINAL_S / harmonic_mean(near)

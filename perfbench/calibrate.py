"""Machine speed, read from a fixed pure-Python kernel between jobs.

On a shared host, the same job can take up to 2x longer for minutes at
a time while other tenants load the cores. The kernel below does the
kind of work the program does (a heap-based Dijkstra over tuples and
lists) and is timed after every job. Each job's time is then scaled by
NOMINAL_S / (mean kernel time just before and just after the job). This
gives seconds at the host's nominal speed. The benchmark's own code is
fixed, so a change to the program cannot move the kernel.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time

# Median kernel time on an idle 2-core x86-64 host, CPython 3.11.
NOMINAL_S = 0.019

_N = 400
_rng = random.Random(20140203)
_ADJ: list[list[tuple[int, float]]] = [[] for _ in range(_N)]
for _ in range(3 * _N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        _w = _rng.random()
        _ADJ[_u].append((_v, _w))
        _ADJ[_v].append((_u, _w))


def _kernel() -> float:
    total = 0.0
    for src in range(0, _N, 10):
        dist = [float("inf")] * _N
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(x for x in dist if x < float("inf"))
    return total


def kernel_seconds() -> float:
    """Median time of three back-to-back runs of the kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)

"""How fast the host runs Python right now, for the fairsim benchmark.

On a shared host the same code runs at different speeds from one minute to
the next, as the neighbours' load comes and goes. The benchmark runs this
fixed kernel between its iterations and scales each iteration's wall time
by how long the kernel took then, relative to REFERENCE_S:

    run_s = wall time * REFERENCE_S / kernel time around the iteration

so a reported time is the iteration's time at the reference speed. The
kernel does what fairsim spends its time on (heap pushes and pops of
tuples, dict updates, small objects, method calls, seeded random draws)
and never calls fairsim, so a change to fairsim cannot move it.
"""
from __future__ import annotations

import heapq
import random
import time

# About the kernel's time, in seconds, on the 2-vCPU x86_64 host
# (CPython 3.11) the benchmark was built on. Only ratios between runs
# matter; this constant keeps reported times close to seconds.
REFERENCE_S = 0.030
ROUNDS = 4000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.key * 3 + self.value


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    rng = random.Random(7)
    heap: list = []
    totals: dict = {}
    start = time.perf_counter()
    for i in range(ROUNDS):
        for j in range(4):
            heapq.heappush(heap, (rng.random(), i, j))
        item = _Item(i % 97, i)
        totals[item.key] = totals.get(item.key, 0) + item.weight()
        for _ in range(3):
            heapq.heappop(heap)
    return time.perf_counter() - start


def factor() -> float:
    """How much slower than the reference the host runs Python now."""
    return kernel_seconds() / REFERENCE_S

"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same op runs up to 2x slower while the neighbours are
busy, in bursts of seconds and in phases of minutes, and CPU time moves
with wall time.  A run therefore times a fixed reference kernel between
every two ops and scales each op's time by REF_S over the mean of the
kernel times just before and just after it.  Host slowness hits the op and
its neighbouring kernels alike and cancels; a change in the program's own
cost does not, because the kernels do not call the program.

Each kernel does the same kind of work as its workload's op, so that host
contention slows both alike: interpreted graph code (lists, ints, a BFS)
for the census workloads, big-integer multiplication for spectral.  The
kernels' inputs are fixed and never depend on --seed, so they cost the
same in every run and in every commit.
"""

from __future__ import annotations

import gc
import random
import time

# Nominal seconds of either kernel.  The graph kernel takes about this on a
# quiet host (an Intel Xeon with 2 vCPUs, CPython 3.11), so census times
# scaled by it read as seconds there; the big-integer kernel takes about
# 0.04 s there, so spectral scaled times read about a quarter higher.
REF_S = 0.05

_ORDER = 2000
_ROOT_STEP = 25
_BITS = 1 << 19


def _graph() -> list[list[int]]:
    rng = random.Random("reference-graph")
    nbrs = [[] for _ in range(_ORDER)]
    for u in range(_ORDER):
        for v in rng.sample(range(_ORDER), 4):
            if v != u:
                nbrs[u].append(v)
                nbrs[v].append(u)
    return nbrs


class GraphKernel:
    """BFS from every 25th vertex of a fixed random graph of order 2000."""

    def __init__(self) -> None:
        self.nbrs = _graph()

    def __call__(self) -> int:
        nbrs = self.nbrs
        total = 0
        for root in range(0, _ORDER, _ROOT_STEP):
            dist = [-1] * _ORDER
            dist[root] = 0
            queue = [root]
            for u in queue:
                du = dist[u] + 1
                for w in nbrs[u]:
                    if dist[w] < 0:
                        dist[w] = du
                        queue.append(w)
            total += sum(dist)
        return total


class BigIntKernel:
    """One product of two fixed 2^19-bit integers."""

    def __init__(self) -> None:
        self.a = random.Random("reference-a").getrandbits(_BITS)
        self.b = random.Random("reference-b").getrandbits(_BITS)

    def __call__(self) -> int:
        return (self.a * self.b).bit_length()


class Reference:
    """Times the workload's kernel; the first call fixes the kernel's
    result, and every later call must give the same."""

    def __init__(self, workload: str) -> None:
        self.kernel = BigIntKernel() if workload == "spectral" else GraphKernel()
        self.expected = self.kernel()

    def time(self) -> float:
        gc.collect()
        start = time.perf_counter()
        result = self.kernel()
        elapsed = time.perf_counter() - start
        if result != self.expected:
            raise RuntimeError(f"reference kernel gave {result}, expected {self.expected}")
        return elapsed

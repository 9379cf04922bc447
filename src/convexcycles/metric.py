"""Per-root BFS with exact shortest-path counting.

Distances of unreachable vertices are None (never a large finite number);
girth and diameter use math.inf for "no cycle" / "disconnected".  Path
counts are plain Python integers, so they stay exact no matter how fast
they grow.  bfs_record gives one full row.  It is the slow path that
is_convex_cycle and the brute-force oracle read, and it runs the census
pass's two eccentricity sweeps; the pass's planes kernel and its one
counting BFS row loop, and the tests' oracles, run BFS loops of their own.
"""

from __future__ import annotations

from .errors import OutOfRange
from .graphs import Graph, _Record


class DistanceRecord(_Record):
    """BFS result from one root.

    sigma[v] is the exact number of distinct shortest root-v paths (0 when
    unreachable).  Paths are rebuilt through the graph's adjacency from the
    neighbors w of v with dist[w] == dist[v] - 1.
    """

    __slots__ = ("root", "dist", "sigma")
    root: int
    dist: tuple[int | None, ...]
    sigma: tuple[int, ...]


class MetricProfile(_Record):
    """Girth, diameter and connectivity of one graph."""

    __slots__ = ("girth", "diameter", "connected")
    girth: int | float
    diameter: int | float
    connected: bool


def bfs_record(g: Graph, root: int) -> DistanceRecord:
    """Distances and exact shortest-path counts from one root."""
    if not 0 <= root < g.n:
        raise OutOfRange(f"root {root} outside 0..{g.n - 1}")
    dist: list[int | None] = [None] * g.n
    sigma = [0] * g.n
    dist[root] = 0
    sigma[root] = 1
    order = [root]
    for u in order:
        du1 = dist[u] + 1
        su = sigma[u]
        for w in g.adjacency[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                sigma[w] = su
                order.append(w)
            elif dw == du1:
                sigma[w] += su
    return DistanceRecord(root, tuple(dist), tuple(sigma))

"""Per-root BFS with exact shortest-path counting, girth, and diameter.

Distances of unreachable vertices are None (never a large finite number);
girth and diameter use math.inf for "no cycle" / "disconnected".  Path
counts are plain Python integers, so they stay exact no matter how fast
they grow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import OutOfRange
from .graphs import Graph


@dataclass(frozen=True)
class DistanceRecord:
    """BFS result from one root.

    sigma[v] is the exact number of distinct shortest root-v paths (0 when
    unreachable).  Paths are rebuilt through the graph's adjacency from the
    neighbors w of v with dist[w] == dist[v] - 1.
    """

    root: int
    dist: tuple[int | None, ...]
    sigma: tuple[int, ...]


@dataclass(frozen=True)
class MetricProfile:
    """Distance records for every root plus girth, diameter, connectivity."""

    records: tuple[DistanceRecord, ...]
    girth: int | float
    diameter: int | float
    connected: bool

    def dist(self, u: int, v: int) -> int | None:
        return self.records[u].dist[v]

    def sigma(self, u: int, v: int) -> int:
        return self.records[u].sigma[v]


def bfs_record(g: Graph, root: int) -> DistanceRecord:
    """Distances and shortest-path counts from one root."""
    if not 0 <= root < g.n:
        raise OutOfRange(f"root {root} outside 0..{g.n - 1}")
    dist: list[int | None] = [None] * g.n
    sigma = [0] * g.n
    dist[root] = 0
    sigma[root] = 1
    queue = deque([root])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du1 = dist[u] + 1
        su = sigma[u]
        for w in adjacency[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                sigma[w] = su
                queue.append(w)
            elif dw == du1:
                sigma[w] += su
    return DistanceRecord(root, tuple(dist), tuple(sigma))


def _girth_from_records(g: Graph, records: tuple[DistanceRecord, ...]) -> int | float:
    """Shortest cycle length from the per-root dist and sigma rows, O(n*(n+m)).

    From a root, an edge with both ends at distance d closes an odd walk of
    length 2d+1, and a vertex at distance d with sigma >= 2 has two shortest
    paths enclosing a cycle of length <= 2d.  A root on a shortest cycle
    (which is isometric) sees its far edge or far vertex at exactly g.
    """
    best: int | float = math.inf
    edges = g.edge_list
    for rec in records:
        dist = rec.dist
        for x, y in edges:
            d = dist[x]
            if d is not None and d == dist[y] and 2 * d + 1 < best:
                best = 2 * d + 1
        for d, s in zip(dist, rec.sigma):
            if s >= 2 and 2 * d < best:
                best = 2 * d
        if best == 3:
            return 3
    return best


def metric_profile(g: Graph) -> MetricProfile:
    """All-roots BFS profile."""
    records = tuple(bfs_record(g, r) for r in range(g.n))
    connected = True
    diameter: int | float = 0
    for rec in records:
        for d in rec.dist:
            if d is None:
                connected = False
            elif d > diameter:
                diameter = d
    if not connected:
        diameter = math.inf
    return MetricProfile(records, _girth_from_records(g, records), diameter, connected)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; math.inf for forests."""
    return metric_profile(g).girth


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; math.inf when disconnected."""
    return metric_profile(g).diameter

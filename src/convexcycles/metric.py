"""Per-root BFS with exact shortest-path counting.

Distances of unreachable vertices are None (never a large finite number);
girth and diameter use math.inf for "no cycle" / "disconnected".  Path
counts are plain Python integers, so they stay exact no matter how fast
they grow.  The per-root BFS loop lives here.  The census pass in
convexity runs it three times for eccentricity bounds; its rows kernel
then runs it once per root and keeps no row past its own root, while its
planes kernel, for small-world graphs, steps every root at once with path
counts capped at 3 and does not use it.  A row keeps no event lists: it
counts the same-level edges of its first such level, and its stop test
sees each level it merges into.  The stop test can end path counting
early and either finish the distances, which an eccentricity needs, or
drop them when the bounds show the row cannot raise the diameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .errors import OutOfRange
from .graphs import Graph

# the stop answer that returns a row as it stands, without its
# distance-only tail (True finishes the tail)
DROP_TAIL = 2


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
    """Girth, diameter and connectivity of one graph."""

    girth: int | float
    diameter: int | float
    connected: bool


def _bfs(
    adjacency: tuple[tuple[int, ...], ...],
    root: int,
    stop: Callable[..., bool | int] | None = None,
):
    """One BFS row with the girth events the census pass reads off it.

    Returns (dist, sigma, order, odd, edges): the distance and path-count
    lists, the reached vertices in BFS order, the level odd of the row's
    first same-level edge (len(adjacency) when it has none) and the number
    of same-level edges at that level.

    stop, when given, is called as stop(d, dist, sigma, odd) at the first
    merge into each level d + 1, before that merge is counted; sigma is
    final through level d then, and odd is the first same-level edge's
    level so far.  Once it returns True the row is finished with distances
    only: dist and order stay exact, sigma is exact only through level d,
    and edges counts nothing more.  Once it returns DROP_TAIL the row is
    returned as it stands: dist and sigma are exact through level d, some
    vertices of level d + 1 have their distance and none deeper, order
    holds just the vertices with a distance, and edges counts nothing more.
    """
    dist: list[int | None] = [None] * len(adjacency)
    sigma = [0] * len(adjacency)
    dist[root] = 0
    sigma[root] = 1
    order = [root]
    odd = len(adjacency)
    edges = 0
    # the last level whose first merge has been put to stop
    checked = -1 if stop else len(adjacency)
    # the loop also visits the vertices it appends, which makes order a queue
    queue = iter(order)
    for u in queue:
        du = dist[u]
        du1 = du + 1
        su = sigma[u]
        for w in adjacency[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                sigma[w] = su
                order.append(w)
            elif dw == du1:
                if du > checked:
                    checked = du
                    if stopped := stop(du, dist, sigma, odd):
                        break
                sigma[w] += su
            elif dw == du and u < w and du <= odd:
                # levels never fall along order: the first level counts
                odd = du
                edges += 1
        else:
            continue
        # counting stopped while scanning u: unless the tail is dropped,
        # rescan u and finish the queue with distances only
        if stopped != DROP_TAIL:
            for u in chain((u,), queue):
                du1 = dist[u] + 1
                for w in adjacency[u]:
                    if dist[w] is None:
                        dist[w] = du1
                        order.append(w)
        break
    return dist, sigma, order, odd, edges


def bfs_record(g: Graph, root: int) -> DistanceRecord:
    """Distances and shortest-path counts from one root."""
    if not 0 <= root < g.n:
        raise OutOfRange(f"root {root} outside 0..{g.n - 1}")
    dist, sigma, *_ = _bfs(g.adjacency, root)
    return DistanceRecord(root, tuple(dist), tuple(sigma))

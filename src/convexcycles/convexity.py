"""Antipodal-pair detection and convex-cycle enumeration.

A cycle subgraph is convex when every shortest path of the host graph
between two of its vertices stays on the cycle.  Odd convex cycles are
found through (edge, vertex) pairs whose endpoints sit at equal distance
from the vertex with unique shortest paths; even convex cycles through
vertex pairs joined by exactly two shortest paths.  Each candidate is
walked once, from its owner pair through the owner's own BFS record, and
then verified vertex-pair by vertex-pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidCycle, NotApplicable
from .graphs import Edge, Graph
from .metric import MetricProfile, metric_profile


def canonical_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation over both orientations, in O(L).

    The vertices are distinct, so that rotation starts at the smallest
    vertex and continues towards the smaller of its two neighbors; it is
    invariant under rotation and reflection of the input sequence.
    """
    seq = tuple(vertices)
    length = len(seq)
    if length < 3:
        raise InvalidCycle(f"a cycle needs at least 3 vertices, got {length}")
    if len(set(seq)) != length:
        raise InvalidCycle(f"repeated vertex in cycle sequence {seq}")
    i = seq.index(min(seq))
    if seq[(i + 1) % length] > seq[i - 1]:
        seq = seq[::-1]
        i = length - 1 - i
    return seq[i:] + seq[:i]


@dataclass(frozen=True)
class Cycle:
    """A cycle stored in canonical vertex order."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", canonical_cycle(self.vertices))

    @property
    def length(self) -> int:
        return len(self.vertices)


class OddAntipodalPair(NamedTuple):
    edge: Edge
    vertex: int


class EvenAntipodalPair(NamedTuple):
    u: int
    v: int


@dataclass(frozen=True)
class CycleCensus:
    """Convex cycles with their odd/even split and length histogram."""

    cycles: tuple[Cycle, ...]
    total: int
    odd_count: int
    even_count: int
    by_length: dict[int, int] = field(compare=False)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Cycle]) -> "CycleCensus":
        ordered = sorted(set(cycles), key=lambda c: (c.length, c.vertices))
        histogram: dict[int, int] = {}
        odd = 0
        for c in ordered:
            histogram[c.length] = histogram.get(c.length, 0) + 1
            odd += c.length % 2
        return cls(
            cycles=tuple(ordered),
            total=len(ordered),
            odd_count=odd,
            even_count=len(ordered) - odd,
            by_length=histogram,
        )


def odd_antipodal_pairs(g: Graph, profile: MetricProfile) -> list[OddAntipodalPair]:
    """All (edge xy, vertex v) with d(x,v) = d(y,v) = k >= 1 and unique
    shortest paths from both endpoints to v."""
    pairs = []
    edges = g.edge_list
    for v in range(g.n):
        rec = profile.records[v]
        dist = rec.dist
        sigma = rec.sigma
        for e in edges:
            dx = dist[e.u]
            if dx is None or dx < 1:
                continue
            if dx == dist[e.v] and sigma[e.u] == 1 and sigma[e.v] == 1:
                pairs.append(OddAntipodalPair(e, v))
    return pairs


def even_antipodal_pairs(g: Graph, profile: MetricProfile) -> list[EvenAntipodalPair]:
    """All unordered vertex pairs at distance >= 2 joined by exactly two
    shortest paths."""
    pairs = []
    for u in range(g.n):
        rec = profile.records[u]
        dist = rec.dist
        sigma = rec.sigma
        for v in range(u + 1, g.n):
            d = dist[v]
            if d is not None and d >= 2 and sigma[v] == 2:
                pairs.append(EvenAntipodalPair(u, v))
    return pairs


def is_convex_cycle(g: Graph, profile: MetricProfile, c: Cycle) -> bool:
    """Check convexity through the distance/path-count criterion.

    For every vertex pair on the cycle the host distance must equal the
    arc distance and the host shortest-path count must equal the on-cycle
    count (2 for antipodal pairs of an even cycle, 1 otherwise); together
    these force every host geodesic between cycle vertices onto the cycle.
    """
    verts = c.vertices
    length = len(verts)
    records = profile.records
    for v in verts:
        if not 0 <= v < g.n:
            raise InvalidCycle(f"vertex {v} outside 0..{g.n - 1}")
    for v, w in zip(verts, verts[1:] + verts[:1]):
        if records[v].dist[w] != 1:
            raise InvalidCycle(f"consecutive vertices {v}, {w} are not adjacent")
    half = length // 2
    even = length % 2 == 0
    for i in range(length):
        rec = records[verts[i]]
        dist = rec.dist
        sigma = rec.sigma
        for j in range(i + 1, length):
            t = j - i
            if t > length - t:
                t = length - t
            w = verts[j]
            if dist[w] != t:
                return False
            if sigma[w] != (2 if even and t == half else 1):
                return False
    return True


def _owned_cycle(
    adjacency: tuple[tuple[int, ...], ...],
    dist: tuple[int | None, ...],
    owner: int,
    a: int,
    b: int,
    far: tuple[int, ...],
) -> tuple[int, ...] | None:
    """The cycle owner ~ a, *far, b ~ owner in canonical order, or None.

    a and b are distinct, at equal distance from owner and with one shortest
    path each; dist is owner's BFS row, so every step back to owner has one
    neighbor at distance d - 1.  Both walks stay at equal distance, so they
    share a vertex only if they meet on the same level.  None when a walk
    passes a vertex below owner (owner is not the candidate's minimum) or
    the walks meet before owner (the paths are not internally disjoint).
    """
    left = []
    right = []
    d = dist[a]
    while d:
        if a < owner or b < owner or a == b:
            return None
        left.append(a)
        right.append(b)
        d -= 1
        # step each walk to its one neighbor a level closer to owner
        for a in adjacency[a]:
            if dist[a] == d:
                break
        for b in adjacency[b]:
            if dist[b] == d:
                break
    if left[-1] > right[-1]:
        left, right = right, left
    left.reverse()
    return (owner, *left, *far, *right)


def enumerate_convex_cycles(
    g: Graph,
    profile: MetricProfile,
    odd_pairs: list[OddAntipodalPair] | None = None,
    even_pairs: list[EvenAntipodalPair] | None = None,
) -> CycleCensus:
    """The exact convex-cycle census.

    Every convex cycle reconstructs from each of its antipodal pairs: an
    odd L-cycle from its L odd pairs, one per vertex as apex, and an even
    L-cycle from its L/2 even pairs, which cover its vertices once.  So
    exactly one pair of each convex cycle has the cycle's minimum vertex as
    its apex (odd) or as u (even); keeping only candidates built from that
    owner pair and passing is_convex_cycle yields each convex cycle once.
    Works per component automatically: pairs never straddle components.
    Precomputed pair lists may be passed in to avoid a rescan.
    """
    if odd_pairs is None:
        odd_pairs = odd_antipodal_pairs(g, profile)
    if even_pairs is None:
        even_pairs = even_antipodal_pairs(g, profile)
    adjacency = g.adjacency
    records = profile.records
    owned = [
        _owned_cycle(adjacency, records[v].dist, v, x, y, ())
        for (x, y), v in odd_pairs
    ]
    for u, v in even_pairs:
        dist = records[u].dist
        d = dist[v] - 1
        below = [w for w in adjacency[v] if dist[w] == d]
        # sigma[v] == 2: two predecessors of sigma 1 each, or one shared
        # predecessor of sigma 2, in which case the paths are not disjoint
        if len(below) == 2:
            owned.append(_owned_cycle(adjacency, dist, u, *below, (v,)))
    return CycleCensus.from_cycles(
        c for c in map(Cycle, filter(None, owned)) if is_convex_cycle(g, profile, c)
    )


def brute_force_convex_cycles(g: Graph, max_len: int) -> CycleCensus:
    """Exhaustive oracle: DFS every simple cycle of length <= max_len, then
    filter by is_convex_cycle.  Exponential; meant for small graphs."""
    profile = metric_profile(g)
    adjacency = g.adjacency
    found: list[Cycle] = []
    on_path = [False] * g.n
    for start in range(g.n):
        # depth-first over simple paths from their minimum vertex, one
        # neighbor iterator per vertex of the current path
        path = [start]
        on_path[start] = True
        stack = [iter(adjacency[start])]
        while stack:
            for w in stack[-1]:
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    found.append(Cycle(tuple(path)))
                elif w > start and not on_path[w] and len(path) < max_len:
                    on_path[w] = True
                    path.append(w)
                    stack.append(iter(adjacency[w]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return CycleCensus.from_cycles(
        c for c in found if is_convex_cycle(g, profile, c)
    )


def girth_cycle_count(
    g: Graph, profile: MetricProfile, census: CycleCensus | None = None
) -> int:
    """Number of shortest cycles, for odd girth (where every girth-length
    cycle is convex, so the census histogram answers exactly)."""
    if profile.girth == math.inf:
        raise NotApplicable("acyclic graph: no girth cycles")
    if profile.girth % 2 == 0:
        raise NotApplicable(f"girth {profile.girth} is even")
    if census is None:
        census = enumerate_convex_cycles(g, profile)
    return census.by_length.get(int(profile.girth), 0)

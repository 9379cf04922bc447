"""Antipodal-pair detection and convex-cycle enumeration.

A cycle subgraph is convex when every shortest path of the host graph
between two of its vertices stays on the cycle.  Odd convex cycles are
found through (edge, vertex) pairs whose endpoints sit at equal distance
from the vertex with unique shortest paths; even convex cycles through
vertex pairs joined by exactly two shortest paths.  Candidates rebuilt
from their owner pairs are then verified vertex-pair by vertex-pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidCycle, NotApplicable
from .graphs import Edge, Graph
from .metric import (
    MetricProfile,
    metric_profile,
    two_shortest_paths,
    unique_shortest_path,
)


def canonical_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least rotation over both orientations.

    The result starts at the smallest vertex and is invariant under
    rotation and reflection of the input sequence.
    """
    seq = tuple(vertices)
    if len(seq) < 3:
        raise InvalidCycle(f"a cycle needs at least 3 vertices, got {len(seq)}")
    if len(set(seq)) != len(seq):
        raise InvalidCycle(f"repeated vertex in cycle sequence {seq}")
    best: tuple[int, ...] | None = None
    for oriented in (seq, seq[::-1]):
        for shift in range(len(oriented)):
            rotation = oriented[shift:] + oriented[:shift]
            if best is None or rotation < best:
                best = rotation
    assert best is not None
    return best


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
    for i, v in enumerate(verts):
        if not 0 <= v < g.n:
            raise InvalidCycle(f"vertex {v} outside 0..{g.n - 1}")
        if not g.has_edge(v, verts[(i + 1) % length]):
            raise InvalidCycle(
                f"consecutive vertices {v}, {verts[(i + 1) % length]} are not adjacent"
            )
    half = length // 2
    even = length % 2 == 0
    for i in range(length):
        rec = profile.records[verts[i]]
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


def _odd_candidate(
    g: Graph, profile: MetricProfile, pair: OddAntipodalPair
) -> tuple[int, ...] | None:
    path_u = unique_shortest_path(g, profile, pair.edge.u, pair.vertex)
    path_v = unique_shortest_path(g, profile, pair.edge.v, pair.vertex)
    # both exist by the pair conditions; they must meet only at the vertex
    if len(set(path_u) & set(path_v)) != 1:
        return None
    built = tuple(path_u + path_v[-2::-1])
    return built if min(built) == pair.vertex else None


def _even_candidate(
    g: Graph, profile: MetricProfile, pair: EvenAntipodalPair
) -> tuple[int, ...] | None:
    first, second = two_shortest_paths(g, profile, pair.u, pair.v)
    if set(first) & set(second) != {pair.u, pair.v}:
        return None
    built = tuple(first + second[-2:0:-1])
    return built if min(built) == pair.u else None


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
    owned = [_odd_candidate(g, profile, p) for p in odd_pairs]
    owned += [_even_candidate(g, profile, p) for p in even_pairs]
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

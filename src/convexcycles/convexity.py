"""Convex-cycle census, girth and diameter in one streaming BFS pass.

A cycle subgraph is convex when every shortest path of the host graph
between two of its vertices stays on the cycle.  An L-cycle is convex
exactly when each of its antipodal pairs, the vertex pairs floor(L/2) steps
apart along it (L of them for odd L, L/2 for even L), lies at distance
floor(L/2) and is joined by one shortest path (odd L) or two (even L).
Odd candidates come from (edge, vertex) pairs whose endpoints sit at equal
distance from the vertex with unique shortest paths, even candidates from
vertex pairs joined by exactly two shortest paths.  The pass visits roots
in increasing order with one BFS each, walks the candidates the root owns
(as their minimum vertex) through its row, checks their antipodal pairs
that start at the root and defers every other pair to the row of its
smaller vertex, which comes later; then it drops the row.  Three BFS
before the pass bound every eccentricity, and every row the pass finishes
tightens the bounds of the vertices near its root, so a row that cannot
raise the diameter ends as deep as the census reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import ConsistencyError, InvalidCycle, NotApplicable
from .graphs import Graph
from .metric import DROP_TAIL, DistanceRecord, MetricProfile, _bfs, bfs_record


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
class CycleCensus:
    """Convex cycles with their odd/even split and length histogram.

    Each cycle is a vertex tuple in canonical order (see canonical_cycle),
    and cycles are sorted by (length, vertices).
    """

    cycles: tuple[tuple[int, ...], ...]
    total: int
    odd_count: int
    even_count: int
    by_length: dict[int, int] = field(compare=False)

    @classmethod
    def from_cycles(cls, cycles: Iterable[tuple[int, ...]]) -> "CycleCensus":
        """Census of distinct cycles, each in canonical order; a repeated
        cycle is counted twice."""
        ordered = sorted(cycles, key=lambda c: (len(c), c))
        histogram: dict[int, int] = {}
        odd = 0
        for c in ordered:
            histogram[len(c)] = histogram.get(len(c), 0) + 1
            odd += len(c) % 2
        return cls(
            cycles=tuple(ordered),
            total=len(ordered),
            odd_count=odd,
            even_count=len(ordered) - odd,
            by_length=histogram,
        )


def _owned_cycle(
    adjacency: tuple[tuple[int, ...], ...],
    dist: Sequence[int | None],
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
    # canonical order: owner, the minimum, then its smaller neighbor
    if left[-1] > right[-1]:
        left, right = right, left
    left.reverse()
    return (owner, *left, *far, *right)


def _antipodal_pairs(verts: Sequence[int]) -> list[tuple[int, int]]:
    """The antipodal pairs of a cycle, each as (smaller, larger) vertex."""
    length = len(verts)
    half = length // 2
    pairs = []
    for i in range(length if length % 2 else half):
        a = verts[i]
        b = verts[(i + half) % length]
        pairs.append((a, b) if a < b else (b, a))
    return pairs


def _lemma_target(length: int) -> tuple[int, int]:
    """(distance, shortest-path count) each antipodal pair must show."""
    return length // 2, 1 if length % 2 else 2


def _lemma_holds(
    rows: Sequence[DistanceRecord] | dict[int, DistanceRecord], verts: Sequence[int]
) -> bool:
    """The antipodal-pair test of a cycle of the graph; rows[u] must be
    the BFS record of u for the smaller vertex u of every antipodal pair."""
    half, want = _lemma_target(len(verts))
    for lo, hi in _antipodal_pairs(verts):
        rec = rows[lo]
        if rec.dist[hi] != half or rec.sigma[hi] != want:
            return False
    return True


def is_convex_cycle(g: Graph, vertices: Sequence[int]) -> bool:
    """Check convexity of the cycle through vertices, in cyclic order and
    from any start, by the antipodal-pair test with one BFS per distinct
    smaller vertex of a pair."""
    verts = canonical_cycle(vertices)
    for v in verts:
        if not 0 <= v < g.n:
            raise InvalidCycle(f"vertex {v} outside 0..{g.n - 1}")
    for v, w in zip(verts, verts[1:] + verts[:1]):
        if w not in g.adjacency[v]:
            raise InvalidCycle(f"consecutive vertices {v}, {w} are not adjacent")
    smaller = {lo for lo, _ in _antipodal_pairs(verts)}
    return _lemma_holds({lo: bfs_record(g, lo) for lo in smaller}, verts)


def _distances_only(*_) -> bool:
    return True


def _eccentricity_bounds(
    adjacency: tuple[tuple[int, ...], ...],
) -> tuple[bool, int, list[int]]:
    """(connected, longest, upper): bounds from three BFS, distances only.

    The first runs from vertex 0 and settles connectivity, the second from
    the farthest vertex a of the first, the third from the middle c of a
    shortest path from a to the farthest vertex b of the second.  longest
    is the largest eccentricity they saw, a lower bound on the diameter,
    and upper[w] = ecc(c) + d(c, w) bounds ecc(w) from above by the
    triangle inequality.  The census pass lowers upper further from each
    row it finishes.  A disconnected graph gets no bounds (upper is
    empty): its diameter is infinite whatever the rows show.
    """
    if not adjacency:
        return True, 0, []
    dist, _, order, *_ = _bfs(adjacency, 0, _distances_only)
    if len(order) < len(adjacency):
        return False, 0, []
    dist, _, order, *_ = _bfs(adjacency, order[-1], _distances_only)
    c = b = order[-1]
    longest = dist[b]
    # walk from b halfway back to a, one level per step
    for d in reversed(range(longest // 2, longest)):
        c = next(w for w in adjacency[c] if dist[w] == d)
    dist, _, order, *_ = _bfs(adjacency, c, _distances_only)
    ecc = dist[order[-1]]
    return True, max(longest, ecc), [ecc + d for d in dist]


def _count_cutoff(
    adjacency: tuple[tuple[int, ...], ...],
    root: int,
    pending: Sequence[int],
    targets: Sequence[tuple[int, int] | None],
    finish: bool | int,
) -> Callable[..., bool | int]:
    """The stop test metric._bfs puts to root's census row, as a closure.

    Asked while the row scans level d, it ends path counting when the pass
    reads no sigma at level d + 1 or below: (a) every live pair deferred to
    root (pending is flat [larger vertex, candidate index, ...]) lies at
    distance d or less; (b) root's first cycle event was found while
    scanning a level above d, so its girth event and far-edge count are
    complete; (c) the clean vertices at level d, those with one shortest
    path that runs through vertices above root, descend from fewer than
    two of root's neighbors, its branches.  Both arms of a candidate root
    owns run through clean vertices and meet only at root, so its two ends
    at level d' are clean vertices of distinct branches; a clean vertex
    below level d descends from one at level d of its branch, so with
    fewer than two branches left root owns nothing at level d or deeper.
    The clean frontier advances level by level, branch by branch, and the
    pending depth is read at the first check that passes (b).  Its answer
    then is finish: True finishes the row's distances, DROP_TAIL drops
    them.
    """
    depth = None
    # the clean frontier at clean_level, one list per branch: the clean
    # vertices that descend from one neighbor of root above it
    branches = [[w] for w in adjacency[root] if w > root]
    clean_level = 1

    def reached(d, dist, sigma, level, merged) -> bool | int:
        nonlocal depth, branches, clean_level
        # merges found so far were found while scanning levels above d
        if not merged and not (level and dist[level[0][0]] < d):
            return False
        if depth is None:
            it = iter(pending)
            depth = max(
                (t[0] for _, cid in zip(it, it) if (t := targets[cid]) is not None),
                default=0,
            )
        if d < depth:
            return False
        while len(branches) > 1 and clean_level < d:
            clean_level += 1
            branches = [
                frontier
                for branch in branches
                if (frontier := [
                    w
                    for x in branch
                    for w in adjacency[x]
                    if dist[w] == clean_level and sigma[w] == 1 and w > root
                ])
            ]
        return len(branches) < 2 and finish

    return reached


def profile_and_census(g: Graph) -> tuple[MetricProfile, CycleCensus]:
    """Girth, diameter, connectivity and the exact convex-cycle census.

    Every convex cycle reconstructs from each of its antipodal pairs, so
    exactly one pair of each has the cycle's minimum vertex as its apex
    (odd) or as its smaller end (even); each root walks only the candidates
    it owns that way, and each candidate is walked once.  Girth is the
    least 2d+1 over same-level edges and 2d over vertices with two or more
    shortest paths.  For odd girth g = 2k+1 each girth cycle shows one
    same-level edge at level k to each of its g vertices and no other such
    edge exists, so g times the census's girth-cycle count must equal that
    edge count; a mismatch raises ConsistencyError.  Memory is O(n + m)
    for the current row plus O(L) per candidate L-cycle.  Antipodal pairs
    never straddle components, so the census covers every component.

    A root's row counts shortest paths only as deep as the pass reads them.
    A root owns only cycles whose two arms run through vertices above it
    with one shortest path each and meet only at the root, so once the
    vertices at level d with a single shortest path through such vertices
    descend from fewer than two of the root's neighbors, no live pair
    deferred to the root lies deeper than d and the root's girth events
    are complete, sigma below level d is never read.  The rest of the row,
    distances only, matters only to the diameter.  Three BFS before the
    pass (see _eccentricity_bounds) give every vertex w an upper bound
    upper[w] on its eccentricity, and longest, the largest eccentricity
    seen so far, is a lower bound on the diameter.  A row whose upper bound
    is at most longest cannot raise the diameter, so it drops its
    distance-only tail; any other row finishes it, raises longest to its
    eccentricity e and lowers upper[w] to e + d(v, w) for the vertices w
    of its BFS-order prefix where that is at most longest.  A row that
    dropped its tail bounds nothing: its last distance may fall short of
    its eccentricity.  A disconnected graph drops every tail.
    """
    adjacency = g.adjacency
    n = g.n
    even_best: int | float = math.inf
    odd_best: int | float = math.inf
    far_edges = 0
    connected, longest, upper = _eccentricity_bounds(adjacency)
    candidates: list[tuple[int, ...]] = []
    # (distance, path count) still required of each candidate's pairs;
    # None once one pair failed
    targets: list[tuple[int, int] | None] = []
    # smaller vertex of a pair -> flat [larger vertex, candidate index, ...]
    deferred: dict[int, list[int]] = {}
    for v in range(n):
        pending = deferred.pop(v, ())
        finish = True if connected and upper[v] > longest else DROP_TAIL
        dist, sigma, order, level, merged = _bfs(
            adjacency, v, _count_cutoff(adjacency, v, pending, targets, finish)
        )
        ecc = dist[order[-1]]
        if ecc > longest:
            longest = ecc
        if finish is True:
            # a finished row is exact, so ecc(w) <= ecc + d(v, w); a bound
            # above longest settles no row unless longest grows later
            for w in order:
                bound = ecc + dist[w]
                if bound > longest:
                    break
                if bound < upper[w]:
                    upper[w] = bound
        pairs = iter(pending)
        for w, cid in zip(pairs, pairs):
            target = targets[cid]
            if target is not None and (dist[w], sigma[w]) != target:
                targets[cid] = None
        if level:
            d = dist[level[0][0]]
            if 2 * d + 1 <= odd_best:
                if 2 * d + 1 < odd_best:
                    odd_best = 2 * d + 1
                    far_edges = 0
                for x, _ in level:
                    if dist[x] != d:
                        break
                    far_edges += 1
        if merged and 2 * dist[merged[0]] < even_best:
            even_best = 2 * dist[merged[0]]
        # level holds each edge once as (x, y) with x < y
        owned = [
            _owned_cycle(adjacency, dist, v, x, y, ())
            for x, y in level
            if x > v and sigma[x] == 1 and sigma[y] == 1
        ]
        for w in merged:
            # a merged vertex has two or more predecessors, so sigma 2
            # means exactly two, each with one shortest path
            if w > v and sigma[w] == 2:
                d = dist[w] - 1
                a, b = [u for u in adjacency[w] if dist[u] == d]
                owned.append(_owned_cycle(adjacency, dist, v, a, b, (w,)))
        for cycle in filter(None, owned):
            cid = len(candidates)
            target = _lemma_target(len(cycle))
            for lo, hi in _antipodal_pairs(cycle):
                if lo != v:
                    deferred.setdefault(lo, []).extend((hi, cid))
                elif (dist[hi], sigma[hi]) != target:
                    target = None
                    break
            candidates.append(cycle)
            targets.append(target)
    census = CycleCensus.from_cycles(
        c for c, t in zip(candidates, targets) if t is not None
    )
    shortest = min(odd_best, even_best)
    if shortest == odd_best != math.inf:
        counted = census.by_length.get(shortest, 0)
        if far_edges != shortest * counted:
            raise ConsistencyError(
                f"{far_edges} same-level edges at distance {shortest // 2} imply "
                f"{far_edges / shortest:g} cycles of odd girth {shortest}, "
                f"but the census has {counted}"
            )
    profile = MetricProfile(shortest, longest if connected else math.inf, connected)
    return profile, census


def brute_force_convex_cycles(g: Graph, max_len: int) -> CycleCensus:
    """Exhaustive oracle: DFS every simple cycle of length <= max_len, then
    filter by the antipodal-pair test on BFS rows computed once per root.
    Exponential; meant for small graphs."""
    rows = [bfs_record(g, r) for r in range(g.n)]
    adjacency = g.adjacency
    found: list[tuple[int, ...]] = []
    on_path = [False] * g.n
    for start in range(g.n):
        # depth-first over simple paths from their minimum vertex, one
        # neighbor iterator per vertex of the current path; a closed path
        # with path[1] < path[-1] is its cycle in canonical order
        path = [start]
        on_path[start] = True
        stack = [iter(adjacency[start])]
        while stack:
            for w in stack[-1]:
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    found.append(tuple(path))
                elif w > start and not on_path[w] and len(path) < max_len:
                    on_path[w] = True
                    path.append(w)
                    stack.append(iter(adjacency[w]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    return CycleCensus.from_cycles(c for c in found if _lemma_holds(rows, c))


def girth_cycle_count(profile: MetricProfile, census: CycleCensus) -> int:
    """Number of shortest cycles, for odd girth (where every girth-length
    cycle is convex, so the census histogram answers exactly)."""
    if profile.girth == math.inf:
        raise NotApplicable("acyclic graph: no girth cycles")
    if profile.girth % 2 == 0:
        raise NotApplicable(f"girth {profile.girth} is even")
    return census.by_length.get(int(profile.girth), 0)

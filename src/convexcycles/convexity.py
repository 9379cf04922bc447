"""Convex-cycle census, girth and diameter in one streaming BFS pass.

A cycle subgraph is convex when every shortest path of the host graph
between two of its vertices stays on the cycle.  An L-cycle is convex
exactly when each of its antipodal pairs, the vertex pairs floor(L/2) steps
apart along it (L of them for odd L, L/2 for even L), lies at distance
floor(L/2) and is joined by one shortest path (odd L) or two (even L).
Odd candidates come from (edge, vertex) pairs whose endpoints sit at equal
distance from the vertex with unique shortest paths, even candidates from
vertex pairs joined by exactly two shortest paths.  The pass visits roots
in increasing order with one BFS each, takes the candidates the root owns
(as their minimum vertex) from its clean frontier, defers each of their
antipodal pairs that does not start at the root to the row of its smaller
vertex, which comes later, and then drops the row.  Three BFS
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
    branch: list[int],
    pred: list[int],
) -> tuple[Callable[..., bool | int], Callable[..., tuple[list, int | None]]]:
    """Root's census sweep, as two closures (reached, rest).

    A clean vertex has one shortest path from root, through vertices above
    root, and its branch is the neighbor of root it descends from.  Both
    arms of a candidate root owns (as its minimum) run through clean
    vertices of two branches, so stepping the clean frontier from level d
    to d + 1 finds every one: a same-level edge at level d with clean ends
    in two branches closes an odd candidate, a vertex above root at level
    d + 1 with sigma 2 and clean predecessors in two branches an even one.
    Arms read back through pred, each clean vertex's one predecessor; the
    pairs at root hold by construction (arm ends sit at distance d with
    sigma 1, far vertices at d + 1 with sigma 2).  With fewer than two
    branches at level d, root owns nothing at level d or deeper.

    reached, the stop test of root's row, asked while the row scans level
    d, records d + 1 as the first merge level at its first call, and ends
    path counting when the pass reads no sigma at level d + 1 or below:
    (a) every live pair deferred to root (pending is flat [larger vertex,
    candidate index, ...]) lies at distance d or less, (b) root's first
    cycle event was found while scanning a level above d, so its girth
    event and far-edge count are complete, and (c) the frontier, stepped
    to level d, spans fewer than two branches.  The pending depth is read
    at the first check that passes (b).  Its answer then is finish: True
    finishes the row's distances, DROP_TAIL drops them.  rest(dist, sigma)
    runs the sweep on after the row until fewer than two branches are left
    and returns (owned, merge): root's candidates in canonical order and
    the first merge level, or None.
    """
    depth = merge = None
    owned: list[tuple[int, ...]] = []
    # a vertex of sigma 2 -> the first clean predecessor that reached it
    half: dict[int, int] = {}
    # the clean frontier at clean_level, one list per branch, in order;
    # clean x is labelled root * n + its branch, above earlier roots' labels
    branches = [[w] for w in adjacency[root] if w > root]
    for (w,) in branches:
        branch[w] = root * len(adjacency) + w
        pred[w] = root
    clean_level = 1

    def arm(x: int) -> list[int]:
        """x and its clean predecessors down to level 1."""
        path = [x]
        while (x := pred[x]) != root:
            path.append(x)
        return path

    def sweep(dist, sigma, last: int) -> None:
        nonlocal branches, clean_level
        while len(branches) > 1 and clean_level < last:
            d = clean_level
            clean_level += 1
            stepped = []
            for frontier in branches:
                ahead = []
                for x in frontier:
                    bx = branch[x]
                    for w in adjacency[x]:
                        dw = dist[w]
                        # each same-level edge once, from its smaller branch
                        if dw == d and branch[w] > bx:
                            owned.append((root, *arm(x)[::-1], *arm(w)))
                        elif dw == clean_level and w > root:
                            s = sigma[w]
                            if s == 1:
                                branch[w] = bx
                                pred[w] = x
                                ahead.append(w)
                            elif s == 2 and (a := half.setdefault(w, x)) != x:
                                # a came first, so from the smaller branch
                                if branch[a] != bx:
                                    owned.append((root, *arm(a)[::-1], w, *arm(x)))
                if ahead:
                    stepped.append(ahead)
            branches = stepped

    def reached(d, dist, sigma, odd) -> bool | int:
        nonlocal depth, merge
        if merge is None:
            merge = d + 1
            if odd >= d:
                return False
        if depth is None:
            it = iter(pending)
            depth = max(
                (t[0] for _, cid in zip(it, it) if (t := targets[cid]) is not None),
                default=0,
            )
        if d < depth:
            return False
        sweep(dist, sigma, d)
        return len(branches) < 2 and finish

    def rest(dist, sigma) -> tuple[list[tuple[int, ...]], int | None]:
        sweep(dist, sigma, len(adjacency))
        return owned, merge

    return reached, rest


def profile_and_census(g: Graph) -> tuple[MetricProfile, CycleCensus]:
    """Girth, diameter, connectivity and the exact convex-cycle census.

    Every convex cycle reconstructs from each of its antipodal pairs, so
    exactly one pair of each has the cycle's minimum vertex as its apex
    (odd) or as its smaller end (even); each root builds only the
    candidates it owns that way, so each candidate is built once.  Girth
    is the least 2d+1 over same-level edges and 2d over vertices with two
    or more shortest paths.  For odd girth g = 2k+1 each girth cycle shows
    one same-level edge at level k to each of its g vertices and no other
    such edge exists, so g times the census's girth-cycle count must equal
    that edge count; a mismatch raises ConsistencyError.  Memory is
    O(n + m) for the current row plus O(L) per candidate L-cycle.
    Antipodal pairs never straddle components, so the census covers every
    component.

    A row counts shortest paths only as deep as the pass reads them (see
    _count_cutoff); the rest, distances only, matters only to the
    diameter.  Three BFS before the pass (see _eccentricity_bounds) give
    every vertex w an upper bound upper[w] on its eccentricity, and
    longest, the largest eccentricity seen so far, bounds the diameter
    from below.  A row whose upper bound is at most longest cannot raise
    the diameter, so it drops its distance-only tail; any other row
    finishes it, raises longest to its eccentricity e and lowers upper[w]
    to e + d(v, w) for the vertices w of its BFS-order prefix where that
    is at most longest.  A row that dropped its tail bounds nothing: its
    last distance may fall short of its eccentricity.  A disconnected
    graph drops every tail.
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
    # each clean vertex's branch label and predecessor, kept across roots
    branch = [0] * n
    pred = [0] * n
    for v in range(n):
        pending = deferred.pop(v, ())
        finish = True if connected and upper[v] > longest else DROP_TAIL
        stop, rest = _count_cutoff(adjacency, v, pending, targets, finish, branch, pred)
        dist, sigma, order, odd, edges = _bfs(adjacency, v, stop)
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
        if edges and 2 * odd + 1 <= odd_best:
            if 2 * odd + 1 < odd_best:
                odd_best = 2 * odd + 1
                far_edges = 0
            far_edges += edges
        owned, merge = rest(dist, sigma)
        if merge is not None and 2 * merge < even_best:
            even_best = 2 * merge
        for cycle in owned:
            cid = len(candidates)
            for lo, hi in _antipodal_pairs(cycle):
                if lo != v:
                    deferred.setdefault(lo, []).extend((hi, cid))
            candidates.append(cycle)
            targets.append(_lemma_target(len(cycle)))
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

"""Convex-cycle census, girth and diameter in one BFS pass over all roots.

A cycle subgraph is convex when every shortest path of the host graph
between two of its vertices stays on the cycle.  An L-cycle is convex
exactly when each of its antipodal pairs, the vertex pairs floor(L/2) steps
apart along it (L of them for odd L, L/2 for even L), lies at distance
floor(L/2) and is joined by one shortest path (odd L) or two (even L).
Odd candidates come from (edge, vertex) pairs whose endpoints sit at equal
distance from the vertex with unique shortest paths, even candidates from
vertex pairs joined by exactly two shortest paths.  Each root takes the
candidates it owns (as their minimum vertex, or in the chains kernel
their least junction) from the vertices it reaches by one shortest path
through vertices, or junctions, above it.

One component at a time, one flat rule picks one of three kernels for a
graph with a cycle.  On a graph made of long paths of degree-2
vertices, chains, the chains kernel reads every pair it tests, every
girth event and every eccentricity off one table of distances and path
counts between the vertices of other degrees, the junctions, where that
table pays (see _junction_table); each junction sweeps its candidates
off the table too, a whole chain per step.  The contraction and the
table also show that such a graph is connected, so neither the census
nor this kernel runs a BFS on it.  Else, where a sweep of bfs_record
from vertex 0 shows a small world, the planes kernel runs every root at
once as bits of Python ints, with path counts capped at 3, in a BFS loop
of its own.  On any other graph a second sweep bounds every
eccentricity, and the rows kernel runs one BFS row per root,
_census_row, which stops counting as early as the census allows, takes
the girth events, and drops its distance-only tail when it cannot raise
the diameter.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from itertools import chain

from .errors import ConsistencyError, InvalidCycle, NotApplicable
from .graphs import Graph, _Record
from .metric import DistanceRecord, MetricProfile, bfs_record

# Bytes for the planes' rings (see _small_world) or the junction table (see
# _junction_table), with O(n + m) and the O(sum of L) list of convex
# L-cycles on top, and the junction table's bytes per entry and rule.
_BUDGET = 256 << 20
_TABLE_ENTRY_BYTES = 128
_ROOTS_PER_SEARCH = 4


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
    return _rotated(seq)


def _rotated(seq: tuple[int, ...]) -> tuple[int, ...]:
    """canonical_cycle of a tuple of three or more distinct vertices,
    unchecked."""
    i = seq.index(min(seq))
    if seq[(i + 1) % len(seq)] > seq[i - 1]:
        seq = seq[::-1]
        i = len(seq) - 1 - i
    return seq[i:] + seq[:i]


class CycleCensus(_Record):
    """Convex cycles with their odd/even split and length histogram.

    Each cycle is a vertex tuple in canonical order (see canonical_cycle),
    and cycles are sorted by (length, vertices); from_cycles leaves the
    sort to the first read of .cycles.  Equality and hashing leave out
    by_length, which the cycles determine.
    """

    __slots__ = ("cycles", "total", "odd_count", "even_count", "by_length")
    cycles: tuple[tuple[int, ...], ...]
    total: int
    odd_count: int
    even_count: int
    by_length: dict[int, int]

    def _key(self) -> tuple:
        return self.cycles, self.total, self.odd_count, self.even_count

    @classmethod
    def from_cycles(cls, cycles: Iterable[tuple[int, ...]]) -> "CycleCensus":
        """Census of distinct cycles, each in canonical order; a repeated
        cycle is counted twice.  The counts are taken unsorted; .cycles
        sorts on its first read."""
        found = _Found(cycles)
        histogram = dict(sorted(Counter(map(len, found)).items()))
        odd = sum(count for length, count in histogram.items() if length % 2)
        return cls(
            cycles=found,
            total=len(found),
            odd_count=odd,
            even_count=len(found) - odd,
            by_length=histogram,
        )


class _Found(list):
    """A census's cycles as found, until .cycles sorts them."""


# the cycles slot, which from_cycles fills with a _Found
_cycles_slot = CycleCensus.cycles


def _sorted_cycles(census: CycleCensus) -> tuple[tuple[int, ...], ...]:
    cycles = _cycles_slot.__get__(census)
    if cycles.__class__ is _Found:
        # a stable sort by length keeps the vertex order within a length
        cycles.sort()
        cycles.sort(key=len)
        _cycles_slot.__set__(census, cycles := tuple(cycles))
    return cycles


CycleCensus.cycles = property(_sorted_cycles)


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


def _eccentricity_bounds(g: Graph, dist: Sequence[int]) -> tuple[int, list[int]]:
    """(longest, upper): eccentricity bounds of a connected graph from two
    sweeps of bfs_record, from vertex 0, which gave dist, and from the
    least vertex a farthest from 0.  longest = ecc(a) is a lower bound on
    the diameter, which is at most 2 * longest and on a tree equals it, and
    upper[w] = ecc(a) + d(a, w) bounds ecc(w) from above by the triangle
    inequality.  Only a tree and the rows kernel read them, so only they
    pay for the second sweep; the rows kernel lowers upper further from
    each row it finishes.
    """
    dist = bfs_record(g, dist.index(max(dist))).dist
    longest = max(dist)
    return longest, [longest + d for d in dist]


def _arm(pred: list[int], root: int, x: int) -> list[int]:
    """x and its clean predecessors down to level 1."""
    path = [x]
    while (x := pred[x]) != root:
        path.append(x)
    return path


def _sweep(
    adjacency: tuple[tuple[int, ...], ...], root: int, dist: list, sigma: list[int],
    branches: list[list[int]], last: int, branch: list[int], pred: list[int], owned: list,
) -> list[list[int]]:
    """Step root's clean frontier, one list per branch, up to level last
    while it spans two branches or more, and return it; dist and sigma must
    be final through last.  Stepping from level d appends to owned an odd
    candidate per same-level edge at level d with clean ends in two
    branches, an even one per vertex above root at level d + 1 with sigma 2
    and clean predecessors in two.  branch must hold root * n + b for each
    clean vertex of branch b and smaller labels elsewhere, as rows of
    smaller roots leave them."""
    while len(branches) > 1 and (d := dist[branches[0][0]]) < last:
        stepped = []
        # a vertex of sigma 2 -> the first clean predecessor that reached it
        half: dict[int, int] = {}
        for frontier in branches:
            ahead = []
            for x in frontier:
                bx = branch[x]
                for w in adjacency[x]:
                    dw = dist[w]
                    # each same-level edge once, from its smaller branch
                    if dw == d and branch[w] > bx:
                        owned.append((root, *_arm(pred, root, x)[::-1], *_arm(pred, root, w)))
                    elif dw == d + 1 and w > root:
                        s = sigma[w]
                        if s == 1:
                            branch[w] = bx
                            pred[w] = x
                            ahead.append(w)
                        elif s == 2 and (a := half.setdefault(w, x)) != x:
                            # a came first, so from the smaller branch
                            if branch[a] != bx:
                                left, right = _arm(pred, root, a), _arm(pred, root, x)
                                owned.append((root, *left[::-1], w, *right))
            if ahead:
                stepped.append(ahead)
        branches = stepped
    return branches


def _census_row(
    adjacency: tuple[tuple[int, ...], ...], root: int, depth: int, finish: bool,
    branch: list[int], pred: list[int],
) -> tuple[list, list[int], list[int], int, int, int | None, list[tuple[int, ...]]]:
    """Root's BFS row and the candidates root owns: (dist, sigma, order,
    odd, edges, merge, owned), with the level of the first same-level edge
    (n if none) and the count of such edges there, the level of the first
    vertex with two predecessors (None if none), and owned in canonical
    order.  Every vertex of level d - 1 is scanned before level d's first,
    so sigma through level d is final there, and at each such boundary the
    row tests the stop rules of _census_rows, with depth the distance of
    the deepest pair deferred to root.  Counting stops at the first
    boundary d where they hold, before level d is scanned; sigma is then
    exact through d, and the girth events are complete.  With finish,
    dist and order are then completed without counting, else the row ends
    with level d.  branch and pred are the kernel's clean-vertex lists."""
    n = len(adjacency)
    dist: list[int | None] = [None] * n
    sigma = [0] * n
    dist[root] = 0
    sigma[root] = 1
    order = [root]
    odd, edges, merge = n, 0, None
    owned: list[tuple[int, ...]] = []
    # the clean frontier, one list per branch, in order
    branches = [[w] for w in adjacency[root] if w > root]
    for (w,) in branches:
        branch[w] = root * n + w
        pred[w] = root
    # the level being scanned
    level = 0
    # the loop also visits the vertices it appends, which makes order a queue
    queue = iter(order)
    for u in queue:
        du = dist[u]
        if du > level:
            level = du
            # an event found before this boundary completes the girth events
            if du >= depth and (edges or merge is not None):
                branches = _sweep(adjacency, root, dist, sigma, branches, du, branch, pred, owned)
                if len(branches) < 2:
                    if finish:
                        for u in chain((u,), queue):
                            du1 = dist[u] + 1
                            for w in adjacency[u]:
                                if dist[w] is None:
                                    dist[w] = du1
                                    order.append(w)
                    break
        du1 = du + 1
        su = sigma[u]
        for w in adjacency[u]:
            dw = dist[w]
            if dw is None:
                dist[w] = du1
                sigma[w] = su
                order.append(w)
            elif dw == du1:
                sigma[w] += su
                if merge is None:
                    merge = du1
            elif dw == du and u < w and du <= odd:
                # levels never fall along order: the first level counts
                odd = du
                edges += 1
    else:
        # a row that never stopped counting steps its frontier on to its end
        _sweep(adjacency, root, dist, sigma, branches, n, branch, pred, owned)
    return dist, sigma, order, odd, edges, merge, owned


_Chains = list[tuple[int, int, int]]
_Places = list[tuple[int, int] | None]
_Table = dict[int, tuple[dict[int, int], dict[int, int]]]
_Runs = dict[int, list[list[int]]]
_Clean = dict[int, tuple[int, list[int], int]]


def _contract(
    adjacency: tuple[tuple[int, ...], ...],
) -> tuple[_Chains, _Places, _Runs]:
    """(chains, place, runs): the graph contracted to its junctions.

    A junction is a vertex whose degree is not 2, or vertex 0 when every
    vertex has degree 2.  A chain (a, b, length), a <= b, is a maximal
    path from junction a to junction b (a == b for a cycle through a) whose
    interior vertices have degree 2.  place[v] is (chain index, position
    from a) for an interior vertex v, None for a junction, and runs[x]
    holds each chain at junction x as its vertices from x on, in chain
    order, a loop once from each end.  On any graph the chains are those
    that end at a junction: a component that is a cycle through no
    junction lies on none, its vertices' place None as a junction's, and
    an isolated vertex is a junction without runs.
    """
    place: _Places = [None] * len(adjacency)
    junction = [len(nbrs) != 2 for nbrs in adjacency]
    junction[0] |= not any(junction)
    chains: _Chains = []
    runs: _Runs = {}
    for a in [a for a, j in enumerate(junction) if j]:
        for x in adjacency[a]:
            if place[x] is not None or junction[x] and x < a:
                continue  # walked from its other end
            c, run = len(chains), [a]
            while not junction[x]:
                place[x] = (c, len(run))
                run.append(x)
                u, w = adjacency[x]
                x = w if u == run[-2] else u
            run.append(x)
            chains.append((a, x, len(run) - 1))
            runs.setdefault(a, []).append(run)
            runs.setdefault(x, []).append(run[::-1])
    return chains, place, runs


def _junction_table(
    adjacency: tuple[tuple[int, ...], ...],
) -> tuple[_Chains, _Places, _Runs, _Table] | None:
    """(chains, place, runs, table): _contract's chains, place and runs,
    and table[x] = (D[x], S[x]), distances and path counts from junction x
    to every junction, by one search from each of the J junctions
    (_junction_searches), or None where the graph is disconnected or the
    table does not pay.  The graph is connected exactly when every vertex
    is a junction with a chain or a chain's interior, so that the J
    junctions with runs and the chains' interiors, length - 1 each, count
    n, and the first junction's search reaches all J; no BFS runs, and a
    disconnected graph is refused before the other searches.  The rule:
    the R chain roots (each chain's interior but its minimum) are at
    least 4 * J, and the J * J entries fit the budget.  On the components
    with a cycle of four G(n, p) with each edge cut into s edges, the
    chains kernel took, in median, 1.04-1.33 times the time of the rows
    kernel at R = 0.1-0.7 * J (s = 2), 0.51-0.65 times at R = 2.6-2.9 * J
    (s = 3), 0.31-0.46 times at R = 4.8-5.7 * J (s = 4) and 0.21-0.31
    times at R = 6.8-8.6 * J (s = 5), the table 29-66 % of its own time;
    s = 3 favours the chains kernel in these medians, but no paired
    benchmark runs have tested a lower rule, so it stays at 4 * J.  R is
    at most the number of vertices of degree 2, and J the number of
    others, so a graph with fewer than 4 of degree 2 per other vertex (a
    grid, sparse G(n, p)) is not contracted: the census tries the table
    first on every graph with m >= n."""
    two = [*map(len, adjacency)].count(2)
    if two < _ROOTS_PER_SEARCH * (len(adjacency) - two):
        return None
    chains, place, runs = _contract(adjacency)
    if len(runs) + sum(length - 1 for _, _, length in chains) != len(adjacency):
        return None
    roots = sum(length - 2 for _, _, length in chains if length > 2)
    if roots < _ROOTS_PER_SEARCH * len(runs) or len(runs) ** 2 * _TABLE_ENTRY_BYTES > _BUDGET:
        return None
    table = _junction_searches(runs)
    return None if table is None else (chains, place, runs, table)


def _junction_searches(runs: _Runs) -> _Table | None:
    """table[x] = (D[x], S[x]) for every junction x of _contract's runs: a
    heap search over the junctions, chain lengths as weights, in O((J + C)
    log J) per junction for J junctions and C chains, over each
    junction's (far end, length) pairs, read off its runs once.  A
    shortest path between junctions runs along whole chains, so the path
    counts S are the graph's; a chain from a junction back to itself lies
    on none.  None when the first search leaves a junction unreached, as
    on a disconnected graph, before any other search runs."""
    ends = {x: [(run[-1], len(run) - 1) for run in xs] for x, xs in runs.items()}
    table: _Table = {}
    for x in ends:
        dist, sigma = table[x] = {x: 0}, {x: 1}
        heap = [(0, x)]
        while heap:
            d, u = heappop(heap)
            if d != dist[u]:
                continue  # superseded by a shorter arrival
            s = sigma[u]
            for y, l in ends[u]:
                e = d + l
                was = dist.get(y)
                if was is None or e < was:
                    dist[y], sigma[y] = e, s
                    heappush(heap, (e, y))
                elif e == was:
                    sigma[y] += s
        if len(dist) < len(ends):
            return None
    return table


def _chain_point(
    chains: _Chains, place: _Places, table: _Table, x: int, w: int,
) -> tuple[int, int]:
    """(distance, path count) from junction x to w, in O(1), off x's table
    entry: w is a junction, or lies at position j of a chain (u, v, l), j
    past u and l - j past v.  The path counts of the ends that tie are
    summed; a side that runs back along w's own chain always loses."""
    dist, sigma = table[x]
    if place[w] is None:
        return dist[w], sigma[w]
    c, j = place[w]
    u, v, l = chains[c]
    p = dist[u] + j
    q = dist[v] + l - j
    if p < q:
        return p, sigma[u]
    if q < p:
        return q, sigma[v]
    return p, sigma[u] + sigma[v]


def _junction_positions(chains: _Chains, place: _Places, cycle: tuple[int, ...]) -> list[int]:
    """The positions of the junctions on cycle, a cycle of the graph from
    junction cycle[0], in increasing order, in O(1) per junction: the
    cycle holds each chain it enters whole, so from a chain's first
    interior vertex it skips length - 1 positions to the chain's far end,
    a junction or, at the end of the cycle, cycle[0] again."""
    at = [0]
    i = 1
    length = len(cycle)
    while i < length:
        if (p := place[cycle[i]]) is not None:
            i += chains[p[0]][2] - 1
            if i == length:
                break
        at.append(i)
        i += 1
    return at


def _table_holds(
    chains: _Chains, place: _Places, table: _Table, cycle: tuple[int, ...], at: list[int],
) -> bool:
    """Whether each antipodal pair of cycle, a cycle of the graph built
    from its root, a junction, shows the lemma's distance h = len // 2 and
    path count, by _chain_point from each pair whose first end is a
    junction, O(1) per junction of the cycle, which settles the rest; at
    holds the junctions' positions on cycle in increasing order, the
    root's 0 first, and only they are read.  The pairs at the root hold by
    construction.

    The cycle x_0 = root, x_1, ... holds each chain it enters whole.  Take
    x_p inside the chain from junction x_s to junction x_e, s < p < e, and
    y an end of the chain of x_(p+h), or x_(p+h) itself.  The pair's
    shortest paths leave x_p's chain at x_s or x_e and reach x_(p+h) from
    some y.  Where the pair at e has distance h, the walk from x_e through
    y along the cycle to x_(e+h) shows D[e][y] >= h - |e + h - y|, so the
    side through x_e and y is at least h + (e - p) + |p + h - y| - |e + h
    - y| >= h.  It is h only with y at or before x_(p+h), and then its
    paths continue to shortest paths of the pair at e besides that pair's
    arc the other way round, so it has one.  Through x_s likewise, where
    that other arc is h long, so for odd length no side through x_s is at
    h.  So x_p's pair has distance h and one path per arc of length h.  An
    even cycle lists the pair at e > h the other way round, but then x_h
    lies inside x_p's chain, and the root's one shortest path to x_e,
    along the cycle, bounds the sides through x_e in the same way."""
    length = len(cycle)
    half, want = _lemma_target(length)
    root = cycle[0]
    end = length if length % 2 else half
    for i in at[1:]:
        if i >= end:
            break
        y = cycle[(i + half) % length]
        if y != root and _chain_point(chains, place, table, cycle[i], y) != (half, want):
            return False
    return True


def _table_row(
    chains: _Chains, dist: dict[int, int], sigma: dict[int, int],
) -> tuple[int | float, int, int | float, int]:
    """(odd, edges, merge, ecc) of a junction's BFS row, read off its
    table entry (dist and sigma) in O(J + C): the level of its first
    same-level edges (inf if none) and their count, the level of its first
    vertex with two predecessors (inf if none) and its eccentricity.

    The distance along a chain (u, v, l) rises from both ends to where
    the two fronts meet, inside the chain exactly when |D[u] - D[v]| < l:
    at one same-level edge at level (D[u] + D[v] + l - 1) / 2 when D[u] +
    D[v] + l is odd, else at a vertex with two predecessors at level (D[u]
    + D[v] + l) / 2.  No other edge is same-level, and no other interior
    vertex has two predecessors.  The first vertex with two shortest paths
    has two predecessors, so the first merge is also the least such level
    or distance of a junction with path count 2 or more.  The chain's
    farthest vertex lies (D[u] + D[v] + l) // 2 away."""
    odd: int | float = math.inf
    edges = 0
    merge = min((d for x, d in dist.items() if sigma[x] > 1), default=math.inf)
    far = 0
    for u, v, l in chains:
        du = dist[u]
        dv = dist[v]
        top = du + dv + l
        if top > far:
            far = top
        # |du - dv| < l
        if 2 * du < top > 2 * dv:
            level = top >> 1
            if not top & 1:
                if level < merge:
                    merge = level
            elif level < odd:
                odd, edges = level, 1
            elif level == odd:
                edges += 1
    return odd, edges, merge, far >> 1


def _chain_eccentricity(chains: _Chains, table: _Table, c0: int) -> int:
    """The largest eccentricity of chain c0's interior, in O(chains):
    from position x of c0 = (a, b, length), junction y lies d_y(x) = min(x
    + D[a][y], length - x + D[b][y]) and the far point of another chain
    (u, v, l) f(x) // 2 away, f(x) = d_u(x) + d_v(x) + l.  That sum is
    concave, level between the breakpoints (length + D[b][y] - D[a][y]) /
    2 of d_u and d_v, so it peaks at the floor of the first or the
    position after.  On c0 the far point lies (length + min(length - 2,
    D[a][b])) // 2 from position length - 1.  Taking one side of each min,
    f(x) <= length + l + D[a][u] + D[b][v] and f(x) <= length + l + D[b][u]
    + D[a][v], so a chain where the lesser bound is at most the largest f
    so far cannot raise it and is skipped in O(1); the others take two
    positions of plain comparisons."""
    a, b, length = chains[c0]
    da, db = table[a][0], table[b][0]
    far = length + min(length - 2, da[b])
    last = length - 1
    for u, v, l in chains[:c0] + chains[c0 + 1:]:
        au, bu, av, bv = da[u], db[u], da[v], db[v]
        if length + l + (au + bv if au + bv < bu + av else bu + av) <= far:
            continue
        mid = (length + (bu - au if bu - au < bv - av else bv - av)) // 2
        first = 1 if mid < 1 else last if mid > last else mid
        for x in (first, mid + 1 if mid < last else last):
            du = x + au
            if length - x + bu < du:
                du = length - x + bu
            dv = x + av
            if length - x + bv < dv:
                dv = length - x + bv
            if du + dv + l > far:
                far = du + dv + l
    return far // 2


def _table_arm(clean: _Clean, root: int, x: int) -> list[int]:
    """The vertices of root's one shortest path to clean junction x, root
    left out, x last: a run per clean junction on the way."""
    runs = []
    while x != root:
        x, run, _ = clean[x]
        runs.append(run)
    return [v for run in reversed(runs) for v in run[1:]]


def _close(clean: _Clean, root: int, x: int, middle: list[int], y: int) -> tuple[int, ...]:
    """The cycle root, x's arm, middle, y's arm back."""
    return root, *_table_arm(clean, root, x), *middle, *_table_arm(clean, root, y)[::-1]


def _table_sweep(
    dist: dict[int, int], sigma: dict[int, int], runs: _Runs, root: int,
) -> list[tuple[int, ...]]:
    """The candidates junction root owns, each root first, from root's
    clean region read off the table: dist and sigma, root's table entry,
    and runs[x] the chains that leave junction x, each as its vertices
    from x on.

    A clean vertex has one shortest path from root, whose junctions are
    above root; its branch is the vertex after root on it.  From root, the
    sweep steps a whole chain (x, y, l) at a time: when D[x] + l = D[y], y
    > root is reached through it, clean with S[y] = 1 and x as its one
    arrival, and closes an even candidate with S[y] = 2 when it is the
    second clean arrival, from another branch.  Else the fronts from x and
    y meet inside the chain when D[x] < D[y] + l, at a same-level edge or
    at a vertex of path count S[x] + S[y] = 2; with both ends clean, or
    root, and of two branches, that closes a candidate root, x's arm, the
    chain's interior, y's arm back.  It is taken once, at the later of x
    and y, and a loop at root (x = y = root) in the run whose branch is
    the smaller, the run from its first end, as _contract walks a loop
    from its junction's smaller neighbour; a loop at another junction
    closes nothing, its two ends being of one branch.  A clean junction
    keeps the junction before it and the run from there, and the arms are
    built only for candidates (_table_arm)."""
    owned = []
    # clean junction -> (the clean junction or root before it, the run
    # from there, branch)
    clean: _Clean = {}
    # junction of path count 2 -> its first clean arrival
    half: _Clean = {}
    done = set()
    todo = [root]
    for x in todo:
        done.add(x)
        dx = dist[x]
        bx = clean[x][2] if x != root else None
        for run in runs[x]:
            b = run[1] if bx is None else bx
            y = run[-1]
            l = len(run) - 1
            dy = dist[y]
            if dx + l == dy:
                if y > root and sigma[y] == 1:
                    clean[y] = x, run, b
                    todo.append(y)
                elif y > root and sigma[y] == 2:
                    x1, run1, b1 = half.setdefault(y, (x, run, b))
                    if b1 != b:
                        middle = [*run1[1:], *run[-2:0:-1]]
                        owned.append(_close(clean, root, x1, middle, x))
            elif dx < dy + l and y in done:
                by = run[-2] if y == root else clean[y][2]
                if b != by and (x != y or b < by):
                    owned.append(_close(clean, root, x, run[1:-1], y))
    return owned


def _census_rows(
    adjacency: tuple[tuple[int, ...], ...],
    longest: int,
    upper: list[int],
) -> tuple[list[tuple[int, ...]], int, int, int]:
    """The rows kernel: one BFS row per root (_census_row), roots in
    increasing order, on a connected graph with a cycle.

    Returns (cycles, girth, far_edges, longest): the convex cycles in
    canonical order, the girth, for odd girth g = 2k+1 the number of
    (root, edge) pairs with the edge at level k, and the diameter, the
    largest eccentricity seen.  A root defers each antipodal pair of its
    candidates not at itself to the later row of the pair's smaller
    vertex, then drops its row: O(n + m) memory plus O(L) per L-cycle.

    A clean vertex has one shortest path from the root, through vertices
    above the root; its branch is the root's neighbor it descends from.
    The arms of each candidate the root owns (as its minimum) run through
    clean vertices of two branches (see _sweep).  At the boundary of each
    level d, a row stops counting shortest paths once (a) no live pair
    deferred to the root lies deeper than d, (b) it has found a
    same-level edge or a merge, so its girth events are complete, and (c)
    the clean frontier, stepped to level d, spans fewer than two
    branches.  The rest, distances only, can only raise the diameter: a
    row whose bound upper[v] (see _eccentricity_bounds) is at most
    longest, the largest eccentricity seen so far, drops it.  Any other
    row finishes it, raises longest to its eccentricity e and lowers
    upper[w] to e + d(v, w) for the vertices w of its BFS-order prefix
    where that is at most longest.
    """
    n = len(adjacency)
    girth = math.inf
    far_edges = 0
    candidates: list[tuple[int, ...]] = []
    # (distance, path count) still required of each candidate's pairs;
    # None once one pair failed
    targets: list[tuple[int, int] | None] = []
    # smaller vertex of a pair -> flat [larger vertex, candidate index, ...]
    deferred: dict[int, list[int]] = {}
    # each clean vertex's branch label, root * n + its branch, and its
    # predecessor, kept across roots
    branch = [0] * n
    pred = [0] * n
    for v in range(n):
        pending = deferred.pop(v, ())
        depth = max([(targets[cid] or (0,))[0] for cid in pending[1::2]], default=0)
        finish = upper[v] > longest
        dist, sigma, order, odd, edges, merge, owned = _census_row(
            adjacency, v, depth, finish, branch, pred
        )
        ecc = dist[order[-1]]
        longest = max(longest, ecc)
        if finish:
            # a finished row is exact, so ecc(w) <= ecc + d(v, w); a
            # bound above longest settles no row unless longest grows
            for w in order:
                bound = ecc + dist[w]
                if bound > longest:
                    break
                if bound < upper[w]:
                    upper[w] = bound
        for w, cid in zip(pending[::2], pending[1::2]):
            if (dist[w], sigma[w]) != targets[cid]:
                targets[cid] = None
        if merge is not None and 2 * merge < girth:
            girth, far_edges = 2 * merge, 0
        if edges and 2 * odd + 1 < girth:
            girth, far_edges = 2 * odd + 1, 0
        if 2 * odd + 1 == girth:
            far_edges += edges
        for cycle in owned:
            cid = len(candidates)
            for lo, hi in _antipodal_pairs(cycle):
                if lo != v:
                    deferred.setdefault(lo, []).extend((hi, cid))
            candidates.append(cycle)
            targets.append(_lemma_target(len(cycle)))
    cycles = [c for c, t in zip(candidates, targets) if t is not None]
    return cycles, girth, far_edges, longest


def _census_chains(
    adjacency: tuple[tuple[int, ...], ...], chains: _Chains, place: _Places,
    runs: _Runs, table: _Table,
) -> tuple[list[tuple[int, ...]], int, int, int]:
    """The chains kernel: a connected graph with a cycle, contracted to
    its junctions where the junction table pays (see _junction_table),
    with the table as its metric and _contract's runs as its chains.

    Returns what _census_rows does.  A cycle through a chain-interior
    vertex holds its whole chain (see _contract), and every cycle holds a
    junction, so a candidate belongs to its least junction r: the arms of
    a convex cycle from r are its only shortest paths from r, and every
    junction on them is the cycle's own, so above r, while from a larger
    junction r would lie on an arm.  One pass over the junctions reads
    each one's table entry, its D and S, and with them the junction
    sweeps its clean region over the table (_table_sweep), a whole chain
    per step, reading only the runs at the junctions of that region.  A
    candidate's junction positions are read once, a chain per step
    (_junction_positions); its antipodal pairs are tested as it is built, root first, from each pair
    whose first end is a junction in O(1), which settles the rest
    (_table_holds), so nothing is deferred; each cycle kept is then
    rotated to canonical order.

    The girth, far-edge count and diameter come from the table and the
    cycles found.  The row from any vertex of a girth cycle sees a girth
    event, so the girth is the least event of the junctions' table rows
    (_table_row).  For odd girth g a vertex's far-edge count is the number
    of girth cycles through it.  The junctions' rows count those at the
    junctions, and each girth cycle found adds g less its own junctions,
    the count its pair test read, so the far-edge check holds exactly when
    the rows count at the junctions what the cycles found do: a girth
    cycle missing, or found twice, moves the latter by its junctions, at
    least one.  A vertex at
    position i of chain (a, b, length) has eccentricity at most min(i +
    ecc(a), length - i + ecc(b)), so only a chain where (length + ecc(a) +
    ecc(b)) // 2 exceeds the largest eccentricity seen has its own largest
    found, in O(C) (_chain_eccentricity), once per distinct (a, b,
    length): twin chains share it, and there each other chain whose bound
    cannot raise the largest far sum seen costs one comparison.

    Time: O(J (J + C) log J) for the table; per junction O(J + C) for its
    table row and O(1) per chain end at each junction of its clean region;
    per candidate L-cycle O(L) for its arms and its rotation, and O(1) per
    junction for its positions and pairs; memory J * J entries beside O(n
    + m).
    """
    cycles: list[tuple[int, ...]] = []
    girth = math.inf
    far_edges = 0
    eccentricity = {}
    # length -> the vertices not junctions over the cycles kept of that length
    outside: dict[int, int] = {}
    for root, (dist, sigma) in table.items():
        odd, edges, merge, eccentricity[root] = _table_row(chains, dist, sigma)
        if (event := min(2 * merge, 2 * odd + 1)) < girth:
            girth, far_edges = event, 0
        if 2 * odd + 1 == girth:
            far_edges += edges
        for cycle in _table_sweep(dist, sigma, runs, root):
            length = len(cycle)
            at = _junction_positions(chains, place, cycle)
            if _table_holds(chains, place, table, cycle, at):
                cycles.append(_rotated(cycle))
                outside[length] = outside.get(length, 0) + length - len(at)
    if girth % 2:
        # the far edges seen from each girth cycle's other vertices
        far_edges += outside.get(girth, 0)
    longest = max(eccentricity.values())
    # swapping two chains of the same ends and length is an automorphism,
    # so such twins have the same largest eccentricity: one per (a, b,
    # length), canonical as _contract stores a <= b
    for c in {chain: c for c, chain in enumerate(chains)}.values():
        a, b, length = chains[c]
        if (length + eccentricity[a] + eccentricity[b]) // 2 > longest:
            longest = max(longest, _chain_eccentricity(chains, table, c))
    return cycles, girth, far_edges, longest


def _predecessor_pairs(
    near: list[int], ring: list[int], evens: list[tuple[int, int]],
) -> Iterable[tuple[int, int, tuple[int], int]]:
    """(x, y, (w,), bit) per root of each (w, roots) of evens, with x < y
    the two predecessors of w: its neighbours in the root's ring below w."""
    for w, roots in evens:
        apex = (w,)
        nw = near[w]
        while roots:
            bit = roots & -roots
            roots ^= bit
            both = nw & ring[bit.bit_length() - 1]
            yield (both & -both).bit_length() - 1, both.bit_length() - 1, apex, bit


def _read_back(
    rings: list[list[int]], bits: list[int], exact: list[int], k: int, odd: bool,
    found: Iterable[tuple[int, int, tuple[int, ...], int]], cycles: list[tuple[int, ...]],
) -> None:
    """Append to cycles, in canonical order, each convex candidate of found.

    found yields (x, y, apex, roots): for each root r in the mask roots,
    the candidate runs from r up r's clean arm to x at level k, through
    apex (empty when odd, else the vertex above x and y) and down y's
    clean arm.  It is convex when the arms start at different neighbours
    of r and exact holds every antipodal pair: with a the arm of x upwards
    and b that of y downwards, a[i] and b[i] are paired, and when odd also
    a[i] and b[i + 1]; the pair at r holds by construction.  The pairs are
    tested before the cycle's tuple is built.

    rings[j][u] holds the roots at distance j from u, which by symmetry are
    the vertices at distance j from root u.  A clean vertex has one
    shortest path from the root, so its predecessor is the one vertex in
    both its neighbour mask rings[1][u] and the root's ring a level below,
    and no arm is stored.  For k >= 2 an arm's level-1 vertex is the one
    neighbour of r at distance k - 1 from x or y, so the pairs (a[0], y)
    and (x, b[k - 1]) are tested on masks before any walk; they also keep
    the arms apart, as exact[y] holds no vertex at distance k - 1 from y.
    """
    if k == 1:
        for x, y, apex, roots in found:
            # a triangle is always convex, a square when its pair (x, y) is
            if odd or exact[x] & bits[y]:
                while roots:
                    bit = roots & -roots
                    roots ^= bit
                    cycles.append((bit.bit_length() - 1, x, *apex, y))
        return
    near = rings[1]
    if k == 2:
        for x, y, apex, roots in found:
            nx, ny, ex, ey = near[x], near[y], exact[x], exact[y]
            while roots:
                bit = roots & -roots
                roots ^= bit
                r = bit.bit_length() - 1
                nr = near[r]
                # each arm's level-1 vertex a or b, as a mask; exact is
                # symmetric, so ey & ma tests the pair (a, y)
                ma = nr & nx
                mb = nr & ny
                # pairs (a, y) and (x, b), and (a, b) when odd
                if ma != mb and ey & ma and ex & mb:
                    a = ma.bit_length() - 1
                    if not odd or exact[a] & mb:
                        b = mb.bit_length() - 1
                        cycles.append((r, a, x, *apex, y, b) if a < b else (r, b, y, *apex, x, a))
        return
    top = rings[k - 1]
    below = rings[k - 1:1:-1]
    for x, y, apex, roots in found:
        ex, ey, tx, ty = exact[x], exact[y], top[x], top[y]
        while roots:
            bit = roots & -roots
            roots ^= bit
            r = bit.bit_length() - 1
            nr = near[r]
            # each arm's level-1 vertex, as a mask, and its pair as in k == 2
            ma = nr & tx
            mb = nr & ty
            if not (ma != mb and ey & ma and ex & mb):
                continue
            # both arms downwards, a level per ring, to level 2, then level 1
            a = [u := x]
            b = [v := y]
            for ring in below:
                rr = ring[r]
                a.append(u := (near[u] & rr).bit_length() - 1)
                b.append(v := (near[v] & rr).bit_length() - 1)
            a.append(u := ma.bit_length() - 1)
            b.append(v := mb.bit_length() - 1)
            a.reverse()
            # the pairs a[i], b[i] not yet tested, and a[i], b[i + 1] when odd
            pairs = chain(zip(a[1:-1], b[1:-1]), zip(a, b[1:]) if odd else ())
            if all(exact[p] & bits[q] for p, q in pairs):
                if u > v:
                    a, b = b[::-1], a[::-1]
                cycles.append((r, *a, *apex, *b))


def _census_planes(
    adjacency: tuple[tuple[int, ...], ...],
) -> tuple[list[tuple[int, ...]], int, int, int]:
    """The planes kernel: every root's BFS at once, root r as bit r, on a
    connected graph with a cycle.

    Returns what _census_rows does.  Round d steps four planes per vertex
    w from level d - 1 to level d: ones, twos and threes hold the roots at
    distance d from w with at least one, two and three shortest paths (a
    saturating add over w's neighbours, masked to the roots new at w), and
    clean holds the roots for which w is clean: one shortest path, w above
    the root, and w's one predecessor clean, or the root itself.  Level 1
    is set in closed form, not stepped: ones is w's neighbour mask, twos
    and threes are 0, and clean is the neighbours below w.  A root's
    owned candidates come straight from the planes: a same-level edge with
    the root in both ends' clean planes closes an odd candidate, a vertex
    above the root with exactly two shortest paths, both from clean
    predecessors, an even one.  Distance is symmetric, so round j's ones
    plane, kept as rings[j], is also each root's ring of vertices at
    distance j; the arms read back through the rings, a neighbour mask and
    a bit test per vertex (see _read_back).  Every antipodal pair of a
    candidate built in round d lies at distance d, so each pair is tested
    against round d's "exactly one" (odd) or "exactly two" (even) paths
    plane, before the candidate's tuple is built.  The girth is set by the
    first round that shows a same-level edge or a second shortest path,
    and the far-edge count sums popcount(ones[x] & ones[w]) over the edges
    of that round.

    A vertex retires once its rings hold every root: each later ring of it
    is empty, so no later round steps it, and its planes stay 0.  The
    kernel returns after the round in which the last vertex retires, whose
    level is the diameter, without stepping an empty round.

    Memory: the rings of every round are kept for the read-back, (D + 1)
    lists of n ints of n bits for diameter D, beside nine live planes per
    vertex and O(L) per convex L-cycle; candidates are read back one at a
    time.  The peak RSS rise measured 1.3-2.2 times (D + 10) * n * n / 8
    bytes, 1.0-59 MiB, on G(n, 10 / (n - 1)) with n = 500-4000, so about
    (D + 10) * n * n / 4 bytes.  profile_and_census runs this kernel only
    when that fits the budget with D <= 2 * longest (see _small_world),
    and the O(L) per convex L-cycle comes on top of the budget.
    A root at distance d - 1 from a neighbour of w is at distance d - 2,
    d - 1 or d from w, so the roots new at w in round d are those in
    neither of w's two latest rings.
    """
    n = len(adjacency)
    cycles: list[tuple[int, ...]] = []
    bits = [1 << v for v in range(n)]
    near = [sum(map(bits.__getitem__, nbrs)) for nbrs in adjacency]
    # level 1 in closed form, level 0 (each vertex its own root) before it
    back = bits
    ones = near
    twos = threes = [0] * n
    clean = [m & (b - 1) for m, b in zip(near, bits)]
    rings = [bits, near]
    edges = [(x, w) for x in range(n) for w in adjacency[x] if x < w]
    # the roots outside each vertex's rings so far
    unseen = [n - 1 - len(nbrs) for nbrs in adjacency]
    active = [w for w in range(n) if unseen[w]]
    girth = math.inf
    far_edges = 0
    d = 1
    while True:
        if girth == math.inf:
            if any(twos):
                girth = 2 * d
            else:
                far_edges = sum((ones[x] & ones[w]).bit_count() for x, w in edges)
                if far_edges:
                    girth = 2 * d + 1
        # odd candidates, arms at level d
        found = (
            (x, w, (), both) for x, w in edges for both in [clean[x] & clean[w]] if both
        )
        _read_back(rings, bits, [a & ~b for a, b in zip(ones, twos)], d, True, found, cycles)
        if not active:
            return cycles, girth, far_edges, d
        d += 1
        new_ones = [0] * n
        new_twos = [0] * n
        new_threes = [0] * n
        new_clean = [0] * n
        # (vertex, roots it closes an even candidate for)
        evens = []
        still = []
        for w in active:
            a1 = a2 = a3 = c = c2 = 0
            # add u's path counts to w's, saturating at 3, and count w's
            # clean neighbours, saturating at 2
            for u in adjacency[w]:
                b1 = ones[u]
                if b1:
                    b2 = twos[u]
                    a3 |= threes[u] | a2 & b1 | a1 & b2
                    a2 |= b2 | a1 & b1
                    a1 |= b1
                    cu = clean[u]
                    c2 |= c & cu
                    c |= cu
            fresh = ~(ones[w] | back[w])
            a1 &= fresh
            a2 &= fresh
            a3 &= fresh
            new_ones[w] = a1
            new_twos[w] = a2
            new_threes[w] = a3
            lower = bits[w] - 1  # the roots below w
            new_clean[w] = c & a1 & ~a2 & lower
            if roots := c2 & a2 & ~a3 & lower:
                evens.append((w, roots))
            if left := unseen[w] - a1.bit_count():
                unseen[w] = left
                still.append(w)
        active = still
        back, ones, twos, threes = ones, new_ones, new_twos, new_threes
        clean = new_clean
        rings.append(ones)
        # even candidates, arms at level d - 1
        exact = [a & ~b for a, b in zip(twos, threes)]
        found = _predecessor_pairs(near, rings[d - 1], evens)
        _read_back(rings, bits, exact, d - 1, False, found, cycles)


def _profile_and_census_of(
    cycles: list[tuple[int, ...]],
    girth: int | float,
    far_edges: int,
    longest: int,
) -> tuple[MetricProfile, CycleCensus]:
    """The census and profile of a connected graph from a kernel's
    findings, after the far-edge check of odd girth."""
    census = CycleCensus.from_cycles(cycles)
    if girth != math.inf and girth % 2:
        counted = census.by_length.get(girth, 0)
        if far_edges != girth * counted:
            raise ConsistencyError(
                f"{far_edges} same-level edges at distance {girth // 2} imply "
                f"{far_edges / girth:g} cycles of odd girth {girth}, "
                f"but the census has {counted}"
            )
    return MetricProfile(girth, longest, True), census


def _small_world(n: int, ecc0: int) -> bool:
    """Whether the census runs the planes kernel: on a connected graph
    where vertex 0's eccentricity ecc0 is at most log2(n), and whose planes
    fit the budget.  By the triangle inequality through vertex 0 the
    diameter is at most 2 * ecc0, so the planes take about (2 * ecc0 + 10)
    * n * n / 4 bytes (see _census_planes); the list of convex cycles comes
    on top."""
    return 2**ecc0 <= n and (2 * ecc0 + 10) * n * n // 4 <= _BUDGET


def profile_and_census(g: Graph) -> tuple[MetricProfile, CycleCensus]:
    """Girth, diameter, connectivity and the exact convex-cycle census.

    Every convex cycle reconstructs from each of its antipodal pairs, so
    exactly one pair of each has the cycle's minimum vertex as its apex
    (odd) or as its smaller end (even); each root builds only the
    candidates it owns that way, from the vertices with one shortest path
    from the root through vertices above it, so each candidate is built
    once; the chains kernel does the same with junctions in place of
    vertices (see _census_chains).  Girth is the least 2d+1 over
    same-level edges and 2d over vertices with two or more shortest
    paths.  For odd girth g = 2k+1 each girth cycle shows one same-level
    edge at level k to each of its g vertices and no other such edge
    exists, so g times the census's girth-cycle count must equal that
    edge count; a mismatch raises ConsistencyError.

    A graph with m >= n tries the junction table first: where it pays,
    such as a long cycle, a subdivided graph or a flower of cycles through
    one vertex, the graph is connected and takes the chains kernel (see
    _census_chains), with no BFS; the table refuses a disconnected graph
    from its contraction alone (see _junction_table).  For every other
    graph a sweep of bfs_record from vertex 0 shows whether g is
    connected.  If not, g is split in O(n + m), and each component with a
    cycle, relabelled by increasing vertex (which keeps canonical order),
    goes through this pass as a connected graph; the girth is the least of
    theirs, the diameter infinite.  Else g takes the first of: a tree, its
    diameter from a second sweep (see _eccentricity_bounds); where vertex
    0's eccentricity is at most log2(n), the planes kernel (see
    _census_planes); else, such as a grid, the rows kernel (see
    _census_rows), with the second sweep's bounds.  All three kernels hand
    their cycles, girth, far-edge count and diameter to the same checks.
    """
    adjacency = g.adjacency
    if not g.n:
        return MetricProfile(math.inf, 0, True), CycleCensus.from_cycles(())
    if g.m >= g.n and (contracted := _junction_table(adjacency)):
        return _profile_and_census_of(*_census_chains(adjacency, *contracted))
    dist = bfs_record(g, 0).dist
    if None not in dist:
        if g.m < g.n:
            found = [], math.inf, 0, _eccentricity_bounds(g, dist)[0]
        elif _small_world(g.n, max(dist)):
            found = _census_planes(adjacency)
        else:
            found = _census_rows(adjacency, *_eccentricity_bounds(g, dist))
        return _profile_and_census_of(*found)
    # components named by their least vertex; each one's vertices increase
    part = [-1] * g.n
    members: dict[int, list[int]] = {}
    for s in range(g.n):
        if part[s] < 0:
            part[s] = s
            queue = [s]
            for v in queue:
                for w in adjacency[v]:
                    if part[w] < 0:
                        part[w] = s
                        queue.append(w)
        members.setdefault(part[s], []).append(s)
    girth = math.inf
    cycles: list[tuple[int, ...]] = []
    for vertices in members.values():
        if sum(len(adjacency[v]) for v in vertices) < 2 * len(vertices):
            continue  # a tree
        label = {v: i for i, v in enumerate(vertices)}
        edges = [(label[v], label[w]) for v in vertices for w in adjacency[v] if v < w]
        profile, census = profile_and_census(Graph(len(vertices), edges))
        girth = min(girth, profile.girth)
        # as the component's kernel found them, sorted once for the union
        cycles += [tuple(map(vertices.__getitem__, c)) for c in _cycles_slot.__get__(census)]
    return MetricProfile(girth, math.inf, False), CycleCensus.from_cycles(cycles)


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

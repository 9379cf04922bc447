"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (plain BFS, path
enumeration, permutation/Bareiss determinants, per-bit graph6 decoding)
without touching the library code paths under test.  The all-roots census
pipeline below is the slow reference for the library's one-pass census: a
BFS record per root kept for the whole graph, scans of every antipodal pair,
a path rebuild per pair and an O(L^2) vertex-pair verifier.  owned_candidates
is the slow reference for one root's candidate sweep: it reads the root's
same-level edges and merges off a full row and walks each back to the root,
refusing the walks that do not stay above it or that meet early.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import permutations

from convexcycles import DistanceRecord, Graph


def bfs_distances(g: Graph, root: int) -> list[int | None]:
    dist: list[int | None] = [None] * g.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bfs_counts(g: Graph, root: int) -> DistanceRecord:
    """Distances and exact shortest-path counts from one root."""
    dist: list[int | None] = [None] * g.n
    sigma = [0] * g.n
    dist[root] = 0
    sigma[root] = 1
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
            if dist[w] == dist[u] + 1:
                sigma[w] += sigma[u]
    return DistanceRecord(root, tuple(dist), tuple(sigma))


def all_roots_records(g: Graph) -> list[DistanceRecord]:
    return [bfs_counts(g, r) for r in range(g.n)]


def girth_from_records(g: Graph, records: list[DistanceRecord]) -> int | float:
    """From a root, an edge with both ends at distance d closes an odd walk
    of length 2d+1, and a vertex at distance d with sigma >= 2 has two
    shortest paths enclosing a cycle of length <= 2d; a root on a shortest
    cycle sees its far edge or far vertex at exactly the girth."""
    best: int | float = math.inf
    for rec in records:
        for x, y in g.edge_list:
            d = rec.dist[x]
            if d is not None and d == rec.dist[y]:
                best = min(best, 2 * d + 1)
        for d, s in zip(rec.dist, rec.sigma):
            if s >= 2:
                best = min(best, 2 * d)
    return best


def odd_antipodal_pairs(
    g: Graph, records: list[DistanceRecord]
) -> list[tuple[tuple[int, int], int]]:
    """All (edge xy, vertex v) with d(x,v) = d(y,v) = k >= 1 and unique
    shortest paths from both endpoints to v."""
    pairs = []
    for v, rec in enumerate(records):
        for x, y in g.edge_list:
            d = rec.dist[x]
            if d is None or d < 1 or d != rec.dist[y]:
                continue
            if rec.sigma[x] == 1 and rec.sigma[y] == 1:
                pairs.append(((x, y), v))
    return pairs


def even_antipodal_pairs(
    g: Graph, records: list[DistanceRecord]
) -> list[tuple[int, int]]:
    """All vertex pairs u < v at distance >= 2 joined by exactly two
    shortest paths."""
    return [
        (u, v)
        for u, rec in enumerate(records)
        for v in range(u + 1, g.n)
        if rec.dist[v] is not None and rec.dist[v] >= 2 and rec.sigma[v] == 2
    ]


def is_convex_cycle_pairwise(records: list[DistanceRecord], verts) -> bool:
    """Every vertex pair of a cycle of the graph: host distance equals arc
    distance, and the host path count equals the on-cycle count (2 for the
    antipodal pairs of an even cycle, 1 otherwise)."""
    length = len(verts)
    for i in range(length):
        rec = records[verts[i]]
        for j in range(i + 1, length):
            t = min(j - i, length - (j - i))
            w = verts[j]
            if rec.dist[w] != t:
                return False
            if rec.sigma[w] != (2 if length % 2 == 0 and 2 * t == length else 1):
                return False
    return True


def _path_to_root(g: Graph, rec: DistanceRecord, x: int) -> list[int]:
    """x, then one neighbor a level closer to the root at each step."""
    path = [x]
    while rec.dist[path[-1]]:
        cur = path[-1]
        path.append(next(w for w in g.adjacency[cur] if rec.dist[w] == rec.dist[cur] - 1))
    return path


def merge_levels(g: Graph, dist) -> list[int]:
    """The levels of the vertices with two or more predecessors, sorted."""
    return sorted(
        dist[w] for w in range(g.n)
        if dist[w] and sum(dist[p] == dist[w] - 1 for p in g.adjacency[w]) >= 2
    )


def _walk_owned(g: Graph, dist, owner: int, a: int, b: int, far: tuple[int, ...]):
    """The cycle owner ~ a, *far, b ~ owner in canonical order, or None
    when a walk back to owner passes a vertex below owner or the two walks
    meet before owner.  a and b sit at equal distance with one shortest
    path each, so each step has one neighbor a level closer."""
    left, right = [], []
    d = dist[a]
    while d:
        if a < owner or b < owner or a == b:
            return None
        left.append(a)
        right.append(b)
        d -= 1
        a = next(w for w in g.adjacency[a] if dist[w] == d)
        b = next(w for w in g.adjacency[b] if dist[w] == d)
    if left[-1] > right[-1]:
        left, right = right, left
    return (owner, *left[::-1], *far, *right)


def owned_candidates(g: Graph, v: int) -> list[tuple[int, ...]]:
    """The candidate cycles root v owns, sorted: every same-level edge with
    ends of one shortest path each, and every vertex above v with exactly
    two shortest paths, walked back to v through v's full row; a walk that
    passes a vertex below v, or two walks that meet before v, are refused."""
    rec = bfs_counts(g, v)
    dist, sigma = rec.dist, rec.sigma
    owned = [
        _walk_owned(g, dist, v, x, y, ())
        for x, y in g.edge_list
        if dist[x] is not None and dist[x] == dist[y]
        and x > v and sigma[x] == 1 and sigma[y] == 1
    ]
    for w in range(v + 1, g.n):
        # sigma 2 with two or more predecessors means two of sigma 1
        below = [u for u in g.adjacency[w] if dist[w] and dist[u] == dist[w] - 1]
        if len(below) >= 2 and sigma[w] == 2:
            owned.append(_walk_owned(g, dist, v, *below, (w,)))
    return sorted(c for c in owned if c is not None)


def reference_census(g: Graph) -> tuple[int | float, int | float, bool, list[tuple[int, ...]]]:
    """(girth, diameter, connected, convex cycles) by the all-roots pipeline:
    every antipodal pair rebuilds its candidate, and the candidates that are
    cycles pass the pairwise verifier; cycles sorted by (length, vertices)."""
    records = all_roots_records(g)
    connected = all(d is not None for rec in records for d in rec.dist)
    diameter = max((d for rec in records for d in rec.dist if d is not None), default=0)
    candidates = []
    for (x, y), v in odd_antipodal_pairs(g, records):
        rec = records[v]
        candidates.append(_path_to_root(g, rec, x)[::-1] + _path_to_root(g, rec, y)[:-1])
    for u, v in even_antipodal_pairs(g, records):
        rec = records[u]
        below = [w for w in g.adjacency[v] if rec.dist[w] == rec.dist[v] - 1]
        if len(below) == 2:
            a, b = below
            candidates.append(
                _path_to_root(g, rec, a)[::-1] + [v] + _path_to_root(g, rec, b)[:-1]
            )
    # a cycle is rebuilt from each of its pairs, so verify each one once
    cycles = {canonical_cycle(tuple(c)) for c in candidates if len(set(c)) == len(c)}
    return (
        girth_from_records(g, records),
        diameter if connected else math.inf,
        connected,
        sorted((c for c in cycles if is_convex_cycle_pairwise(records, c)),
               key=lambda c: (len(c), c)),
    )


def graph6_per_bit(text: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edges u < v) of one graph6 line, reading every payload bit in
    column order; padding bits are ignored."""
    data = [ord(ch) - 63 for ch in text.strip().removeprefix(">>graph6<<")]
    if data[0] < 63:
        n, start = data[0], 1
    elif data[1] < 63:
        n, start = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        start = 8
    edges = set()
    bit = 0
    for v in range(1, n):
        for u in range(v):
            byte, off = divmod(bit, 6)
            if data[start + byte] >> (5 - off) & 1:
                edges.add((u, v))
            bit += 1
    return n, edges


def graph6_per_pair(g: Graph) -> str:
    """One graph6 line, asking the edge set about every vertex pair in
    column order."""
    edges = set(g.edge_list)
    n = g.n
    if n <= 62:
        chars = [chr(n + 63)]
    else:
        chars = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    bits = [int((u, v) in edges) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        chars.append(chr(int("".join(map(str, bits[i:i + 6])), 2) + 63))
    return "".join(chars)


def all_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u,v-path, each as a vertex tuple."""
    dist = bfs_distances(g, u)
    if dist[v] is None:
        return []
    paths: list[tuple[int, ...]] = []

    def walk(cur: int, path: list[int]) -> None:
        if cur == v:
            paths.append(tuple(path))
            return
        if dist[cur] >= dist[v]:
            return
        for w in g.adjacency[cur]:
            if dist[w] == dist[cur] + 1:
                walk(w, path + [w])

    walk(u, [u])
    return paths


def count_shortest_paths(g: Graph, u: int, v: int) -> int:
    return len(all_shortest_paths(g, u, v))


def canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation over both orientations, by trying
    all 2L of them."""
    best = None
    for oriented in (seq, seq[::-1]):
        for shift in range(len(oriented)):
            rotation = oriented[shift:] + oriented[:shift]
            if best is None or rotation < best:
                best = rotation
    return best


def all_simple_cycles(g: Graph, max_len: int) -> set[tuple[int, ...]]:
    """Canonical vertex tuples of every simple cycle of length <= max_len."""
    cycles: set[tuple[int, ...]] = set()

    def grow(path: list[int], used: set[int]) -> None:
        last = path[-1]
        for w in g.adjacency[last]:
            if w == path[0] and len(path) >= 3:
                cycles.add(canonical_cycle(tuple(path)))
            elif w not in used and w > path[0] and len(path) < max_len:
                used.add(w)
                path.append(w)
                grow(path, used)
                path.pop()
                used.discard(w)

    for start in range(g.n):
        grow([start], {start})
    return cycles


def brute_girth(g: Graph) -> int | float:
    cycles = all_simple_cycles(g, g.n)
    return min((len(c) for c in cycles), default=float("inf"))


def is_convex_cycle_by_definition(g: Graph, verts: tuple[int, ...]) -> bool:
    """Literal definition: every shortest path between two cycle vertices
    uses only cycle vertices and cycle edges."""
    vset = set(verts)
    length = len(verts)
    cycle_edges = {
        frozenset((verts[i], verts[(i + 1) % length])) for i in range(length)
    }
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            for path in all_shortest_paths(g, a, b):
                if any(x not in vset for x in path):
                    return False
                for t in range(len(path) - 1):
                    if frozenset((path[t], path[t + 1])) not in cycle_edges:
                        return False
    return True


def triangle_count(g: Graph) -> int:
    total = 0
    for u, v in g.edge_list:
        total += len(set(g.adjacency[u]) & set(g.adjacency[v]))
    return total // 3


def adjacency_matrix(g: Graph) -> list[list[int]]:
    mat = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edge_list:
        mat[u][v] = 1
        mat[v][u] = 1
    return mat


def det_permutation(mat: list[list[int]]) -> int:
    """Leibniz expansion; fine up to about 8x8."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term *= mat[i][perm[i]]
            if term == 0:
                break
        if term:
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            total += -term if inversions % 2 else term
    return total


def det_bareiss(mat: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact over the integers."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly_value(g: Graph, x: int) -> int:
    """det(xI - A) at an integer point, via Bareiss."""
    mat = [[-v for v in row] for row in adjacency_matrix(g)]
    for i in range(g.n):
        mat[i][i] += x
    return det_bareiss(mat)


def expand_factored(
    factors: list[tuple[int, int]], modulus: int | None = None
) -> list[int]:
    """Ascending coefficients of prod (x - a)**k: each power from binomial
    coefficients, the powers multiplied by schoolbook products.  Repeated
    roots stay separate factors.  With a modulus every coefficient is
    reduced modulo it, which keeps degree-3000 products to small ints."""
    coeffs = [1]
    for a, k in factors:
        power = [math.comb(k, j) * (-a) ** (k - j) for j in range(k + 1)]
        if modulus:
            power = [b % modulus for b in power]
        product = [0] * (len(coeffs) + k)
        for i, c in enumerate(coeffs):
            if c:
                for j, b in enumerate(power):
                    product[i + j] += c * b
        coeffs = [c % modulus for c in product] if modulus else product
    return coeffs


def newton_coefficient(factors: list[tuple[int, int]], g: int) -> int:
    """Coefficient of x**(n-g) in prod (x - a)**k, n the sum of the k.

    It is (-1)**g times the elementary symmetric function e_g of the roots
    counted with multiplicity, which Newton's identities
    m*e_m = sum_{i=1..m} (-1)**(i-1) * e_{m-i} * p_i give from the power
    sums p_i = sum k*a**i, i <= g: O(g^2) integer work, no expansion."""
    power_sums = [sum(k * a**i for a, k in factors) for i in range(g + 1)]
    e = [1]
    for m in range(1, g + 1):
        total = sum((-1) ** (i - 1) * e[m - i] * power_sums[i] for i in range(1, m + 1))
        assert total % m == 0
        e.append(total // m)
    return (-1) ** g * e[g]

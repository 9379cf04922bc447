"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (plain BFS, path
enumeration, permutation/Bareiss determinants) without touching the library
code paths under test.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

from convexcycles import Graph


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
    for e in g.edge_list:
        total += len(set(g.adjacency[e.u]) & set(g.adjacency[e.v]))
    return total // 3


def adjacency_matrix(g: Graph) -> list[list[int]]:
    mat = [[0] * g.n for _ in range(g.n)]
    for e in g.edge_list:
        mat[e.u][e.v] = 1
        mat[e.v][e.u] = 1
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

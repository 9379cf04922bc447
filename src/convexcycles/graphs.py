"""Immutable simple graphs, validated constructors, and named generators."""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from operator import eq

from .errors import DuplicateEdge, InvalidEdge, InvalidParameter, OutOfRange


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The graph is its adjacency: one sorted tuple of neighbors per vertex.
    Instances are immutable after construction.  The constructor checks
    every edge; the one trusted builder, `Graph._from_sorted`, takes
    neighbor lists that are sorted, simple and symmetric by construction
    and is called only by `formats.parse_graph6`.
    """

    __slots__ = ("n", "m", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidParameter(f"vertex count must be non-negative, got {n}")
        edges = edges if isinstance(edges, Sequence) else list(edges)
        neighbors: list = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise _first_fault(n, edges)
            neighbors[u].append(v)
            neighbors[v].append(u)
        # a duplicate edge leaves two equal neighbors side by side
        for u, nbrs in enumerate(neighbors):
            nbrs.sort()
            if any(map(eq, nbrs, nbrs[1:])):
                raise _first_fault(n, edges)
            neighbors[u] = tuple(nbrs)
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(neighbors)
        self.m = sum(map(len, self.adjacency)) // 2

    @classmethod
    def _from_sorted(cls, neighbors: list[list[int]]) -> Graph:
        """The graph on len(neighbors) vertices with these neighbor lists,
        taken on trust: each list strictly increasing, within 0..n-1 and
        without its own vertex, and v in neighbors[u] exactly when u is in
        neighbors[v].  Nothing is checked or sorted; a builder calls this
        only when its construction guarantees all of that."""
        g = cls.__new__(cls)
        g.n = len(neighbors)
        g.adjacency = tuple(map(tuple, neighbors))
        g.m = sum(map(len, g.adjacency)) // 2
        return g

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (u, v) with u < v, in increasing order."""
        return tuple(
            (u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v
        )

    def regular_degree(self) -> int | None:
        """Common vertex degree, or None when the graph is not regular."""
        degs = set(map(len, self.adjacency))
        if len(degs) == 1:
            return degs.pop()
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _Record:
    """Base of the package's immutable value records.

    A subclass names its fields, in order, in __slots__.  It is built by
    position or keyword; equality and hashing read the fields of `_key`,
    all of them unless the subclass overrides it; assignment and deletion
    raise AttributeError; and `__reduce__` rebuilds it through the
    constructor, so that pickle and copy never assign to a field.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        # the slots' own setters, which bypass the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        # a keyword left over is unknown or repeats a positional argument
        if kwargs or len(args) != len(names):
            raise TypeError(
                f"{type(self).__name__}() takes exactly the arguments {', '.join(names)}"
            )
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _first_fault(n: int, edges: Sequence[tuple[int, int]]) -> Exception:
    """The error for the first faulty edge in input order: out of range,
    then loop, then duplicate.  Called only when edges holds one."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return OutOfRange(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            return InvalidEdge(f"loop edge ({u}, {u}) is not allowed in a simple graph")
        edge = (min(u, v), max(u, v))
        if edge in seen:
            return DuplicateEdge(f"edge ({edge[0]}, {edge[1]}) supplied more than once")
        seen.add(edge)
    raise AssertionError("no faulty edge in the input")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParameter(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidParameter(f"a complete graph needs at least 1 vertex, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidParameter(f"both parts must be non-empty, got ({a}, {b})")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def hoffman_singleton_graph() -> Graph:
    """Five pentagons and five pentagrams joined by modular cross edges.

    Pentagon h occupies vertices 5h..5h+4, pentagram i occupies
    25+5i..25+5i+4; pentagon vertex j is joined to pentagram-i vertex
    (h*i + j) mod 5.  The result is certified 7-regular with 50 vertices,
    175 edges, girth 5, and diameter 2 by the test suite.
    """
    pent = lambda h, j: 5 * h + j
    star = lambda i, j: 25 + 5 * i + j
    edges = []
    for h in range(5):
        edges += [(pent(h, j), pent(h, (j + 1) % 5)) for j in range(5)]
    for i in range(5):
        edges += [(star(i, j), star(i, (j + 2) % 5)) for j in range(5)]
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((pent(h, j), star(i, (h * i + j) % 5)))
    return Graph(50, edges)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical output for identical arguments."""
    if n < 0:
        raise InvalidParameter(f"vertex count must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"edge probability must lie in [0, 1], got {p}")
    if not 0 <= seed < 2**64:
        raise InvalidParameter(f"seed must be an unsigned 64-bit integer, got {seed}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


_FAMILIES = {
    "cycle": (cycle_graph, (int,)),
    "complete": (complete_graph, (int,)),
    "complete_bipartite": (complete_bipartite_graph, (int, int)),
    "petersen": (petersen_graph, ()),
    "hoffman_singleton": (hoffman_singleton_graph, ()),
    "gnp": (gnp_random_graph, (int, float, int)),
}


def generate(family: str, *params) -> Graph:
    """Dispatch to a named generator: cycle(n), complete(n),
    complete_bipartite(a, b), petersen, hoffman_singleton, gnp(n, p, seed)."""
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InvalidParameter(f"unknown family {family!r} (known: {known})")
    func, kinds = _FAMILIES[family]
    if len(params) != len(kinds):
        raise InvalidParameter(
            f"family {family!r} takes {len(kinds)} parameter(s), got {len(params)}"
        )
    try:
        args = [kind(p) for kind, p in zip(kinds, params)]
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"bad parameter for family {family!r}: {exc}") from exc
    return func(*args)

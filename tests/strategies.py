"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from itertools import combinations

import hypothesis.strategies as st

from convexcycles import Graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << nbits) - 1))
    pairs = list(combinations(range(n), 2))
    edges = [pairs[k] for k in range(nbits) if mask >> k & 1]
    return Graph(n, edges)


@st.composite
def cycles_as_sequences(draw, max_len: int = 9) -> tuple[int, ...]:
    """A plausible cycle vertex sequence (distinct labels, length >= 3)."""
    length = draw(st.integers(3, max_len))
    labels = draw(
        st.lists(st.integers(0, 50), min_size=length, max_size=length, unique=True)
    )
    return tuple(labels)


@st.composite
def graphs_with_a_cycle(draw, max_n: int = 9) -> tuple[Graph, tuple[int, ...]]:
    """A graph and one of its cycles: a cycle through some of the vertices
    plus a sparse random set of further edges."""
    n = draw(st.integers(3, max_n))
    order = draw(st.permutations(range(n)))
    cycle = tuple(order[: draw(st.integers(3, n))])
    pairs = list(combinations(range(n), 2))
    top = (1 << len(pairs)) - 1
    mask = draw(st.integers(0, top)) & draw(st.integers(0, top))
    edges = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
    edges |= {(min(e), max(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
    return Graph(n, sorted(edges)), cycle

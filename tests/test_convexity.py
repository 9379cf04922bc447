from __future__ import annotations

import copy
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import convexcycles as cc
from convexcycles import convexity

from . import oracles
from .conftest import subdivided
from .strategies import cycles_as_sequences, graphs, graphs_with_a_cycle


def census_of(g: cc.Graph) -> cc.CycleCensus:
    return cc.profile_and_census(g)[1]


def relabelled(g: cc.Graph, rng: random.Random) -> cc.Graph:
    label = rng.sample(range(g.n), g.n)
    return cc.Graph(g.n, [(label[u], label[v]) for u, v in g.edge_list])


def grid_edges(r: int, c: int) -> list[tuple[int, int]]:
    """The r x c grid's edges, vertex x * c + y at row x and column y."""
    edges = [(x * c + y, x * c + y + 1) for x in range(r) for y in range(c - 1)]
    return edges + [(x * c + y, (x + 1) * c + y) for x in range(r - 1) for y in range(c)]


def path_graph(length: int) -> cc.Graph:
    return cc.Graph(length + 1, [(i, i + 1) for i in range(length)])


def union(*parts: cc.Graph) -> cc.Graph:
    """The disjoint union, each part's labels shifted past the last's."""
    n, edges = 0, []
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edge_list]
        n += g.n
    return cc.Graph(n, edges)


def components(g: cc.Graph) -> list[cc.Graph]:
    """Each component of g relabelled by increasing vertex, components by
    least vertex."""
    left = set(range(g.n))
    parts = []
    while left:
        dist = oracles.bfs_distances(g, min(left))
        vertices = [v for v in range(g.n) if dist[v] is not None]
        label = {v: i for i, v in enumerate(vertices)}
        edges = [(label[u], label[v]) for u, v in g.edge_list if u in label]
        parts.append(cc.Graph(len(label), edges))
        left -= label.keys()
    return parts


def with_cycles(g: cc.Graph) -> list[cc.Graph]:
    """The components of g with a cycle, the only graphs a kernel gets."""
    return [h for h in components(g) if h.m >= h.n]


def eccentricity_bounds(g: cc.Graph) -> tuple[int, list[int]]:
    """The sweeps' bounds of a connected graph, as the census takes them."""
    return convexity._eccentricity_bounds(g, cc.bfs_record(g, 0).dist)


@pytest.fixture
def kernel_inputs(monkeypatch) -> list[tuple[str, tuple[tuple[int, ...], ...]]]:
    """Wrap the three census kernels; the list receives (kernel, adjacency)
    per call."""
    received = []
    for name in ("_census_planes", "_census_chains", "_census_rows"):

        def record(adjacency, *args, name=name, kernel=getattr(convexity, name)):
            received.append((name, adjacency))
            return kernel(adjacency, *args)

        monkeypatch.setattr(convexity, name, record)
    return received


def wedge(g: cc.Graph, h: cc.Graph) -> cc.Graph:
    """g and h glued at their vertex 0."""
    shift = [0, *range(g.n, g.n + h.n - 1)]
    return cc.Graph(g.n + h.n - 1, [*g.edge_list, *((shift[u], shift[v]) for u, v in h.edge_list)])


def theta_graph(*lengths: int) -> cc.Graph:
    """Chains of the given lengths between vertices 0 and 1."""
    n, edges = 2, []
    for length in lengths:
        path = [0, *range(n, n + length - 1), 1]
        n += length - 1
        edges += zip(path, path[1:])
    return cc.Graph(n, edges)


def flower_graph(petals: int, length: int) -> cc.Graph:
    """petals cycles of the given length through vertex 0."""
    g = cc.cycle_graph(length)
    for _ in range(petals - 1):
        g = wedge(g, cc.cycle_graph(length))
    return g


def subdivided_unevenly(g: cc.Graph, rng: random.Random) -> cc.Graph:
    """g with each edge cut into 1 to 5 edges, drawn from rng."""
    n, edges = g.n, []
    for u, v in g.edge_list:
        pieces = rng.randint(1, 5)
        path = [u, *range(n, n + pieces - 1), v]
        n += pieces - 1
        edges += zip(path, path[1:])
    return cc.Graph(n, edges)


def chain_families() -> list[cc.Graph]:
    """Graphs made mostly of degree-2 chains, relabelled at random: uneven
    subdivisions, theta graphs, cycles hanging off one vertex, pendant
    paths, C3-C30 and a disconnected union with cycle components."""
    rng = random.Random(19)
    graphs = [cc.cycle_graph(length) for length in range(3, 31)]
    graphs += [
        theta_graph(*lengths)
        for lengths in [(1, 2, 2), (2, 2, 2), (2, 3, 4), (1, 3, 5), (3, 3, 3, 3),
                        (1, 4, 4, 6), (2, 2, 5), (4, 5, 6)]
    ]
    graphs += [
        wedge(cc.cycle_graph(length), h)
        for length in (3, 6, 9)
        for h in (path_graph(3), cc.cycle_graph(5), cc.complete_graph(4), theta_graph(2, 3, 3))
    ]
    graphs += [
        path_graph(7),
        wedge(wedge(path_graph(2), path_graph(3)), path_graph(5)),
        wedge(cc.petersen_graph(), path_graph(4)),
        union(cc.cycle_graph(9), theta_graph(2, 3, 4), path_graph(4), cc.Graph(1, []),
              cc.cycle_graph(4)),
    ]
    graphs += [
        subdivided_unevenly(cc.gnp_random_graph(rng.randint(4, 8), 0.5, 19_000 + i), rng)
        for i in range(40)
    ]
    return [relabelled(g, rng) for g in graphs]


class TestCanonicalForm:
    def test_starts_at_minimum(self):
        assert cc.canonical_cycle((4, 2, 7)) == (2, 4, 7)

    def test_examples(self):
        assert cc.canonical_cycle((0, 1, 2, 3)) == (0, 1, 2, 3)
        assert cc.canonical_cycle((3, 2, 1, 0)) == (0, 1, 2, 3)
        assert cc.canonical_cycle((2, 3, 0, 1)) == (0, 1, 2, 3)

    @given(cycles_as_sequences(), st.integers(0, 20), st.booleans())
    def test_rotation_reflection_invariance(self, seq, shift, flip):
        variant = seq[shift % len(seq):] + seq[:shift % len(seq)]
        if flip:
            variant = variant[::-1]
        assert cc.canonical_cycle(variant) == cc.canonical_cycle(seq)

    @given(cycles_as_sequences())
    def test_matches_exhaustive_search(self, seq):
        assert cc.canonical_cycle(seq) == oracles.canonical_cycle(seq)

    @given(cycles_as_sequences())
    def test_idempotent(self, seq):
        once = cc.canonical_cycle(seq)
        assert cc.canonical_cycle(once) == once

    def test_invalid(self):
        with pytest.raises(cc.InvalidCycle):
            cc.canonical_cycle((0, 1))
        with pytest.raises(cc.InvalidCycle):
            cc.canonical_cycle((0, 1, 0))


def odd_pairs(g: cc.Graph) -> list[tuple[tuple[int, int], int]]:
    return oracles.odd_antipodal_pairs(g, oracles.all_roots_records(g))


def even_pairs(g: cc.Graph) -> list[tuple[int, int]]:
    return oracles.even_antipodal_pairs(g, oracles.all_roots_records(g))


class TestOddPairs:
    def test_c5_has_five(self):
        pairs = odd_pairs(cc.cycle_graph(5))
        assert len(pairs) == 5
        # each vertex pairs with its opposite edge
        assert ((2, 3), 0) in pairs

    def test_petersen_has_sixty(self, petersen):
        assert len(odd_pairs(petersen)) == 60

    def test_even_cycle_has_none(self):
        assert odd_pairs(cc.cycle_graph(6)) == []

    def test_matches_independent_definition(self, corpus):
        for g in corpus[:300]:
            expected = set()
            for v in range(g.n):
                dist = oracles.bfs_distances(g, v)
                for x, y in g.edge_list:
                    dx, dy = dist[x], dist[y]
                    if dx is None or dx != dy or dx < 1:
                        continue
                    if (
                        oracles.count_shortest_paths(g, x, v) == 1
                        and oracles.count_shortest_paths(g, y, v) == 1
                    ):
                        expected.add(((x, y), v))
            assert set(odd_pairs(g)) == expected


class TestEvenPairs:
    def test_c6(self):
        assert even_pairs(cc.cycle_graph(6)) == [(0, 3), (1, 4), (2, 5)]

    def test_q3_all_distance_two_pairs(self, q3):
        assert len(even_pairs(q3)) == 12

    def test_k23_only_the_far_side(self, k23):
        assert even_pairs(k23) == [(2, 3), (2, 4), (3, 4)]


class TestIsConvexCycle:
    def test_k4_triangles(self):
        g = cc.complete_graph(4)
        for verts in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            assert cc.is_convex_cycle(g, verts)

    def test_k23_squares_fail(self, k23):
        # 4-cycles alternate sides: 0-x-1-y; the pair (0, 1) has three paths
        assert not cc.is_convex_cycle(k23, (0, 2, 1, 3))

    def test_petersen_hexagons_fail(self, petersen):
        hexagons = [
            c for c in oracles.all_simple_cycles(petersen, 6) if len(c) == 6
        ]
        assert hexagons
        for verts in hexagons:
            assert not cc.is_convex_cycle(petersen, verts)

    def test_not_a_cycle_of_g(self):
        g = cc.cycle_graph(5)
        with pytest.raises(cc.InvalidCycle):
            cc.is_convex_cycle(g, (0, 1, 3))
        with pytest.raises(cc.InvalidCycle):
            cc.is_convex_cycle(g, (0, 1, 7))
        with pytest.raises(cc.InvalidCycle):
            cc.is_convex_cycle(g, (0, 1))
        with pytest.raises(cc.InvalidCycle):
            cc.is_convex_cycle(g, (0, 1, 2, 1))

    def test_any_rotation_or_orientation(self, petersen, petersen_analysis):
        hexagons = [
            c for c in oracles.all_simple_cycles(petersen, 6) if len(c) == 6
        ]
        for verts in petersen_analysis[1].cycles + tuple(hexagons):
            expected = len(verts) == 5
            for start in range(len(verts)):
                turned = verts[start:] + verts[:start]
                assert cc.is_convex_cycle(petersen, turned) == expected
                assert cc.is_convex_cycle(petersen, turned[::-1]) == expected

    def test_matches_literal_definition(self, corpus):
        checked = 0
        for g in corpus:
            if g.n > 6:
                break
            for verts in oracles.all_simple_cycles(g, g.n):
                expected = oracles.is_convex_cycle_by_definition(g, verts)
                assert cc.is_convex_cycle(g, verts) == expected
                checked += 1
        assert checked > 400


class TestAntipodalLemma:
    @given(graphs_with_a_cycle())
    def test_matches_pairwise_on_hypothesis_cycles(self, drawn):
        g, verts = drawn
        records = oracles.all_roots_records(g)
        expected = oracles.is_convex_cycle_pairwise(records, verts)
        assert cc.is_convex_cycle(g, verts) == expected

    def test_matches_pairwise_on_every_corpus_cycle(self, corpus):
        checked = convex = 0
        for g in corpus:
            records = oracles.all_roots_records(g)
            for verts in oracles.all_simple_cycles(g, g.n):
                expected = oracles.is_convex_cycle_pairwise(records, verts)
                assert convexity._lemma_holds(records, verts) == expected
                checked += 1
                convex += expected
        assert checked == 39_512 and convex == 5_297


class TestEnumeration:
    def test_petersen(self, petersen_analysis):
        _, census = petersen_analysis
        assert census.total == 12
        assert census.by_length == {5: 12}
        assert census.even_count == 0

    def test_c6_is_its_own_census(self):
        g = cc.cycle_graph(6)
        census = census_of(g)
        assert census.total == 1
        assert census.cycles == ((0, 1, 2, 3, 4, 5),)

    def test_q3_squares(self, q3):
        census = census_of(q3)
        assert census.total == 6
        assert census.by_length == {4: 6}

    def test_census_counts_consistent(self, corpus):
        for g in corpus[:300]:
            census = census_of(g)
            assert census.total == census.odd_count + census.even_count == len(census.cycles)
            assert sum(census.by_length.values()) == census.total
            assert all(cc.is_convex_cycle(g, c) for c in census.cycles)

    def test_matches_oracle_on_random_order8(self, beyond_corpus_profiles):
        graphs = [cc.gnp_random_graph(8, 0.4, 8800 + seed) for seed in range(150)]
        cases = [(g, census_of(g)) for g in graphs]
        for g, census in cases + [(g, census) for g, _, census in beyond_corpus_profiles]:
            brute = cc.brute_force_convex_cycles(g, g.n)
            assert census.cycles == brute.cycles

    def test_deterministic(self, petersen):
        a = census_of(petersen)
        b = census_of(petersen)
        assert a.cycles == b.cycles

    def test_disconnected_union(self):
        # two triangles in separate components: both counted
        g = cc.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        census = census_of(g)
        assert census.total == 2


def found_order(census: cc.CycleCensus) -> list[tuple[int, ...]]:
    """A census's cycles as the kernels found them, read past the sort."""
    return list(convexity._cycles_slot.__get__(census))


def matched_cycles(census: cc.CycleCensus) -> tuple[tuple[int, ...], ...]:
    match census:
        case cc.CycleCensus(cycles):
            return cycles


class TestCycleOrder:
    """census.cycles is in (length, vertices) order, each cycle canonical,
    whatever order the kernels found the cycles in: the census sorts them
    on the first read of .cycles, once, and takes its counts unsorted."""

    @staticmethod
    def check(g: cc.Graph) -> bool:
        """Check g's census order; whether its kernels found the cycles
        out of that order."""
        census = census_of(g)
        found = found_order(census)
        cycles = census.cycles
        assert type(cycles) is tuple and census.cycles is cycles
        assert list(cycles) == sorted(found, key=lambda c: (len(c), c))
        assert all(c == cc.canonical_cycle(c) for c in cycles)
        assert census.by_length == {
            length: sum(len(c) == length for c in cycles)
            for length in sorted({len(c) for c in cycles})
        }
        assert list(census.by_length) == sorted(census.by_length)
        return found != list(cycles)

    def test_corpus(self, corpus):
        assert sum(map(self.check, corpus)) > 0

    def test_seeded_gnp(self):
        graphs = [cc.gnp_random_graph(40 + 20 * (i % 5), 6 / 60, 32_000 + i) for i in range(20)]
        assert all(map(self.check, graphs))

    def test_disconnected_union(self, petersen, q3):
        g = union(cc.gnp_random_graph(30, 0.15, 32), petersen, path_graph(3), q3,
                  cc.cycle_graph(11), cc.Graph(2, []))
        assert len(components(g)) > 2
        assert self.check(g)
        assert self.check(relabelled(g, random.Random(32)))

    def test_chains(self, petersen):
        rng = random.Random(32)
        graphs = [subdivided(petersen, 8), flower_graph(6, 8), theta_graph(7, 8, 9, 10)]
        for g in graphs:
            assert convexity._junction_table(g.adjacency)
        assert sum(self.check(relabelled(g, rng)) for g in graphs) > 0
        assert sum(map(self.check, chain_families())) > 0

    def test_oracle_agrees(self, petersen, q3):
        g = union(petersen, q3, cc.complete_graph(4), cc.gnp_random_graph(9, 0.5, 32))
        census = census_of(g)
        assert found_order(census) != list(census.cycles)
        assert cc.brute_force_convex_cycles(g, 10).cycles == census.cycles

    def test_readers_see_the_sorted_record(self):
        # each reader, on a fresh census, sees what a census built from
        # the sorted tuple shows
        g = cc.gnp_random_graph(60, 0.1, 32)
        sorted_census = census_of(g)
        built = cc.CycleCensus(*(getattr(sorted_census, f) for f in cc.CycleCensus.__slots__))
        assert found_order(census_of(g)) != list(built.cycles)
        readers = {
            "equality": lambda c: c == built and built == c,
            "hash": lambda c: hash(c) == hash(built),
            "repr": lambda c: repr(c) == repr(built),
            "pickle": lambda c: all(
                pickle.dumps(c, protocol) == pickle.dumps(built, protocol)
                and pickle.loads(pickle.dumps(c, protocol)).cycles == built.cycles
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ),
            "copy": lambda c: copy.copy(c).cycles == copy.deepcopy(c).cycles == built.cycles,
            "match": lambda c: matched_cycles(c) == built.cycles,
        }
        for name, reads in readers.items():
            assert reads(census_of(g)), name


class TestReferencePipeline:
    """The one-pass census on the whole graph and on each of its
    components, and each kernel, whatever the choice of kernel picks, on
    each component with a cycle (the chains kernel where the junction
    table pays), against the all-roots reference pipeline."""

    @staticmethod
    def check(g: cc.Graph) -> None:
        parts = components(g)
        for h in [g, *parts] if len(parts) > 1 else [g]:
            profile, census = cc.profile_and_census(h)
            girth, diameter, connected, cycles = oracles.reference_census(h)
            assert (profile.girth, profile.diameter, profile.connected) == (
                girth, diameter, connected,
            )
            assert list(census.cycles) == cycles
            if connected and h.m >= h.n > 0:
                longest, upper = eccentricity_bounds(h)
                kernels = [
                    convexity._census_planes(h.adjacency),
                    convexity._census_rows(h.adjacency, longest, upper),
                ]
                if contracted := convexity._junction_table(h.adjacency):
                    kernels.append(convexity._census_chains(h.adjacency, *contracted))
                for found in kernels:
                    assert convexity._profile_and_census_of(*found) == (profile, census)

    def test_corpus(self, corpus):
        for g in corpus:
            self.check(g)

    def test_seeded_gnp(self):
        # 753 and 1346 get a diameter short by two and by one when a row
        # that dropped its tail, whose last distance falls short of its
        # eccentricity, tightens the eccentricity bounds
        for i in [*range(400), 753, 1346]:
            n = 3 + i % 38
            p = (0.05, 0.1, 0.2, 0.35)[i % 4]
            self.check(cc.gnp_random_graph(n, p, 12_000 + i))

    def test_sparse_gnp_near_connectivity(self):
        # a row drops its distance-only tail when its eccentricity bound
        # ecc(a) + d(a, v) is at most the largest eccentricity seen; near
        # the connectivity threshold the two sweeps sometimes miss the
        # diameter, so a rule that drops one row too many gives a
        # diameter one short on a few of these graphs
        for i in range(2000):
            n = 12 + i % 7
            p = (1.5, 1.75, 2.0)[i % 3] * math.log(n) / n
            self.check(cc.gnp_random_graph(n, p, 20_000 + i))

    @pytest.mark.parametrize(
        "g, diameter",
        [
            (cc.Graph(0, []), 0),
            (cc.Graph(1, []), 0),
            (cc.Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1)]), math.inf),
            (cc.Graph(9, [(0, 1), (1, 2), (2, 0), (2, 3)]
                      + [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4), (5, 8)]), math.inf),
        ],
        ids=["empty", "K1", "vertex-0-isolated", "two-components-with-cycles"],
    )
    def test_sweep_edge_cases(self, g, diameter):
        # the first sweep, from vertex 0, settles connectivity; a
        # disconnected graph goes through the pass per component and has
        # infinite diameter, K0 never reaches the sweeps
        self.check(g)
        assert cc.profile_and_census(g)[0].diameter == diameter

    def test_beyond_corpus(self, beyond_corpus_profiles):
        for g, _, _ in beyond_corpus_profiles:
            self.check(g)

    def test_relabelled_grids(self):
        # grids stop counting shortest paths earliest: no odd cycle, and
        # few vertices with one shortest path through vertices above the root;
        # most of their rows drop the distance-only tail, fewer once a few
        # missing edges loosen the eccentricity bounds
        rng = random.Random(8)
        holes = random.Random(12)
        for r in range(2, 10):
            for c in range(2, 10):
                edges = grid_edges(r, c)
                holed = holes.sample(edges, len(edges) - 1 - (r + c) % 4)
                # the grid and its holed copy share one relabelling
                state = rng.getstate()
                for kept in (edges, holed):
                    rng.setstate(state)
                    self.check(relabelled(cc.Graph(r * c, kept), rng))

    def test_cycles(self):
        # the choice of kernel picks planes for C3-C5 and chains for longer
        # cycles
        for length in range(3, 31):
            self.check(cc.cycle_graph(length))

    def test_subdivided(self, petersen, q3):
        for base, pieces in [
            (petersen, 3), (cc.complete_graph(5), 2), (q3, 2), (q3, 3),
        ]:
            self.check(subdivided(base, pieces))

    def test_hoffman_singleton(self, hoffman_singleton):
        self.check(hoffman_singleton)

    def test_chain_families(self):
        for g in chain_families():
            self.check(g)

    def test_flipped_kernels(self):
        # graphs that the flat kernel rule moved: flowers of cycles through
        # one vertex and theta graphs, with twin chains (same ends and
        # length) and mixed lengths, from planes to chains; sparse giants
        # with ecc(0) <= log2(n) < the sweeps' largest eccentricity from
        # rows to planes.  Theta(9, 9, 2) needs a twin's eccentricity for
        # its diameter, 9, where the 2-chain's gives 6
        rng = random.Random(29)
        graphs = [flower_graph(petals, length)
                  for petals, length in [(20, 6), (12, 4), (9, 5), (3, 10)]]
        graphs.append(wedge(flower_graph(4, 6), flower_graph(3, 9)))
        graphs += [theta_graph(*lengths) for lengths in [
            (5,) * 10, (3,) * 12, (9, 9, 2), (2, 9, 9), (9, 2, 9), (6, 6, 6, 3, 3),
            (4, 4, 7, 7, 7), (5,) * 6 + (6,) * 6,
        ]]
        graphs += [cc.gnp_random_graph(n, c / (n - 1), seed)
                   for n, c, seed in [(60, 3, 1), (60, 3.5, 2), (60, 4, 5), (100, 3.5, 1),
                                      (100, 4, 4)]]
        for g in graphs:
            self.check(g)
            self.check(relabelled(g, rng))

    @pytest.mark.parametrize(
        "g, by_length",
        [
            (cc.cycle_graph(297), {297: 1}),
            (cc.cycle_graph(344), {344: 1}),
            # uniform subdivisions keep the base's convex cycles: Petersen's
            # 12 pentagons, K4's 4 triangles and none of K3,3
            (subdivided(cc.petersen_graph(), 23), {115: 12}),
            (subdivided(cc.complete_graph(4), 57), {171: 4}),
            (subdivided(cc.complete_bipartite_graph(3, 3), 39), {}),
        ],
        ids=["C297", "C344", "petersen-s23", "k4-s57", "k33-s39"],
    )
    def test_long_shapes(self, g, by_length):
        g = relabelled(g, random.Random(g.n))
        self.check(g)
        assert census_of(g).by_length == by_length


class TestEccentricityBounds:
    """The two sweeps' bounds against every vertex's eccentricity, on each
    component, which the census sweeps as a connected graph."""

    @staticmethod
    def check(g: cc.Graph) -> bool:
        """Check the bounds of each component of g and return whether g is
        connected."""
        parts = components(g)
        for h in parts:
            longest, upper = eccentricity_bounds(h)
            ecc = [max(oracles.bfs_distances(h, v)) for v in range(h.n)]
            # longest is an eccentricity, so at least half the diameter,
            # and on a tree the diameter itself
            assert longest in ecc and longest <= max(ecc) <= 2 * longest
            assert h.m >= h.n or longest == max(ecc)
            assert len(upper) == h.n and all(e <= u for e, u in zip(ecc, upper))
        return len(parts) == 1

    def test_empty(self, monkeypatch):
        # K0 has no vertex 0 to sweep from: the census reports it
        # connected, with diameter 0, without the sweeps
        def refuse(g, dist):
            raise AssertionError("swept K0")

        monkeypatch.setattr(convexity, "_eccentricity_bounds", refuse)
        profile, census = cc.profile_and_census(cc.Graph(0, []))
        assert (profile.girth, profile.diameter, profile.connected) == (math.inf, 0, True)
        assert census.total == 0

    def test_corpus(self, corpus):
        assert all(self.check(g) for g in corpus)

    def test_relabelled_shapes(self, petersen, q3):
        rng = random.Random(25)
        graphs = [
            relabelled(cc.Graph(r * c, grid_edges(r, c)), rng)
            for r in range(1, 9) for c in range(r, 12)
        ]
        graphs += [relabelled(cc.cycle_graph(length), rng) for length in range(3, 40)]
        graphs += [
            relabelled(subdivided(base, pieces), rng)
            for base in (petersen, q3, cc.complete_graph(4)) for pieces in (2, 3, 7)
        ]
        assert all(self.check(g) for g in graphs)

    def test_seeded_gnp_and_unions(self, petersen):
        graphs = [
            cc.gnp_random_graph(3 + i % 30, (0.05, 0.1, 0.2, 0.4)[i % 4], 25_000 + i)
            for i in range(300)
        ]
        graphs += [union(g, h) for g, h in zip(graphs[:40], graphs[40:80])]
        graphs += [union(cc.Graph(1, []), petersen), union(cc.cycle_graph(9), path_graph(3))]
        connected = [self.check(g) for g in graphs]
        assert sum(connected) > 100 and len(connected) - sum(connected) > 100


class TestKernelChoice:
    """The census takes, on each connected graph with a cycle, the chains
    kernel where the junction table pays, else the planes kernel exactly
    where vertex 0's eccentricity is at most log2(n) and the planes fit
    the budget, else the rows kernel; each component of a disconnected
    graph takes its own kernel."""

    @staticmethod
    def small_world(g: cc.Graph) -> bool:
        return convexity._small_world(g.n, max(cc.bfs_record(g, 0).dist))

    def test_sparse_random_graph_takes_planes(self):
        assert self.small_world(cc.gnp_random_graph(270, 9 / 269, 16))

    def test_grids_and_long_cycles_take_rows(self, petersen):
        grid = relabelled(cc.Graph(484, grid_edges(22, 22)), random.Random(22))
        for g in [grid, cc.cycle_graph(301), subdivided(petersen, 23)]:
            assert not self.small_world(g)

    def test_long_chains_take_chains(self, kernel_inputs, petersen):
        # a grid has no two adjacent vertices of degree 2 and takes rows; a
        # cycle from C6 on and subdivided Petersen pass the junction
        # table's rule, R >= 4 * J, and take chains: C6 has R = 4 for
        # J = 1, and with each edge cut into 3 Petersen has R = 15 for
        # J = 10, short of 40, while cut into 23 it has R = 315
        grid = relabelled(cc.Graph(484, grid_edges(22, 22)), random.Random(22))
        for g, kernel in [
            (grid, "_census_rows"), (cc.cycle_graph(6), "_census_chains"),
            (cc.cycle_graph(301), "_census_chains"),
            (subdivided(petersen, 3), "_census_rows"),
            (subdivided(petersen, 23), "_census_chains"),
        ]:
            kernel_inputs.clear()
            cc.profile_and_census(g)
            assert kernel_inputs == [(kernel, g.adjacency)]

    def test_small_worlds_where_the_table_pays_take_chains(self, kernel_inputs):
        # 20 hexagons through vertex 0 (ecc(0) = 3, and no eccentricity
        # above 6 <= log2(101)) and 10 chains of length 5 between vertices
        # 0 and 1 (ecc(0) = 5 <= log2(42)) are small worlds, but the table
        # pays first: R = 80 for J = 1 and R = 30 for J = 2
        flower = flower_graph(20, 6)
        for g in [flower, relabelled(flower, random.Random(6)), theta_graph(*[5] * 10)]:
            assert self.small_world(g)
            kernel_inputs.clear()
            cc.profile_and_census(g)
            assert kernel_inputs == [("_census_chains", g.adjacency)]

    def test_sparse_giant_takes_planes_from_the_first_sweep(self, kernel_inputs):
        # ecc(0) = 4 <= log2(60) < 6, the largest eccentricity the two
        # sweeps see, and the table does not pay: the first sweep alone
        # picks the planes kernel, whose budget the diameter's bound of
        # 2 * ecc(0) keeps sound
        g = cc.gnp_random_graph(60, 4 / 59, 5)
        assert max(cc.bfs_record(g, 0).dist) <= math.log2(g.n) < eccentricity_bounds(g)[0]
        assert convexity._junction_table(g.adjacency) is None
        cc.profile_and_census(g)
        assert kernel_inputs == [("_census_planes", g.adjacency)]

    def test_second_sweep_only_for_trees_and_rows(self, monkeypatch, petersen):
        # the planes and chains kernels read nothing of the second sweep,
        # so a graph bound for either never runs it; a tree takes its
        # diameter from it and the rows kernel its bounds
        def refuse(g, dist):
            raise AssertionError("second sweep")

        monkeypatch.setattr(convexity, "_eccentricity_bounds", refuse)
        for g in [
            cc.gnp_random_graph(270, 9 / 269, 16), cc.gnp_random_graph(60, 4 / 59, 5),
            flower_graph(20, 6), theta_graph(*[5] * 10), cc.cycle_graph(301),
            subdivided(petersen, 23), union(cc.cycle_graph(31), path_graph(4)),
        ]:
            cc.profile_and_census(g)
        grid = relabelled(cc.Graph(484, grid_edges(22, 22)), random.Random(22))
        for g in [path_graph(9), wedge(path_graph(3), path_graph(5)), grid,
                  cc.Graph(36, grid_edges(6, 6)), subdivided(petersen, 3)]:
            with pytest.raises(AssertionError, match="second sweep"):
                cc.profile_and_census(g)

    def test_components_take_their_own_kernels(self, kernel_inputs):
        # two triangles are two small worlds; beside a triangle, C31 takes
        # chains; an isolated vertex no longer sends a small-world giant
        # component to another kernel
        triangle = cc.complete_graph(3).adjacency
        cc.profile_and_census(union(cc.complete_graph(3), cc.complete_graph(3)))
        assert kernel_inputs == [("_census_planes", triangle)] * 2
        kernel_inputs.clear()
        cc.profile_and_census(union(cc.cycle_graph(31), cc.complete_graph(3)))
        assert kernel_inputs == [("_census_chains", cc.cycle_graph(31).adjacency),
                                 ("_census_planes", triangle)]
        kernel_inputs.clear()
        giant = cc.gnp_random_graph(270, 9 / 269, 31)
        cc.profile_and_census(union(giant, cc.Graph(1, [])))
        assert kernel_inputs == [("_census_planes", giant.adjacency)]

    def test_planes_over_budget_take_rows(self, monkeypatch, kernel_inputs):
        # the planes of G(270, 9/269), ecc(0) 4 or 5, are predicted at
        # (2 * ecc(0) + 10) * n * n / 4 bytes, well under 1 MiB
        g = cc.gnp_random_graph(270, 9 / 269, 16)
        ecc0 = max(cc.bfs_record(g, 0).dist)
        planes = (2 * ecc0 + 10) * g.n * g.n // 4
        assert planes < 1 << 20
        monkeypatch.setattr(convexity, "_BUDGET", planes)
        assert self.small_world(g)
        monkeypatch.setattr(convexity, "_BUDGET", planes - 1)
        assert not self.small_world(g)
        assert census_of(g) == cc.CycleCensus.from_cycles(
            convexity._census_planes(g.adjacency)[0]
        )
        assert [kernel for kernel, _ in kernel_inputs] == ["_census_rows", "_census_planes"]


def unions() -> list[cc.Graph]:
    """The disconnected unions of the kernel-level tests."""
    gnp = cc.gnp_random_graph(270, 9 / 269, 31)
    k4 = cc.complete_graph(4)
    graphs = [
        relabelled(union(gnp, extra), random.Random(31))
        for extra in (cc.Graph(1, []), cc.complete_graph(3))
    ]
    graphs += [union(cc.complete_graph(n), cc.complete_graph(n + 1)) for n in (2, 3, 4, 7)]
    return graphs + [
        union(cc.complete_graph(3), cc.complete_graph(3)),
        union(cc.Graph(1, []), cc.petersen_graph()),
        union(cc.cycle_graph(9), path_graph(3)),
        union(cc.cycle_graph(8), theta_graph(2, 5, 5), cc.cycle_graph(9), path_graph(5)),
        union(cc.cycle_graph(15), subdivided(k4, 5), cc.cycle_graph(17), path_graph(3)),
    ]


class TestKernelInputs:
    """The census hands a kernel only a connected graph with a cycle: a
    component, relabelled by increasing vertex."""

    def test_each_kernel_gets_one_component_with_a_cycle(self, kernel_inputs, corpus):
        graphs = [*corpus, *chain_families(), *unions()]
        for g in graphs:
            cc.profile_and_census(g)
        received = [adjacency for _, adjacency in kernel_inputs]
        assert received == [h.adjacency for g in graphs for h in with_cycles(g)]
        for adjacency in received:
            edges = [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v]
            g = cc.Graph(len(adjacency), edges)
            assert None not in oracles.bfs_distances(g, 0) and g.m >= g.n

    def test_stray_label_reaches_no_kernel(self, kernel_inputs, monkeypatch):
        # the label 20000 leaves 19 997 isolated vertices; each is skipped
        # before any relabelling or Graph is built, and only the
        # triangle's component, the triangle and its pendant vertex 20000
        # as 3, reaches a kernel
        built = []
        monkeypatch.setattr(convexity, "Graph", lambda n, edges: built.append(n) or cc.Graph(n, edges))
        g = cc.parse_edge_list("0 1\n1 2\n2 0\n0 20000\n")
        profile, census = cc.profile_and_census(g)
        assert (g.n, built) == (20_001, [4])
        assert kernel_inputs == [("_census_planes", ((1, 2, 3), (0, 2), (0, 1), (0,)))]
        assert (profile.girth, profile.diameter, profile.connected) == (3, math.inf, False)
        assert census.cycles == ((0, 1, 2),)


class TestKernelsAgree:
    """Both kernels on sparse G(n, p) at the benchmark's scale, where the
    planes kernel reads arms three levels deep and more, and on graphs
    whose vertices retire from the planes kernel in different rounds."""

    @pytest.mark.parametrize("n, degree", [(150, 6), (200, 7), (240, 8), (270, 9)])
    def test_seeded_gnp(self, n, degree):
        g = cc.gnp_random_graph(n, degree / (n - 1), 30)
        longest, upper = eccentricity_bounds(g)
        assert convexity._small_world(n, longest)
        cycles, *found = convexity._census_planes(g.adjacency)
        rows_cycles, *rows_found = convexity._census_rows(g.adjacency, longest, upper)
        # (girth, far-edge count, longest)
        assert found == rows_found
        assert sorted(cycles) == sorted(rows_cycles)

    @staticmethod
    def agree_with_reference(g: cc.Graph) -> None:
        # the census of g matches the reference pipeline, and on each
        # component with a cycle planes, rows and the reference pipeline
        # find the same cycles, girth and far-edge count, and both kernels
        # the component's diameter
        profile, census = cc.profile_and_census(g)
        girth, diameter, connected, cycles = oracles.reference_census(g)
        assert (profile.girth, profile.diameter, profile.connected) == (
            girth, diameter, connected,
        )
        assert list(census.cycles) == cycles
        for h in with_cycles(g):
            girth, diameter, _, cycles = oracles.reference_census(h)
            planes_cycles, *planes = convexity._census_planes(h.adjacency)
            rows_cycles, *rows = convexity._census_rows(h.adjacency, *eccentricity_bounds(h))
            assert sorted(planes_cycles) == sorted(rows_cycles) == sorted(cycles)
            assert planes == rows
            assert (planes[0], planes[2]) == (girth, diameter)

    @pytest.mark.parametrize("extra", ["isolated vertex", "pendant paths", "triangle"])
    def test_gnp_with_vertices_that_retire_apart(self, extra):
        # an isolated vertex and a triangle beside G(270, 9/269) are
        # components of their own, the triangle's vertices retiring after
        # level 1 of its own pass; the far ends of two pendant paths of 9
        # edges are each other's only vertex at the diameter, so they step
        # last and retire in the same round
        g = cc.gnp_random_graph(270, 9 / 269, 31)
        n = g.n
        g = {
            "isolated vertex": union(g, cc.Graph(1, [])),
            "pendant paths": cc.Graph(n + 18, [
                *g.edge_list,
                *zip([0, *range(n, n + 8)], range(n, n + 9)),
                *zip([1, *range(n + 9, n + 17)], range(n + 9, n + 18)),
            ]),
            "triangle": union(g, cc.complete_graph(3)),
        }[extra]
        self.agree_with_reference(relabelled(g, random.Random(31)))

    def test_vertex_adjacent_to_its_whole_component(self):
        # a cone's apex retires after level 1 while the vertices under it
        # step on, beside a cycle whose vertices step to level 3
        rng = random.Random(32)
        base = cc.gnp_random_graph(30, 0.08, 32)
        cone = cc.Graph(31, [*((u + 1, v + 1) for u, v in base.edge_list),
                             *((0, v) for v in range(1, 31))])
        for g in (cone, union(cone, cc.cycle_graph(7))):
            self.agree_with_reference(relabelled(g, rng))

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_complete_graphs_end_after_level_one(self, n):
        # every vertex of K_n retires after level 1, so no round is stepped
        self.agree_with_reference(cc.complete_graph(n))
        self.agree_with_reference(union(cc.complete_graph(n), cc.complete_graph(n + 1)))


class TestFarEdgeCheck:
    def test_silent_on_corpus(self, corpus):
        # the pass raises ConsistencyError when the check fails
        odd = 0
        for g in corpus:
            profile, _ = cc.profile_and_census(g)
            odd += profile.girth != math.inf and profile.girth % 2 == 1
        assert odd > 400

    def test_chains_kernel_losing_a_girth_cycle(
        self, monkeypatch, kernel_inputs, petersen, tmp_path, capsys
    ):
        # the chains kernel counts far edges from its junctions' rows and
        # adds g less its junctions per girth cycle it found, so a girth
        # cycle it loses before that count still fails the check: C201 has
        # one junction, and each of subdivided Petersen's 12 girth cycles
        # (s = 23, g = 115) five of its ten
        lost = []

        def lose_first(chains, place, table, cycle, kernel=convexity._table_holds):
            holds = kernel(chains, place, table, cycle)
            if holds and not lost:
                lost.append(cycle)
                return False
            return holds

        monkeypatch.setattr(convexity, "_table_holds", lose_first)
        path = tmp_path / "g.g6"
        for g, girth in [(cc.cycle_graph(201), 201), (subdivided(petersen, 23), 115)]:
            lost.clear()
            with pytest.raises(cc.ConsistencyError, match="same-level edges"):
                cc.profile_and_census(g)
            assert [len(cycle) for cycle in lost] == [girth]
            assert kernel_inputs[-1] == ("_census_chains", g.adjacency)
            lost.clear()
            path.write_text(cc.write_graph6(g) + "\n")
            assert cc.cli_run(["analyze", str(path)]) == 3
            assert [len(cycle) for cycle in lost] == [girth]
            assert "same-level edges" in capsys.readouterr().err


def first_level_edges(g: cc.Graph, dist) -> tuple[int, int]:
    """(level, count) of the same-level edges at the least level that has
    any, by a scan of the edge list; (g.n, 0) when there are none."""
    levels = [dist[u] for u, v in g.edge_list if dist[u] is not None and dist[u] == dist[v]]
    if not levels:
        return g.n, 0
    return min(levels), levels.count(min(levels))


def table_row(g: cc.Graph, record) -> tuple:
    """(odd, edges, merge, ecc) of a BFS record, as _table_row gives them:
    the level and count of the first same-level edges (inf if none), the
    level of the first merge (inf if none) and the eccentricity."""
    level, count = first_level_edges(g, record.dist)
    merges = oracles.merge_levels(g, record.dist)
    return (level if count else math.inf, count, merges[0] if merges else math.inf,
            max(record.dist))


def census_rows(g: cc.Graph, depth: int | None, finish: bool) -> list[tuple]:
    """Every root's census row with the given pending depth, roots in
    increasing order sharing the label and predecessor lists, as in the
    census."""
    branch, pred = [0] * g.n, [0] * g.n
    return [
        convexity._census_row(g.adjacency, v, depth, finish, branch, pred) for v in range(g.n)
    ]


def check_merge(g: cc.Graph, dist, odd: int, edges: int, merge: int | None) -> None:
    """A row reports the full row's first merge, or none when it stopped
    counting at a level boundary after its first same-level edges and
    before that merge."""
    merges = oracles.merge_levels(g, dist)
    if merge is None and merges:
        assert edges and odd < merges[0]
    else:
        assert merge == (merges[0] if merges else None)


def wrong_sigma_levels(g: cc.Graph, root: int, dist, sigma) -> set[int]:
    """The levels where a row's path counts differ from the oracle's."""
    exact = oracles.bfs_counts(g, root)
    return {exact.dist[v] for v in range(g.n) if sigma[v] != exact.sigma[v]}


class TestStoppedRow:
    """One root's census row, convexity._census_row, where it stops
    counting shortest paths."""

    def test_distances_stay_exact_after_counting_stops(self, corpus):
        # with nothing pending a row stops counting as early as the girth
        # event and the clean frontier allow; a finished row keeps dist and
        # order exact, and the girth events it reports are the full row's
        stopped = 0
        for g in corpus:
            for root, row in enumerate(census_rows(g, 0, True)):
                dist, sigma, order, odd, edges, merge, _ = row
                exact = oracles.bfs_counts(g, root)
                assert dist == list(exact.dist)
                assert sorted(order) == [v for v in range(g.n) if dist[v] is not None]
                assert [dist[v] for v in order] == sorted(dist[v] for v in order)
                stopped += bool(wrong_sigma_levels(g, root, dist, sigma))
                check_merge(g, dist, odd, edges, merge)
                level, count = first_level_edges(g, dist)
                if merge is None or level < merge:
                    assert (odd, edges) == (level, count)
        assert stopped

    def test_sigma_stays_exact_through_the_pending_depth(self, corpus):
        # a row may stop counting only at a level d at or past the deepest
        # pair deferred to its root, and sigma is then exact through d
        for g in corpus:
            for depth in (1, 2, 3):
                for root, (dist, sigma, *_) in enumerate(census_rows(g, depth, True)):
                    assert min(wrong_sigma_levels(g, root, dist, sigma), default=math.inf) > depth

    def test_dropped_tail_keeps_the_row_through_its_level(self, corpus):
        # a row that drops its distance-only tail when counting stops at
        # the boundary of level d is the finished row cut after level d:
        # the same path counts, girth events and candidates, and a prefix
        # of its order holding every vertex through level d
        dropped = 0
        for g in corpus:
            for depth in (0, 2):
                full = census_rows(g, depth, True)
                for root, row in enumerate(census_rows(g, depth, False)):
                    if row == full[root]:
                        continue
                    dropped += 1
                    dist, sigma, order, *found = row
                    full_dist, full_sigma, full_order, *full_found = full[root]
                    assert (sigma, found) == (full_sigma, full_found)
                    assert order == full_order[: len(order)] != full_order
                    assert all(dist[v] == full_dist[v] for v in order)
                    assert sorted(order) == [v for v in range(g.n) if dist[v] is not None]
                    # the row stopped counting at the boundary of level d
                    d = dist[order[-1]]
                    assert all(v in order for v in range(g.n) if full_dist[v] <= d)
        assert dropped

    def test_first_level_edges_match_a_brute_count(self, corpus):
        # a pending pair deeper than any level keeps a row counting to its
        # end; it counts the same-level edges of its first such level and
        # no others: the girth and the far-edge check read just these
        for g in corpus:
            for root, row in enumerate(census_rows(g, g.n, True)):
                dist, sigma, _, odd, edges, _, _ = row
                exact = oracles.bfs_counts(g, root)
                assert (dist, sigma) == (list(exact.dist), list(exact.sigma))
                assert (odd, edges) == first_level_edges(g, exact.dist)


class TestCountCutoff:
    # root 0 -- 1, the triangle 1 2 3, the hexagon 2 4 5 6 7 3, the
    # pentagon 5 8 10 9 6 and the square 10 11 13 12: every vertex above 0
    # descends from 1, so the whole graph is one branch of 0
    ONE_BRANCH = [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5), (3, 7), (7, 6),
                  (5, 6), (5, 8), (6, 9), (8, 10), (9, 10), (10, 11), (10, 12),
                  (11, 13), (12, 13)]

    @pytest.mark.parametrize(
        "tail, stopped_at, merge",
        [([], 3, None), ([(0, 14), (14, 15), (15, 16), (16, 17), (17, 18)], 6, 6)],
        ids=["one-branch", "second-branch-ends-at-level-5"],
    )
    def test_counting_stops_below_two_branches(self, tail, stopped_at, merge):
        # the girth event, the edge 2 3 at level 2, is complete at the
        # boundary of level 3; 4 and 7 still have one shortest path each,
        # but with one branch 0 owns no cycle through them and stops
        # counting there, before the first merge, into 10 at level 6; a
        # second clean branch keeps the row counting until that branch
        # ends, at the boundary of level 6, past that merge
        g = cc.Graph(19 if tail else 14, self.ONE_BRANCH + tail)
        dist, sigma, _, _, _, found, owned = convexity._census_row(
            g.adjacency, 0, 0, True, [0] * g.n, [0] * g.n
        )
        assert dist == list(oracles.bfs_distances(g, 0))
        assert min(wrong_sigma_levels(g, 0, dist, sigma)) == stopped_at + 1
        # 0 owns no cycle
        assert (owned, found) == ([], merge)
        TestReferencePipeline.check(g)


class TestCandidateSweep:
    """Each root's clean-frontier sweep against the walk-and-refuse
    extraction from full rows in oracles.owned_candidates."""

    @staticmethod
    def check(g: cc.Graph) -> None:
        # nothing is pending, so each row stops counting as soon as its
        # girth events are in and its frontier spans fewer than two
        # branches
        for v, row in enumerate(census_rows(g, 0, True)):
            dist, _, _, odd, edges, merge, owned = row
            assert sorted(owned) == oracles.owned_candidates(g, v, range(g.n))
            check_merge(g, dist, odd, edges, merge)

    def test_corpus(self, corpus):
        for g in corpus:
            self.check(g)

    def test_seeded_gnp(self):
        for i in range(300):
            n = 8 + i % 33
            self.check(cc.gnp_random_graph(n, (0.08, 0.15, 0.3)[i % 3], 30_000 + i))

    def test_relabelled_grids(self):
        rng = random.Random(15)
        for r in range(2, 8):
            for c in range(r, 9):
                self.check(relabelled(cc.Graph(r * c, grid_edges(r, c)), rng))

    def test_table_sweep(self, monkeypatch, petersen):
        # the chains kernel's sweep over the junction table, from every
        # junction, the roots that own the candidates, each built root
        # first: cycles, theta graphs, two or three cycles through one
        # vertex (loops at a junction), uniform subdivisions and G(n, p)
        # cut into chains of length 1-5
        rng = random.Random(26)
        graphs = [cc.cycle_graph(length) for length in range(3, 41)]
        graphs += [theta_graph(*lengths) for a in range(1, 6) for b in range(max(a, 2), 7)
                   for c in range(b, 8) for lengths in [(a, b, c), (a, b, c, c)]]
        graphs += [wedge(cc.cycle_graph(p), cc.cycle_graph(q)) for p in range(3, 10)
                   for q in range(p, 11)]
        graphs += [wedge(wedge(cc.cycle_graph(p), cc.cycle_graph(q)), cc.cycle_graph(r))
                   for p, q, r in [(3, 3, 3), (3, 4, 5), (4, 4, 7), (5, 6, 6), (6, 8, 9)]]
        bases = [cc.complete_graph(4), cc.complete_bipartite_graph(3, 3), petersen]
        bases += [random_cubic(n, rng) for n in (8, 10, 12)]
        graphs += [subdivided(base, s) for base in bases for s in range(2, 6)]
        graphs += [subdivided_unevenly(cc.gnp_random_graph(rng.randint(5, 14), 0.4, 26_000 + i),
                                       rng) for i in range(300)]
        swept = []

        def sweep(*args, kernel=convexity._table_sweep):
            owned = kernel(*args)
            swept.append((args[-1], owned))
            return owned

        monkeypatch.setattr(convexity, "_table_sweep", sweep)
        roots = candidates = 0
        for h in [h for g in graphs for h in with_cycles(relabelled(g, rng))]:
            chains, place, runs, table = contracted(h)
            swept.clear()
            convexity._census_chains(h.adjacency, chains, place, runs, table)
            assert [root for root, _ in swept] == list(table)
            for root, owned in swept:
                assert all(cycle[0] == root for cycle in owned)
                owned = sorted(map(oracles.canonical_cycle, owned))
                assert owned == oracles.owned_candidates(h, root, table)
                candidates += len(owned)
            roots += len(swept)
        assert roots > 2800 and candidates > 4900


def contracted(g: cc.Graph) -> tuple[list, list, dict, dict]:
    """chains, place, runs and table of a connected graph with a cycle,
    with no pay rule: the contraction and a search from every junction."""
    chains, place, runs = convexity._contract(g.adjacency)
    return chains, place, runs, convexity._junction_searches(runs)


def random_cubic(n: int, rng: random.Random) -> cc.Graph:
    """A simple cubic graph on n vertices (n even), by random pairings of
    three points per vertex, drawn again until simple and connected."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v}
        g = cc.Graph(n, sorted(edges))
        if g.m == 3 * n // 2 and None not in oracles.bfs_distances(g, 0):
            return g


class TestChainRows:
    """The junction table's answers, convexity._chain_point for a pair and
    convexity._table_row for a junction's girth events and eccentricity,
    and each chain's largest eccentricity, against BFS from every root;
    and the chains kernel against the rows kernel."""

    @staticmethod
    def check(g: cc.Graph) -> list[tuple[int, int, int, int]]:
        """On each component of g with a cycle, check from every junction
        its table entry, _table_row and _chain_point to every vertex, and
        each chain's largest eccentricity; return (j, distance, path count,
        lap) per junction x and target w at position j from x along a
        chain at x, lap the chain's length when the chain is a cycle
        through x, else 0."""
        own = []
        for h in with_cycles(g):
            chains, place, _, table = contracted(h)
            eccentricity = [0] * len(chains)
            for v in range(h.n):
                record = cc.bfs_record(h, v)
                if place[v] is not None:
                    c, _ = place[v]
                    eccentricity[c] = max(eccentricity[c], max(record.dist))
                    continue
                dist, sigma = table[v]
                assert dist == {x: record.dist[x] for x in table}
                assert sigma == {x: record.sigma[x] for x in table}
                assert convexity._table_row(chains, dist, sigma) == table_row(h, record)
                points = [convexity._chain_point(chains, place, table, v, w) for w in range(h.n)]
                assert points == list(zip(record.dist, record.sigma))
                for w in range(h.n):
                    if place[w] is not None:
                        c, j = place[w]
                        a, b, length = chains[c]
                        if v in (a, b):
                            gap = j if v == a else length - j
                            own.append((gap, record.dist[w], record.sigma[w], length * (a == b)))
            for c, (_, _, length) in enumerate(chains):
                if length > 1:
                    assert convexity._chain_eccentricity(chains, table, c) == eccentricity[c]
        return own

    def test_contraction(self):
        # every edge lies on one chain, whose interior vertices have
        # degree 2 and whose ends are the junctions, on each component
        # with a cycle; each run at a junction is the walk of the
        # adjacency from it through the run's second vertex to the next
        # junction, and each chain is a run from either end; a loop's run
        # from its second end closes no candidate (see _table_sweep), so
        # only its first is pinned
        for g in [h for g in chain_families() for h in with_cycles(g)]:
            chains, place, runs = convexity._contract(g.adjacency)
            placed = [(v, *p) for v, p in enumerate(place) if p is not None]
            edges = set()
            for c, (a, b, length) in enumerate(chains):
                inner = sorted((j, v) for v, k, j in placed if k == c)
                path = [a, *(v for _, v in inner), b]
                assert [j for j, _ in inner] == list(range(1, length)) and a <= b
                assert all(len(g.adjacency[v]) == 2 for v in path[1:-1])
                if len(g.adjacency[a]) == 2 or len(g.adjacency[b]) == 2:
                    # a junction of degree 2 is vertex 0 of a cycle graph
                    assert a == b == 0 and len(chains) == 1
                edges.update(frozenset(e) for e in zip(path, path[1:]))
                assert path in runs[a] and (a == b or path[::-1] in runs[b])
            assert edges == {frozenset(e) for e in g.edge_list}
            assert len(edges) == sum(length for _, _, length in chains)
            assert sorted(runs) == [v for v, p in enumerate(place) if p is None]
            for x, xs in runs.items():
                for run in xs:
                    walk = [x, run[1]]
                    while place[walk[-1]] is not None:
                        u, w = g.adjacency[walk[-1]]
                        walk.append(w if u == walk[-2] else u)
                    assert run[1] in g.adjacency[x] and walk == run

    def test_chain_families(self):
        assert sum(len(self.check(g)) for g in chain_families()) > 1700

    def test_subdivided(self, petersen, q3):
        for g in [subdivided(petersen, 5), subdivided(q3, 4), subdivided(cc.complete_graph(4), 7)]:
            assert self.check(relabelled(g, random.Random(g.n)))

    def test_diameter_through_chain_eccentricities(self, monkeypatch):
        # the sweeps can miss the diameter of a chain-heavy graph; the
        # chains kernel takes it from the junction roots' table rows and
        # the chains' largest eccentricities
        monkeypatch.setattr(convexity, "_ROOTS_PER_SEARCH", 0)
        rng = random.Random(24)
        graphs = chain_families() + [
            relabelled(subdivided_unevenly(cc.gnp_random_graph(8, 0.5, 24_000 + i), rng), rng)
            for i in range(60)
        ]
        missed = 0
        for g in graphs:
            profile, _ = cc.profile_and_census(g)
            if profile.connected:
                records = oracles.all_roots_records(g)
                assert profile.diameter == max(max(r.dist) for r in records)
                missed += eccentricity_bounds(g)[0] < profile.diameter
        assert missed >= 3

    def test_targets_on_the_roots_own_chain(self):
        # the inputs put targets on a chain at the junction root: along it,
        # round through its other end, and tied both ways; check() tests
        # _chain_point's two sides there, where the one back along the
        # target's chain never wins
        rng = random.Random(21)
        own = []
        for lengths in [(1, 9), (2, 8), (3, 9), (1, 2, 10), (4, 4, 7)]:
            own += self.check(relabelled(theta_graph(*lengths), rng))
        along = [d == gap for gap, d, _, _ in own]
        assert all(d <= gap for gap, d, _, _ in own)
        assert any(along) and not all(along)
        # the inputs cover targets round through both ends, alone and tied
        assert any(d < gap for gap, d, _, _ in own)
        assert any(d == gap and sigma == 2 for gap, d, sigma, _ in own)

    def test_loops_and_cycle_components(self):
        # a lollipop's loop chain at a degree-3 junction, cycle components
        # and their disconnected unions: the inputs put targets on a loop
        # (a == b) at the junction root, antipodes on it and targets round
        # the loop's other way; check() tests _chain_point's two sides
        # there, both through the root
        rng = random.Random(22)
        graphs = [wedge(cc.cycle_graph(length), path_graph(3)) for length in (7, 10)]
        graphs += [cc.cycle_graph(length) for length in (11, 12)]
        graphs += [
            union(cc.cycle_graph(8), theta_graph(2, 5, 5), cc.cycle_graph(9), path_graph(5))
        ]
        own = []
        for g in graphs:
            own += self.check(relabelled(g, rng))
        laps = [(gap, d, sigma, lap) for gap, d, sigma, lap in own if lap]
        # the inputs cover antipodes on the loop and targets round its junction
        assert any(2 * d == lap and sigma == 2 for _, d, sigma, lap in laps)
        assert any(d < gap for gap, d, _, _ in laps)

    @pytest.mark.parametrize("pieces", [3, 5])
    def test_same_census_without_chain_rows(self, pieces):
        # the rule only trades speed: the chains kernel, with the table
        # built whether or not it pays, and the rows kernel find the same
        # cycles, girth, far-edge count and diameter on each component
        # with a cycle of subdivided G(n, p), and on subdivided K4, K3,3,
        # Petersen and random cubic graphs, at odd s
        rng = random.Random(pieces)
        graphs = [
            relabelled(subdivided(cc.gnp_random_graph(12, 0.3, 21_000 + seed), pieces),
                       random.Random(seed))
            for seed in range(6)
        ]
        bases = [cc.complete_graph(4), cc.complete_bipartite_graph(3, 3), cc.petersen_graph()]
        bases += [random_cubic(n, rng) for n in (8, 10, 12)]
        graphs += [relabelled(subdivided(base, pieces), rng) for base in bases]
        for h in [h for g in graphs for h in with_cycles(g)]:
            cycles, *found = convexity._census_chains(h.adjacency, *contracted(h))
            rows_cycles, *rows_found = convexity._census_rows(h.adjacency, *eccentricity_bounds(h))
            assert (sorted(cycles), found) == (sorted(rows_cycles), rows_found)

    def test_table_over_budget_falls_back(self, monkeypatch):
        # a table that does not fit the budget is not built: J * J entries
        # for the J = 10 junctions of subdivided Petersen
        g = subdivided(cc.petersen_graph(), 9)
        assert convexity._junction_table(g.adjacency)
        monkeypatch.setattr(convexity, "_BUDGET", 100 * convexity._TABLE_ENTRY_BYTES - 1)
        assert convexity._junction_table(g.adjacency) is None

    def test_grids_are_not_contracted(self, monkeypatch):
        # a grid of three rows and columns or more has 4 vertices of
        # degree 2, its corners, against n - 4 others, too few for the
        # rule R >= 4 * J, so no contraction; its rows kernel's census is
        # the planes kernel's
        rng = random.Random(23)

        def refuse(adjacency):
            raise AssertionError("contracted a grid")

        monkeypatch.setattr(convexity, "_contract", refuse)
        for r, c in [(3, 3), (3, 8), (4, 7), (6, 6), (5, 8)]:
            g = relabelled(cc.Graph(r * c, grid_edges(r, c)), rng)
            assert convexity._junction_table(g.adjacency) is None
            bounds = eccentricity_bounds(g)
            cycles, *found = convexity._census_rows(g.adjacency, *bounds)
            planes_cycles, *planes_found = convexity._census_planes(g.adjacency)
            assert (sorted(cycles), found) == (sorted(planes_cycles), planes_found)

    def test_table_rows_match_bfs_rows(self, petersen):
        # from every junction, the table row gives the level and count of
        # the first same-level edges, the first merge and the eccentricity
        # of the junction's full BFS row (check()): chains with loops,
        # cycles of both parities and uniform subdivisions, s = 1 giving
        # chains of length 1 between junctions
        rng = random.Random(20)
        graphs = chain_families()
        graphs += [relabelled(theta_graph(*lengths), rng)
                   for lengths in [(1, 2), (1, 3), (2, 2, 2, 2), (3, 4, 5), (5, 5, 6)]]
        graphs += [relabelled(wedge(cc.cycle_graph(length), h), rng)
                   for length in (4, 5, 8, 11) for h in (path_graph(2), cc.cycle_graph(3))]
        graphs += [relabelled(cc.cycle_graph(length), rng) for length in (3, 4, 9, 10, 31, 32)]
        graphs += [
            relabelled(subdivided(base, s), rng)
            for base in (cc.complete_graph(4), cc.complete_bipartite_graph(3, 3), petersen)
            for s in range(1, 6)
        ]
        junctions = 0
        for g in graphs:
            self.check(g)
            junctions += sum(len(contracted(h)[3]) for h in with_cycles(g))
        assert junctions > 350

    def test_one_root_row_per_root(self, monkeypatch, petersen):
        # the chains kernel reads each junction's table entry once, as its
        # D and S: one _table_row and then one _table_sweep per junction,
        # both on that entry, and none for any chain; each sweep reads
        # _contract's runs as given
        rng = random.Random(27)
        calls = []
        given = []

        def read_table_row(chains, dist, sigma, kernel=convexity._table_row):
            calls.append((None, dist, sigma))
            return kernel(chains, dist, sigma)

        def sweep(dist, sigma, runs, root, kernel=convexity._table_sweep):
            calls.append((root, dist, sigma))
            given.append(runs)
            return kernel(dist, sigma, runs, root)

        monkeypatch.setattr(convexity, "_table_row", read_table_row)
        monkeypatch.setattr(convexity, "_table_sweep", sweep)
        graphs = [cc.cycle_graph(9), theta_graph(2, 5, 5), wedge(cc.cycle_graph(7), path_graph(3))]
        graphs += [subdivided(base, s) for base in (cc.complete_graph(4), petersen) for s in (3, 5)]
        for h in [h for g in graphs for h in with_cycles(relabelled(g, rng))]:
            chains, place, runs, table = contracted(h)
            calls.clear()
            given.clear()
            convexity._census_chains(h.adjacency, chains, place, runs, table)
            assert len(calls) == 2 * len(table)
            assert len(given) == len(table) and all(r is runs for r in given)
            for (root, (dist, sigma)), row, swept in zip(table.items(), calls[::2], calls[1::2]):
                assert row[0] is None and swept[0] == root
                assert row[1] is swept[1] is dist and row[2] is swept[2] is sigma

    def test_no_bfs_rows_on_subdivided_petersen(self, monkeypatch, kernel_inputs):
        # a deterministic count of work, not a timing: on Petersen with
        # each edge cut into 23, the chains kernel's 10 roots, its
        # junctions, sweep the junction table for their candidates, and no
        # BFS row runs
        g = relabelled(subdivided(cc.petersen_graph(), 23), random.Random(340))
        calls = []
        monkeypatch.setattr(convexity, "_census_row", lambda *args: calls.append(args))
        census = census_of(g)
        assert [kernel for kernel, _ in kernel_inputs] == ["_census_chains"]
        assert census.by_length == {115: 12}
        assert calls == []


class TestRelabelling:
    def test_census_follows_a_relabelling(self, petersen):
        # a census is kept from each cycle's minimum vertex and its walk
        # stops at the first vertex below it, so a relabelling moves both;
        # the census must move with the labels all the same
        graphs = [cc.gnp_random_graph(n, 0.15, 7000 + n) for n in range(20, 41)]
        graphs += [cc.cycle_graph(291), cc.cycle_graph(340), subdivided(petersen, 3)]
        rng = random.Random(7)
        for g in graphs:
            census = census_of(g)
            for _ in range(3):
                label = rng.sample(range(g.n), g.n)
                h = cc.Graph(g.n, [(label[u], label[v]) for u, v in g.edge_list])
                moved = cc.CycleCensus.from_cycles(
                    cc.canonical_cycle([label[v] for v in c]) for c in census.cycles
                )
                assert census_of(h) == moved


class TestBruteForce:
    def test_k4(self):
        census = cc.brute_force_convex_cycles(cc.complete_graph(4), 4)
        assert census.by_length == {3: 4}

    def test_c5(self):
        assert cc.brute_force_convex_cycles(cc.cycle_graph(5), 5).total == 1

    def test_k23(self, k23):
        assert cc.brute_force_convex_cycles(k23, 6).total == 0

    def test_max_len_truncates(self):
        g = cc.complete_graph(5)
        assert cc.brute_force_convex_cycles(g, 3).total == 10
        assert cc.brute_force_convex_cycles(g, 2).total == 0

    def test_long_cycle(self):
        # a path of 1200 vertices must not hit the recursion limit
        assert cc.brute_force_convex_cycles(cc.cycle_graph(1200), 1200).total == 1


class TestGirthCycleCount:
    def test_examples(self, petersen_analysis):
        assert cc.girth_cycle_count(*petersen_analysis) == 12
        k5 = cc.complete_graph(5)
        assert cc.girth_cycle_count(*cc.profile_and_census(k5)) == 10
        c7 = cc.cycle_graph(7)
        assert cc.girth_cycle_count(*cc.profile_and_census(c7)) == 1

    def test_even_girth_rejected(self):
        g = cc.cycle_graph(6)
        with pytest.raises(cc.NotApplicable):
            cc.girth_cycle_count(*cc.profile_and_census(g))

    def test_forest_rejected(self):
        g = cc.Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(cc.NotApplicable):
            cc.girth_cycle_count(*cc.profile_and_census(g))

    def test_counts_all_girth_cycles_on_corpus(self, corpus_profiles):
        # for odd girth, every shortest-length cycle is convex, so the
        # census histogram must equal the exhaustive cycle count
        for g, profile, census in corpus_profiles:
            if profile.girth == math.inf or profile.girth % 2 == 0:
                continue
            expected = sum(
                1
                for verts in oracles.all_simple_cycles(g, int(profile.girth))
                if len(verts) == profile.girth
            )
            assert cc.girth_cycle_count(profile, census) == expected


class TestPairAccounting:
    def test_each_cycle_contributes_its_pairs(self, corpus):
        for g in corpus[:300]:
            census = census_of(g)
            if not census.cycles:
                continue
            odd = odd_pairs(g)
            even = even_pairs(g)
            for cycle in census.cycles:
                members = set(cycle)
                length = len(cycle)
                edges = {
                    (min(u, v), max(u, v))
                    for u, v in zip(cycle, cycle[1:] + cycle[:1])
                }
                if length % 2 == 1:
                    mine = [
                        (e, v) for e, v in odd if e in edges and v in members
                    ]
                    assert len(mine) == length
                else:
                    mine = [
                        (u, v) for u, v in even if u in members and v in members
                    ]
                    assert len(mine) == length // 2

    def test_per_vertex_bound(self, corpus):
        for g in corpus[:300]:
            cap = g.m - g.n + 1
            per_vertex = [0] * g.n
            for _, v in odd_pairs(g):
                per_vertex[v] += 1
            assert max(per_vertex, default=0) <= cap


class TestPendantInvariance:
    @given(graphs(min_n=1, max_n=7), st.integers(0, 10**6))
    def test_census_unchanged(self, g: cc.Graph, pick: int):
        census = census_of(g)
        target = pick % g.n
        grown = cc.Graph(g.n + 1, list(g.edge_list) + [(target, g.n)])
        grown_census = census_of(grown)
        assert grown_census.total == census.total
        assert grown_census.by_length == census.by_length

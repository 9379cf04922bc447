from __future__ import annotations

import pytest
from hypothesis import given

import convexcycles as cc

from .strategies import graphs


class TestConstruction:
    def test_triangle(self):
        g = cc.Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3
        assert g.m == 3
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_edge_order_irrelevant(self):
        a = cc.Graph(4, [(0, 1), (2, 3), (1, 2)])
        b = cc.Graph(4, [(2, 1), (1, 0), (3, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_loop_rejected(self):
        with pytest.raises(cc.InvalidEdge):
            cc.Graph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(cc.DuplicateEdge):
            cc.Graph(4, [(0, 1), (0, 1)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(cc.DuplicateEdge):
            cc.Graph(4, [(0, 1), (1, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(cc.OutOfRange):
            cc.Graph(3, [(0, 3)])
        with pytest.raises(cc.OutOfRange):
            cc.Graph(3, [(-1, 0)])

    def test_edge_normalized(self):
        assert cc.Graph(6, [(5, 2)]).edge_list == ((2, 5),)
        with pytest.raises(cc.InvalidEdge):
            cc.Graph(4, [(3, 3)])

    @given(graphs())
    def test_invariants(self, g: cc.Graph):
        assert 2 * g.m == sum(len(nbrs) for nbrs in g.adjacency)
        for u in range(g.n):
            assert list(g.adjacency[u]) == sorted(set(g.adjacency[u]))
            assert u not in g.adjacency[u]
            for w in g.adjacency[u]:
                assert u in g.adjacency[w]


class TestGenerators:
    def test_petersen(self, petersen):
        assert petersen.n == 10
        assert petersen.m == 15
        assert petersen.regular_degree() == 3

    def test_hoffman_singleton(self, hoffman_singleton, hoffman_singleton_analysis):
        profile, _ = hoffman_singleton_analysis
        assert hoffman_singleton.n == 50
        assert hoffman_singleton.m == 175
        assert hoffman_singleton.regular_degree() == 7
        assert profile.girth == 5
        assert profile.diameter == 2

    def test_cycle(self):
        g = cc.cycle_graph(6)
        assert g.n == 6 and g.m == 6
        assert g.regular_degree() == 2

    def test_cycle_too_small(self):
        with pytest.raises(cc.InvalidParameter):
            cc.cycle_graph(2)

    def test_complete(self):
        assert cc.complete_graph(1).m == 0
        assert cc.complete_graph(5).m == 10

    def test_complete_bipartite(self):
        g = cc.complete_bipartite_graph(2, 3)
        assert g.n == 5 and g.m == 6
        assert tuple(map(len, g.adjacency)) == (3, 3, 2, 2, 2)
        with pytest.raises(cc.InvalidParameter):
            cc.complete_bipartite_graph(0, 3)

    def test_gnp_deterministic(self):
        a = cc.gnp_random_graph(16, 0.4, 1234)
        b = cc.gnp_random_graph(16, 0.4, 1234)
        assert a == b

    def test_gnp_seed_changes_graph(self):
        a = cc.gnp_random_graph(16, 0.5, 1)
        b = cc.gnp_random_graph(16, 0.5, 2)
        assert a != b

    def test_gnp_extremes(self):
        assert cc.gnp_random_graph(8, 0.0, 9).m == 0
        assert cc.gnp_random_graph(8, 1.0, 9).m == 28

    def test_gnp_validation(self):
        with pytest.raises(cc.InvalidParameter):
            cc.gnp_random_graph(5, 1.5, 0)
        with pytest.raises(cc.InvalidParameter):
            cc.gnp_random_graph(5, 0.5, -1)
        with pytest.raises(cc.InvalidParameter):
            cc.gnp_random_graph(5, 0.5, 2**64)

    def test_generate_dispatch(self):
        assert cc.generate("cycle", 5) == cc.cycle_graph(5)
        assert cc.generate("petersen") == cc.petersen_graph()
        assert cc.generate("gnp", "12", "0.3", "7") == cc.gnp_random_graph(12, 0.3, 7)
        with pytest.raises(cc.InvalidParameter):
            cc.generate("mystery")
        with pytest.raises(cc.InvalidParameter):
            cc.generate("cycle")
        with pytest.raises(cc.InvalidParameter):
            cc.generate("cycle", "six")

from __future__ import annotations

import math

import pytest
from hypothesis import given

import convexcycles as cc

from . import oracles
from .strategies import graphs


class TestBfsRecord:
    def test_c5_from_zero(self):
        rec = cc.bfs_record(cc.cycle_graph(5), 0)
        assert rec.dist == (0, 1, 2, 2, 1)
        assert rec.sigma == (1, 1, 1, 1, 1)

    def test_k23_three_paths_across(self, k23):
        # parts {0,1} and {2,3,4}; the two-side vertices see each other
        # through all three common neighbors
        rec = cc.bfs_record(k23, 0)
        assert rec.dist[1] == 2
        assert rec.sigma[1] == 3

    def test_q3_binomial_counts(self, q3):
        rec = cc.bfs_record(q3, 0)
        assert rec.sigma[0b011] == 2
        assert rec.sigma[0b111] == 6

    def test_unreachable_sentinels(self):
        g = cc.Graph(4, [(0, 1), (2, 3)])
        rec = cc.bfs_record(g, 0)
        assert rec.dist[2] is None and rec.sigma[2] == 0

    def test_root_out_of_range(self):
        with pytest.raises(cc.OutOfRange):
            cc.bfs_record(cc.complete_graph(3), 5)

    @given(graphs(min_n=1, max_n=7))
    def test_sigma_is_sum_over_predecessors(self, g: cc.Graph):
        rec = cc.bfs_record(g, 0)
        assert rec.sigma[0] == 1 and rec.dist[0] == 0
        for v in range(1, g.n):
            if rec.dist[v] is not None:
                preds = [p for p in g.adjacency[v] if rec.dist[p] == rec.dist[v] - 1]
                assert rec.sigma[v] == sum(rec.sigma[p] for p in preds) >= 1
                assert all(rec.dist[p] == rec.dist[v] - 1 for p in preds)

    @given(graphs(min_n=1, max_n=7))
    def test_edge_distance_gap_at_most_one(self, g: cc.Graph):
        rec = cc.bfs_record(g, 0)
        for u, v in g.edge_list:
            du, dv = rec.dist[u], rec.dist[v]
            if du is not None or dv is not None:
                assert du is not None and dv is not None
                assert abs(du - dv) <= 1

    def test_sigma_matches_brute_force_on_corpus(self, corpus):
        for g in corpus:
            for u in range(g.n):
                rec = cc.bfs_record(g, u)
                for v in range(u + 1, g.n):
                    assert rec.sigma[v] == oracles.count_shortest_paths(g, u, v)

    def test_sigma_matches_brute_force_random_order8(self):
        for seed in range(40):
            g = cc.gnp_random_graph(8, 0.45, 4000 + seed)
            rec = cc.bfs_record(g, 0)
            for v in range(g.n):
                assert rec.sigma[v] == oracles.count_shortest_paths(g, 0, v)


def profile_of(g: cc.Graph) -> cc.MetricProfile:
    return cc.profile_and_census(g)[0]


class TestGirthDiameter:
    def test_examples(self, petersen_analysis):
        assert profile_of(cc.cycle_graph(6)).girth == 6
        assert petersen_analysis[0].girth == 5
        tree = cc.Graph(7, [(0, i) for i in range(1, 7)])
        assert profile_of(tree).girth == math.inf

    def test_girth_matches_brute_force_on_corpus(
        self, corpus_profiles, beyond_corpus_profiles
    ):
        for g, profile, _ in corpus_profiles + beyond_corpus_profiles:
            assert profile.girth == oracles.brute_girth(g)

    def test_diameter_examples(self, hoffman_singleton_analysis):
        assert hoffman_singleton_analysis[0].diameter == 2
        path3 = cc.Graph(3, [(0, 1), (1, 2)])
        assert profile_of(path3).diameter == 2
        two_edges = cc.Graph(4, [(0, 1), (2, 3)])
        assert profile_of(two_edges).diameter == math.inf

    def test_profile_connected_flag(self):
        assert profile_of(cc.cycle_graph(4)).connected
        assert not profile_of(cc.Graph(3, [(0, 1)])).connected


class TestProfileInvariants:
    def test_symmetry_and_triangle_inequality(self, corpus_profiles):
        for g, profile, _ in corpus_profiles[:250]:
            n = g.n
            rows = [cc.bfs_record(g, r) for r in range(n)]
            dist = [rec.dist for rec in rows]
            for u in range(n):
                for v in range(u + 1, n):
                    assert dist[u][v] == dist[v][u]
                    assert rows[u].sigma[v] == rows[v].sigma[u]
            if not profile.connected:
                continue
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert dist[u][w] <= dist[u][v] + dist[v][w]

from __future__ import annotations

import math

import pytest
from hypothesis import given

import convexcycles as cc
from convexcycles.metric import DROP_TAIL, _bfs

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


def first_level_edges(g: cc.Graph, dist) -> tuple[int, int]:
    """(level, count) of the same-level edges at the least level that has
    any, by a scan of the edge list; (g.n, 0) when there are none."""
    levels = [dist[u] for u, v in g.edge_list if dist[u] is not None and dist[u] == dist[v]]
    if not levels:
        return g.n, 0
    return min(levels), levels.count(min(levels))


class TestStoppedRow:
    def test_distances_stay_exact_after_counting_stops(self, corpus):
        # stop is asked at the first merge into each level d + 1 and here
        # ends counting from level 1 on; dist and order must stay exact,
        # sigma exact through the level it stopped at, and the merges and
        # same-level edges it saw must hold nothing found after it
        for g in corpus:
            for root in range(g.n):
                asked = []

                def stop(d, *_):
                    asked.append(d)
                    return d >= 1

                dist, sigma, order, odd, edges = _bfs(g.adjacency, root, stop)
                exact = oracles.bfs_counts(g, root)
                assert dist == list(exact.dist)
                assert sorted(order) == [v for v in range(g.n) if dist[v] is not None]
                assert [dist[v] for v in order] == sorted(dist[v] for v in order)
                assert asked == sorted(set(asked))
                last = asked[-1] if asked and asked[-1] >= 1 else math.inf
                for v in order:
                    if dist[v] <= last:
                        assert sigma[v] == exact.sigma[v]
                merges = oracles.merge_levels(g, dist)
                assert [d + 1 for d in asked] == sorted(set(merges))[: len(asked)]
                assert all(d <= last for d in asked)
                assert edges == 0 or odd <= last
                level, count = first_level_edges(g, dist)
                if level < last:
                    assert (odd, edges) == (level, count)
                elif edges:
                    assert odd == level and edges <= count

    def test_dropped_tail_keeps_the_row_through_its_level(self, corpus):
        # a row stopped with DROP_TAIL at level d is the row stopped with
        # True at that level less the distances it never reached: exact
        # through level d, part of level d + 1 and nothing deeper
        dropped = 0
        for g in corpus:
            for root in range(g.n):
                for at in (0, 1, 2):
                    fired = []

                    def stop(d, *_):
                        if d >= at:
                            fired.append(d)
                            return DROP_TAIL
                        return False

                    dist, sigma, order, odd, edges = _bfs(g.adjacency, root, stop)
                    full = _bfs(g.adjacency, root, lambda d, *_: d >= at)
                    exact = oracles.bfs_counts(g, root)
                    if not fired:
                        assert (dist, sigma, order, odd, edges) == full
                        continue
                    dropped += 1
                    (d,) = fired
                    assert sorted(order) == [v for v in range(g.n) if dist[v] is not None]
                    assert order == full[2][: len(order)]
                    assert (odd, edges) == (full[3], full[4])
                    assert any(dist[v] == d + 1 for v in order)
                    for v in range(g.n):
                        if exact.dist[v] is not None and exact.dist[v] <= d:
                            assert (dist[v], sigma[v]) == (exact.dist[v], exact.sigma[v])
                        elif dist[v] is not None:
                            assert dist[v] == exact.dist[v] == d + 1
        assert dropped

    def test_first_level_edges_match_a_brute_count(self, corpus):
        # a full row counts the same-level edges of its first such level
        # and no others: the girth and the far-edge check read just these
        for g in corpus:
            for root in range(g.n):
                dist, _, _, odd, edges = _bfs(g.adjacency, root)
                assert (odd, edges) == first_level_edges(g, oracles.bfs_distances(g, root))


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

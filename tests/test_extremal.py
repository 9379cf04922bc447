from __future__ import annotations

import math
from fractions import Fraction

import pytest

import convexcycles as cc


def analyzed(g: cc.Graph):
    return cc.profile_and_census(g)


class TestBound:
    def test_petersen_value(self):
        assert cc.convex_cycle_bound(10, 15, 5) == 12

    def test_hoffman_singleton_value(self):
        assert cc.convex_cycle_bound(50, 175, 5) == 1260

    def test_q3_value_is_strict(self, q3):
        bound = cc.convex_cycle_bound(8, 12, 4)
        assert bound == Fraction(10)
        profile, census = analyzed(q3)
        assert census.total == 6 < bound

    def test_non_integer_bound(self):
        assert cc.convex_cycle_bound(4, 5, 3) == Fraction(8, 3)

    def test_infinite_girth(self):
        with pytest.raises(cc.NotApplicable):
            cc.convex_cycle_bound(5, 4, math.inf)

    def test_parameter_validation(self):
        with pytest.raises(cc.InvalidParameter):
            cc.convex_cycle_bound(3, 3, 2)
        with pytest.raises(cc.InvalidParameter):
            cc.convex_cycle_bound(3, 1, 3)


class TestIsMoore:
    def test_petersen(self, petersen, petersen_analysis):
        report = cc.is_moore(petersen, petersen_analysis[0])
        assert report.is_moore
        assert report.diameter == 2
        assert report.degree == 3

    def test_k4(self):
        g = cc.complete_graph(4)
        report = cc.is_moore(g, analyzed(g)[0])
        assert report.is_moore
        assert report.diameter == 1
        assert report.girth == 3
        assert report.degree == 3

    def test_q3_even_girth(self, q3):
        assert not cc.is_moore(q3, analyzed(q3)[0]).is_moore

    def test_odd_cycle_yes_even_cycle_no(self):
        c7 = cc.cycle_graph(7)
        assert cc.is_moore(c7, analyzed(c7)[0]).is_moore
        c8 = cc.cycle_graph(8)
        assert not cc.is_moore(c8, analyzed(c8)[0]).is_moore

    def test_hoffman_singleton(self, hoffman_singleton, hoffman_singleton_analysis):
        report = cc.is_moore(hoffman_singleton, hoffman_singleton_analysis[0])
        assert report.is_moore and report.degree == 7

    def test_disconnected(self):
        g = cc.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        with pytest.raises(cc.Disconnected):
            cc.is_moore(g, analyzed(g)[0])


class TestMooreByCount:
    def test_petersen(self, petersen, petersen_analysis):
        check = cc.check_moore_by_count(petersen, *petersen_analysis)
        assert check.count == 12
        assert check.target == 12
        assert check.is_moore_by_count

    def test_c7(self):
        g = cc.cycle_graph(7)
        check = cc.check_moore_by_count(g, *analyzed(g))
        assert check.count == 1 and check.target == 1 and check.is_moore_by_count

    def test_k4_minus_edge(self):
        g = cc.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        check = cc.check_moore_by_count(g, *analyzed(g))
        assert check.count == 2
        assert check.target == Fraction(8, 3)
        assert not check.is_moore_by_count

    def test_even_girth_rejected(self, q3):
        with pytest.raises(cc.NotApplicable):
            cc.check_moore_by_count(q3, *analyzed(q3))

    def test_disconnected_rejected(self):
        g = cc.Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        with pytest.raises(cc.Disconnected):
            cc.check_moore_by_count(g, *analyzed(g))


class TestCheckExtremal:
    def test_even_cycle_equality(self):
        g = cc.cycle_graph(6)
        profile, census = analyzed(g)
        report = cc.check_extremal(g, profile, census)
        assert report.equality
        assert report.bound == 1
        assert report.classification is cc.Classification.EVEN_CYCLE

    def test_hoffman_singleton_equality(
        self, hoffman_singleton, hoffman_singleton_analysis
    ):
        report = cc.check_extremal(hoffman_singleton, *hoffman_singleton_analysis)
        assert report.equality
        assert report.total == report.bound == 1260
        assert report.classification is cc.Classification.MOORE_GRAPH

    def test_q3_strict(self, q3):
        profile, census = analyzed(q3)
        report = cc.check_extremal(q3, profile, census)
        assert not report.equality
        assert report.total == 6
        assert report.bound == 10
        assert report.classification is cc.Classification.STRICT

    def test_complete_graphs_moore(self):
        for n in range(3, 8):
            g = cc.complete_graph(n)
            profile, census = analyzed(g)
            report = cc.check_extremal(g, profile, census)
            assert report.equality
            assert report.classification is cc.Classification.MOORE_GRAPH

    def test_odd_cycle_classified_moore_not_even_cycle(self):
        g = cc.cycle_graph(9)
        profile, census = analyzed(g)
        report = cc.check_extremal(g, profile, census)
        assert report.equality
        assert report.classification is cc.Classification.MOORE_GRAPH

    def test_forest_not_applicable(self):
        g = cc.Graph(4, [(0, 1), (1, 2), (2, 3)])
        profile, census = analyzed(g)
        with pytest.raises(cc.NotApplicable):
            cc.check_extremal(g, profile, census)

    def test_disconnected_rejected(self):
        g = cc.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        profile, census = analyzed(g)
        with pytest.raises(cc.Disconnected):
            cc.check_extremal(g, profile, census)

    def test_moore_plus_pendant_is_strict(self, petersen):
        # a pendant keeps the census but grows n and m, so equality must break
        g = cc.Graph(11, list(petersen.edge_list) + [(0, 10)])
        profile, census = analyzed(g)
        report = cc.check_extremal(g, profile, census)
        assert census.total == 12
        assert report.bound == Fraction(11 * 6, 5)
        assert not report.equality
        assert report.classification is cc.Classification.STRICT


class TestCorpusInvariants:
    def test_bound_holds_everywhere(self, corpus_profiles):
        for g, profile, census in corpus_profiles:
            if profile.girth == math.inf:
                continue
            assert census.total * profile.girth <= g.n * (g.m - g.n + 1)

    def test_even_census_bound_and_equality(self, corpus_profiles):
        # the even census alone obeys the same bound, sharp only for even cycles
        for g, profile, census in corpus_profiles:
            if profile.girth == math.inf:
                continue
            lhs = census.even_count * profile.girth
            rhs = g.n * (g.m - g.n + 1)
            assert lhs <= rhs
            is_even_cycle = (
                g.m == g.n and g.regular_degree() == 2 and g.n % 2 == 0
            )
            assert (lhs == rhs) == is_even_cycle

    def test_count_criterion_agrees_with_moore_test(self, corpus_profiles):
        for g, profile, census in corpus_profiles:
            if profile.girth == math.inf or profile.girth % 2 == 0:
                continue
            check = cc.check_moore_by_count(g, profile, census)
            assert check.is_moore_by_count == cc.is_moore(g, profile).is_moore

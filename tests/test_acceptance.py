"""Acceptance suite: every criterion is exact (integer / rational equality,
zero tolerance) and prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

import convexcycles as cc

from . import oracles
from .conftest import CONNECTED_COUNTS


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    print(f"PASS criterion {num:2d}: {description}")


def analyzed(g: cc.Graph):
    return cc.profile_and_census(g)


def test_criterion_01_petersen(petersen):
    with criterion(1, "Petersen: 12 convex 5-cycles, bound 12, MooreGraph, < 1 s"):
        start = time.perf_counter()
        profile, census = analyzed(petersen)
        report = cc.check_extremal(petersen, profile, census)
        elapsed = time.perf_counter() - start
        assert census.total == 12
        assert census.by_length == {5: 12}
        assert report.bound == 12
        assert report.equality
        assert report.classification is cc.Classification.MOORE_GRAPH
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_hoffman_singleton(hoffman_singleton):
    with criterion(
        2,
        "Hoffman-Singleton: census 1260 odd-only with equality; char poly "
        "matches the factored form; spectral count 1260; < 30 s",
    ):
        start = time.perf_counter()
        profile, census = analyzed(hoffman_singleton)
        report = cc.check_extremal(hoffman_singleton, profile, census)
        assert census.total == 1260
        assert census.by_length == {5: 1260}
        assert census.even_count == 0
        assert report.bound == 1260
        assert report.equality
        poly = cc.char_poly(hoffman_singleton)
        assert poly == cc.expand_factored([(7, 1), (2, 28), (-3, 21)])
        assert poly.coefficient(45) == -2520
        assert cc.girth_cycle_count_spectral(poly, 50, 5) == 1260
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_03_complete_graphs():
    with criterion(3, "complete graphs K_3..K_8: census C(n,3) triangles, equality"):
        for n in range(3, 9):
            g = cc.complete_graph(n)
            profile, census = analyzed(g)
            assert census.total == comb(n, 3)
            assert census.by_length == {3: comb(n, 3)}
            report = cc.check_extremal(g, profile, census)
            assert report.equality


def test_criterion_04_cycles():
    with criterion(
        4, "cycles C_3..C_20: census 1 with equality, EvenCycle/MooreGraph by parity"
    ):
        for n in range(3, 21):
            g = cc.cycle_graph(n)
            profile, census = analyzed(g)
            assert census.total == 1
            report = cc.check_extremal(g, profile, census)
            assert report.equality
            expected = (
                cc.Classification.EVEN_CYCLE
                if n % 2 == 0
                else cc.Classification.MOORE_GRAPH
            )
            assert report.classification is expected


def test_criterion_05_degree57_polynomial():
    with criterion(
        5,
        "hypothetical degree-57 Moore graph: x^3245 coefficient -116188800, "
        "spectral count 58094400 = (3250/5)(92625-3250+1); < 60 s",
    ):
        start = time.perf_counter()
        factors = [(57, 1), (-8, 1520), (7, 1729)]
        poly = cc.expand_factored(factors)
        assert poly.degree == 3250
        assert poly.coefficient(3245) == -116188800
        # Newton's identities give the same coefficient from the power sums
        assert oracles.newton_coefficient(factors, 5) == poly.coefficient(3245)
        count = cc.girth_cycle_count_spectral(poly, 3250, 5)
        assert count == 58094400
        assert count == Fraction(3250 * (92625 - 3250 + 1), 5)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_06_oracle_equivalence(corpus_profiles):
    with criterion(
        6,
        "exhaustive corpus (all connected graphs, n <= 7): enumeration equals "
        "the brute-force oracle and the bound inequality holds; 0 violations",
    ):
        per_order: dict[int, int] = {}
        for g, _, _ in corpus_profiles:
            per_order[g.n] = per_order.get(g.n, 0) + 1
        assert per_order == CONNECTED_COUNTS  # corpus really is exhaustive
        violations = 0
        for g, profile, census in corpus_profiles:
            brute = cc.brute_force_convex_cycles(g, g.n)
            if census.cycles != brute.cycles:
                violations += 1
            if profile.girth != math.inf:
                if census.total * profile.girth > g.n * (g.m - g.n + 1):
                    violations += 1
        assert violations == 0


def test_criterion_07_count_criterion_equivalence(corpus_profiles):
    with criterion(
        7,
        "every connected odd-girth corpus graph: counting criterion agrees "
        "with the diameter/girth Moore test; 0 disagreements",
    ):
        disagreements = 0
        checked = 0
        for g, profile, census in corpus_profiles:
            if profile.girth == math.inf or profile.girth % 2 == 0:
                continue
            check = cc.check_moore_by_count(g, profile, census)
            if check.is_moore_by_count != cc.is_moore(g, profile).is_moore:
                disagreements += 1
            checked += 1
        assert checked > 400
        assert disagreements == 0


def test_criterion_08_per_vertex_pair_bound(corpus_profiles):
    with criterion(
        8,
        "every connected corpus graph: no vertex joins more than m-n+1 "
        "odd antipodal pairs; 0 violations",
    ):
        violations = 0
        for g, _, _ in corpus_profiles:
            cap = g.m - g.n + 1
            per_vertex = [0] * g.n
            records = oracles.all_roots_records(g)
            for _, v in oracles.odd_antipodal_pairs(g, records):
                per_vertex[v] += 1
            if per_vertex and max(per_vertex) > cap:
                violations += 1
        assert violations == 0


def test_criterion_09_pendant_invariance():
    with criterion(
        9, "100 seeded random graphs: attaching a pendant vertex keeps the census"
    ):
        for seed in range(100):
            n = 5 + seed % 5
            g = cc.gnp_random_graph(n, 0.3 + (seed % 4) * 0.1, 31_000 + seed)
            _, census = analyzed(g)
            grown = cc.Graph(
                g.n + 1, list(g.edge_list) + [(seed % g.n, g.n)]
            )
            _, grown_census = analyzed(grown)
            assert grown_census.total == census.total
            assert grown_census.by_length == census.by_length


def test_criterion_10_strict_cases(k23, q3):
    with criterion(10, "K_{2,3}: census 0; Q3: census 6 < bound 10, Strict"):
        _, k23_census = analyzed(k23)
        assert k23_census.total == 0
        profile, census = analyzed(q3)
        assert census.total == 6
        report = cc.check_extremal(q3, profile, census)
        assert report.bound == 10
        assert not report.equality
        assert report.classification is cc.Classification.STRICT

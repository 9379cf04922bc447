from __future__ import annotations

import math
import random
from functools import reduce

import pytest

import convexcycles as cc
from convexcycles.spectral import _poly_mul, _schoolbook_mul

from . import oracles


class TestCharPoly:
    def test_k3(self):
        assert cc.char_poly(cc.complete_graph(3)).coeffs == (-2, -3, 0, 1)

    def test_c5(self):
        assert cc.char_poly(cc.cycle_graph(5)).coeffs == (-2, 5, 0, -5, 0, 1)

    def test_single_vertex(self):
        assert cc.char_poly(cc.complete_graph(1)).coeffs == (0, 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(cc.InvalidParameter):
            cc.char_poly(cc.from_edge_list(0, []))

    def test_monic_of_matching_degree(self, corpus):
        for g in corpus[:200]:
            poly = cc.char_poly(g)
            assert poly.degree == g.n
            assert poly.coeffs[-1] == 1

    def test_values_match_determinant_oracle(self, corpus):
        for g in corpus[:150]:
            poly = cc.char_poly(g)
            for x in range(-2, g.n + 2):
                assert poly(x) == oracles.char_poly_value(g, x)

    def test_hoffman_singleton_values_match_bareiss(
        self, hoffman_singleton
    ):
        poly = cc.char_poly(hoffman_singleton)
        for x in (-3, 0, 1, 10):
            assert poly(x) == oracles.char_poly_value(hoffman_singleton, x)

    def test_leading_coefficients(self, corpus):
        # trace is zero, the x^(n-2) coefficient counts edges, and the
        # x^(n-3) coefficient counts triangles twice
        for g in corpus[:200]:
            poly = cc.char_poly(g)
            assert poly.coefficient(g.n - 1) == 0
            assert poly.coefficient(g.n - 2) == -g.m
            assert poly.coefficient(g.n - 3) == -2 * oracles.triangle_count(g)


class TestExpandFactored:
    def test_square(self):
        assert cc.expand_factored([(1, 2)]).coeffs == (1, -2, 1)

    def test_empty_product(self):
        assert cc.expand_factored([]).coeffs == (1,)

    def test_multiplicity_validated(self):
        with pytest.raises(cc.InvalidParameter):
            cc.expand_factored([(3, 0)])

    def test_hoffman_singleton_factored_form(self, hoffman_singleton):
        assert cc.expand_factored([(7, 1), (2, 28), (-3, 21)]) == cc.char_poly(
            hoffman_singleton
        )

    def test_degree_is_multiplicity_sum(self):
        poly = cc.expand_factored([(2, 5), (-1, 3), (0, 2)])
        assert poly.degree == 10

    def test_roots_evaluate_to_zero(self):
        poly = cc.expand_factored([(4, 2), (-6, 3), (1, 1)])
        for root in (4, -6, 1):
            assert poly(root) == 0
        assert poly(2) != 0

    def test_matches_slow_product(self):
        rng = random.Random(99)
        for _ in range(20):
            factors = [
                (rng.randint(-9, 9), rng.randint(1, 25)) for _ in range(rng.randint(1, 4))
            ]
            expected = reduce(
                _schoolbook_mul,
                [list(cc.expand_factored([f]).coeffs) for f in factors],
            )
            assert list(cc.expand_factored(factors).coeffs) == expected


def _sign_and_carry_cases() -> list:
    rng = random.Random(2718)
    big = 10**12 - 1

    def rand(n: int, bound: int) -> list[int]:
        return [rng.randint(-bound, bound) for _ in range(n)]

    cases = [
        pytest.param(
            [-rng.randint(1, 10**9) for _ in range(25)],
            [-rng.randint(1, 10**9) for _ in range(31)],
            id="all-negative",
        ),
        pytest.param(
            [(-1) ** i * rng.randint(1, 10**9) for i in range(27)],
            [(-1) ** (i + 1) * rng.randint(1, 10**9) for i in range(20)],
            id="alternating-signs",
        ),
        # every coefficient is +-(the largest magnitude of its list)
        pytest.param([big] * 30, [-big] * 19, id="extreme-same-sign"),
        pytest.param(
            [(-1) ** i * big for i in range(18)],
            [(-1) ** (i + 1) * big for i in range(33)],
            id="extreme-alternating",
        ),
        pytest.param(
            [rng.choice((-big, big)) for _ in range(40)],
            [rng.choice((-big, big)) for _ in range(40)],
            id="extreme-random-signs",
        ),
        # one product slot is exactly -sum|p| * sum|q|
        pytest.param(
            [0] * 8 + [big] + [0] * 8, [0] * 17 + [-big], id="slot-at-bound"
        ),
        # coefficients with more digits than int() and str() accept by default
        pytest.param(
            [(-1) ** i * 10**5000 for i in range(20)],
            [-(10**4500)] * 18,
            id="past-str-digits-limit",
        ),
        pytest.param([0] * 20, rand(25, 9), id="zero"),
        pytest.param([0] * 17, [0] * 17, id="zero-times-zero"),
    ]
    # both sides of the schoolbook threshold of 16
    cases += [
        pytest.param(rand(n, 10**6), rand(m, 10**6), id=f"lengths-{n}x{m}")
        for n in (16, 17, 18)
        for m in (16, 17, 18)
    ]
    cases.append(
        pytest.param(
            rand(rng.randint(501, 700), 10**30),
            rand(rng.randint(501, 700), 10**30),
            id="long-random",
        )
    )
    return cases


class TestPolyMul:
    def test_kronecker_agrees_with_schoolbook(self):
        rng = random.Random(4242)
        for _ in range(25):
            p = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(17, 60))]
            q = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(17, 60))]
            assert _poly_mul(p, q) == _schoolbook_mul(p, q)

    def test_zero_heavy_inputs(self):
        p = [0] * 20 + [5]
        q = [-3] + [0] * 30 + [7]
        assert _poly_mul(p, q) == _schoolbook_mul(p, q)

    @pytest.mark.parametrize("p, q", _sign_and_carry_cases())
    def test_signs_and_carries_agree_with_schoolbook(self, p, q):
        assert _poly_mul(p, q) == _schoolbook_mul(p, q)


class TestSpectralCount:
    def test_hoffman_singleton(self, hoffman_singleton):
        poly = cc.char_poly(hoffman_singleton)
        assert poly.coefficient(45) == -2520
        assert cc.girth_cycle_count_spectral(poly, 50, 5) == 1260

    def test_c5(self):
        poly = cc.char_poly(cc.cycle_graph(5))
        assert cc.girth_cycle_count_spectral(poly, 5, 5) == 1

    def test_even_girth_rejected(self):
        poly = cc.char_poly(cc.cycle_graph(6))
        with pytest.raises(cc.NotApplicable):
            cc.girth_cycle_count_spectral(poly, 6, 4)

    def test_degree_mismatch(self):
        poly = cc.char_poly(cc.cycle_graph(5))
        with pytest.raises(cc.InvalidParameter):
            cc.girth_cycle_count_spectral(poly, 6, 5)

    def test_odd_coefficient_rejected(self):
        poly = cc.IntPolynomial((-3, 0, 0, 1))
        with pytest.raises(cc.InconsistentInput):
            cc.girth_cycle_count_spectral(poly, 3, 3)

    def test_zero_coefficient_rejected(self):
        poly = cc.IntPolynomial((0, 0, 0, 1))
        with pytest.raises(cc.InconsistentInput):
            cc.girth_cycle_count_spectral(poly, 3, 3)

    def test_agrees_with_census_on_odd_girth_corpus(self, corpus_profiles):
        checked = 0
        for g, profile in corpus_profiles:
            if not profile.connected:
                continue
            if profile.girth == math.inf or profile.girth % 2 == 0:
                continue
            expected = cc.girth_cycle_count(g, profile)
            poly = cc.char_poly(g)
            assert (
                cc.girth_cycle_count_spectral(poly, g.n, int(profile.girth))
                == expected
            )
            checked += 1
        assert checked > 300

    def test_agrees_with_census_on_larger_graphs(self, petersen, petersen_profile):
        cases = [
            (petersen, petersen_profile),
            (cc.cycle_graph(9), None),
            (cc.cycle_graph(11), None),
            (cc.complete_graph(9), None),
            (cc.complete_graph(12), None),
        ]
        for g, profile in cases:
            if profile is None:
                profile = cc.metric_profile(g)
            expected = cc.girth_cycle_count(g, profile)
            poly = cc.char_poly(g)
            assert (
                cc.girth_cycle_count_spectral(poly, g.n, int(profile.girth))
                == expected
            )


class TestPolynomialText:
    def test_roundtrip(self):
        poly = cc.char_poly(cc.petersen_graph())
        assert cc.IntPolynomial.from_text(poly.to_text()) == poly

    def test_text_is_constant_first(self):
        assert cc.expand_factored([(1, 2)]).to_text() == "1 -2 1"

    def test_coefficients_past_the_str_digits_limit(self):
        # (x - 10**5)**1000: the constant 10**5000 has 5001 digits, past
        # the interpreter's default 4300-digit int/str conversion limit
        poly = cc.expand_factored([(10**5, 1000)])
        text = poly.to_text()
        assert text.startswith("1" + "0" * 5000 + " ")
        assert text.endswith(" -100000000 1")
        assert cc.IntPolynomial.from_text(text) == poly
        assert cc.IntPolynomial.from_text("1" * 5000).coeffs == ((10**5000 - 1) // 9,)
        assert cc.IntPolynomial.from_text("-" + "1" * 5000).coeffs == (
            -(10**5000 - 1) // 9,
        )

    def test_bad_text(self):
        with pytest.raises(cc.ParseError):
            cc.IntPolynomial.from_text("1 two 3")
        with pytest.raises(cc.ParseError):
            cc.IntPolynomial.from_text("   ")
        with pytest.raises(cc.ParseError):  # a sign inside a long token
            cc.IntPolynomial.from_text("1" * 4300 + "-5")

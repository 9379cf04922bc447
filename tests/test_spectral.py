from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import convexcycles as cc

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
            cc.char_poly(cc.Graph(0, []))

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
        # the first bad factor in input order is named, before any merging
        with pytest.raises(cc.InvalidParameter, match="got 0 for root 3"):
            cc.expand_factored([(1, 2), (3, 0), (1, 1), (4, -1)])

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
            assert list(cc.expand_factored(factors).coeffs) == oracles.expand_factored(
                factors
            )

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0, 1, -1, 7]), st.integers(-10**5, 10**5)),
                st.integers(1, 60),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_reference_product(self, factors):
        assert list(cc.expand_factored(factors).coeffs) == oracles.expand_factored(
            factors
        )

    @pytest.mark.parametrize(
        "factors",
        [
            pytest.param([(0, 7)], id="zero-root"),
            pytest.param([(-12345, 1)], id="linear"),
            pytest.param([(3, 4), (-2, 5), (3, 6), (0, 1), (0, 2)], id="repeated-roots"),
            pytest.param([(7, 1), (2, 28), (-3, 21)], id="hoffman-singleton"),
            # coefficients up to 10**5000, past the 4300-digit int/str limit
            pytest.param([(10**5, 1000)], id="past-str-digits-limit"),
        ],
    )
    def test_fixed_cases_match_reference(self, factors):
        assert list(cc.expand_factored(factors).coeffs) == oracles.expand_factored(
            factors
        )

    def test_zero_root(self):
        assert cc.expand_factored([(0, 7)]).coeffs == (0,) * 7 + (1,)

    def test_repeated_root_equals_merged_form(self):
        listed = [(3, 4), (-2, 5), (3, 6), (0, 1), (0, 2)]
        assert cc.expand_factored(listed) == cc.expand_factored([(3, 10), (-2, 5), (0, 3)])

    def test_degree57_moore_spectrum(self):
        # the exact reference product takes tens of seconds at degree 3250;
        # it is compared modulo a prime, and the top coefficients, the
        # constant term and point values exactly
        factors = [(57, 1), (-8, 1520), (7, 1729)]
        poly = cc.expand_factored(factors)
        prime = 2**61 - 1
        assert [c % prime for c in poly.coeffs] == oracles.expand_factored(
            factors, prime
        )
        for g in range(40):
            assert poly.coefficient(3250 - g) == oracles.newton_coefficient(factors, g)
        for x in (0, 1, -1, 2, -3, 13, 57, -8, 7):
            assert poly(x) == (x - 57) * (x + 8) ** 1520 * (x - 7) ** 1729


def _sign_and_carry_cases() -> list:
    rng = random.Random(2718)
    big = 10**12 - 1

    def rand(t: int, bound: int, max_k: int) -> list[tuple[int, int]]:
        return [(rng.randint(-bound, bound), rng.randint(1, max_k)) for _ in range(t)]

    cases = [
        pytest.param(
            [(-rng.randint(1, 10**9), rng.randint(1, 8)) for _ in range(6)],
            id="all-negative",
        ),
        pytest.param(
            [((-1) ** i * rng.randint(1, 10**9), rng.randint(1, 5)) for i in range(9)],
            id="alternating-signs",
        ),
        # one root of the largest magnitude, listed twice
        pytest.param([(big, 30), (big, 19)], id="extreme-same-sign"),
        # (x**2 - big**2)**18, every odd coefficient zero
        pytest.param([((-1) ** i * big, 2) for i in range(18)], id="extreme-alternating"),
        pytest.param(
            [(rng.choice((-big, big)), rng.randint(1, 3)) for _ in range(40)],
            id="extreme-random-signs",
        ),
        # x**17 * (x + big): the constant term is zero, x**17 carries big
        pytest.param([(0, 8), (-big, 1), (0, 9)], id="slot-at-bound"),
        # coefficients up to about 10**5000, more digits than int() and str()
        # accept by default
        pytest.param([(10**2500, 2), (-(10**2250), 2)], id="past-str-digits-limit"),
        pytest.param([(0, 20)] + rand(3, 9, 8), id="zero"),
        pytest.param([(0, 17), (0, 17)], id="zero-times-zero"),
    ]
    # two factors of neighbouring multiplicities
    cases += [
        pytest.param(
            [(rng.randint(-10**6, 10**6), n), (rng.randint(-10**6, 10**6), m)],
            id=f"lengths-{n}x{m}",
        )
        for n in (16, 17, 18)
        for m in (16, 17, 18)
    ]
    cases.append(pytest.param(rand(12, 10**30, 50), id="long-random"))
    return cases


class TestPolyMul:
    """expand_factored against the schoolbook product of tests/oracles.py
    on sign patterns, extreme and huge roots, zero roots and lengths."""

    def test_zero_heavy_inputs(self):
        factors = [(0, 20), (5, 1), (0, 10), (-3, 1), (0, 1)]
        poly = cc.expand_factored(factors)
        assert list(poly.coeffs) == oracles.expand_factored(factors)
        assert poly.coeffs[:31] == (0,) * 31

    @pytest.mark.parametrize("factors", _sign_and_carry_cases())
    def test_signs_and_carries_agree_with_schoolbook(self, factors):
        assert list(cc.expand_factored(factors).coeffs) == oracles.expand_factored(
            factors
        )


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

    @pytest.mark.parametrize("c", [2, 4])
    def test_positive_even_coefficient_rejected(self, c):
        # -c/2 would count a negative number of triangles
        poly = cc.IntPolynomial((c, 0, 0, 1))
        with pytest.raises(cc.InconsistentInput):
            cc.girth_cycle_count_spectral(poly, 3, 3)

    def test_agrees_with_census_on_odd_girth_corpus(self, corpus_profiles):
        checked = 0
        for g, profile, census in corpus_profiles:
            if not profile.connected:
                continue
            if profile.girth == math.inf or profile.girth % 2 == 0:
                continue
            expected = cc.girth_cycle_count(profile, census)
            poly = cc.char_poly(g)
            assert (
                cc.girth_cycle_count_spectral(poly, g.n, int(profile.girth))
                == expected
            )
            checked += 1
        assert checked > 300

    def test_agrees_with_census_on_larger_graphs(self, petersen, petersen_analysis):
        cases = [
            (petersen, petersen_analysis),
            (cc.cycle_graph(9), None),
            (cc.cycle_graph(11), None),
            (cc.complete_graph(9), None),
            (cc.complete_graph(12), None),
        ]
        for g, analysis in cases:
            profile, census = analysis or cc.profile_and_census(g)
            expected = cc.girth_cycle_count(profile, census)
            poly = cc.char_poly(g)
            assert (
                cc.girth_cycle_count_spectral(poly, g.n, int(profile.girth))
                == expected
            )


class TestPolynomialText:
    def test_roundtrip(self):
        poly = cc.char_poly(cc.petersen_graph())
        assert cc.IntPolynomial(tuple(map(int, poly.to_text().split()))) == poly

    def test_text_is_constant_first(self):
        assert cc.expand_factored([(1, 2)]).to_text() == "1 -2 1"

    def test_coefficients_past_the_str_digits_limit(self):
        # (x - 10**5)**1000: the constant 10**5000 has 5001 digits, past
        # the interpreter's default 4300-digit int/str conversion limit.
        # The coefficient of x**(1000 - j) is comb(1000, j) * (-10**5)**j,
        # written here without converting a long int to text.
        expected = " ".join(
            "-" * (j % 2) + str(math.comb(1000, j)) + "0" * (5 * j)
            for j in range(1000, -1, -1)
        )
        assert cc.expand_factored([(10**5, 1000)]).to_text() == expected

"""Tests for characteristic classes, indices, and characteristic numbers.

The named series are checked against an independent long-division oracle
before anything downstream relies on them.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from abelianize.ratpoly import Ring, Series, eval_series, exp_series
from abelianize.rootdata import Subgroup
from abelianize.quotient import QuotientModel, SplitBundle, grassmannian_model
from abelianize.charclass import (
    CLASS_SERIES,
    characteristic_number,
    chern_character,
    euler_characteristic,
    euler_factor_series,
    exterior_power,
    index_group,
    index_group_two_term,
    index_torus,
    l_class_series,
    lambda_alternating_ch,
    mult_class,
    root_factor_series,
    signature,
    tanh_series,
    todd_series,
    total_chern_series,
)


# -- independent series oracle (naive long division) -------------------------


def divide_series(num, den, order):
    """Power-series long division: num/den to the given order, den[0] != 0."""
    num = list(num) + [Fraction(0)] * (order + 1 - len(num))
    den = list(den) + [Fraction(0)] * (order + 1 - len(den))
    out = []
    rem = [Fraction(x) for x in num]
    for j in range(order + 1):
        q = Fraction(rem[j], 1) / Fraction(den[0])
        out.append(q)
        for t in range(j, order + 1):
            rem[t] -= q * den[t - j]
    return out


def oracle_todd(order):
    # x/(1 - exp(-x)) = 1 / ((1 - exp(-x))/x)
    den_over_x = [Fraction((-1) ** j, factorial(j + 1)) for j in range(order + 1)]
    return divide_series([Fraction(1)], den_over_x, order)


def oracle_tanh(order):
    sinh = [Fraction(0) if j % 2 == 0 else Fraction(1, factorial(j)) for j in range(order + 1)]
    cosh = [Fraction(1, factorial(j)) if j % 2 == 0 else Fraction(0) for j in range(order + 1)]
    return divide_series(sinh, cosh, order)


def oracle_l_class(order):
    # x/tanh(x) = 1 / (tanh(x)/x)
    tanh_over_x = oracle_tanh(order + 1)[1:]
    return divide_series([Fraction(1)], tanh_over_x, order)


class TestSeriesOracles:
    def test_todd_matches_long_division(self):
        oracle = oracle_todd(8)
        assert [Fraction(c) for c in todd_series(8).coeffs] == oracle
        assert oracle[:5] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        ]

    def test_l_class_matches_long_division(self):
        oracle = oracle_l_class(8)
        assert [Fraction(c) for c in l_class_series(8).coeffs] == oracle
        assert oracle[:6] == [
            Fraction(1),
            Fraction(0),
            Fraction(1, 3),
            Fraction(0),
            Fraction(-1, 45),
            Fraction(0),
        ]

    def test_tanh_matches_long_division(self):
        assert [Fraction(c) for c in tanh_series(9).coeffs] == oracle_tanh(9)

    def test_root_factors_match_independent_references(self):
        # x/f(x) is x/(1+x) for the total Chern class and tanh(x) for the L-class
        for D in range(13):
            assert root_factor_series(total_chern_series(D), D) == euler_factor_series(D)
            assert root_factor_series(l_class_series(D), D) == tanh_series(D)

    def test_todd_evaluation(self):
        ring = Ring(1, [3])
        u = ring.variable(0)
        assert eval_series(todd_series(2), u) == ring.one() + u / 2 + u**2 / 12

    def test_l_class_evaluation(self):
        ring = Ring(1, [5])
        u = ring.variable(0)
        expected = ring.one() + u**2 / 3 - u**4 / 45
        assert eval_series(l_class_series(4), u) == expected

    def test_registry_names(self):
        assert set(CLASS_SERIES) == {"total-chern", "todd", "l-class"}
        for builder in CLASS_SERIES.values():
            assert builder(5).constant_term == 1


class TestMultClass:
    def test_total_chern_of_line(self):
        ring = Ring(2, [4, 4])
        u1, _ = ring.gens()
        V = SplitBundle(ring, [((1, 0), 1)])
        assert mult_class(total_chern_series(6), V) == ring.one() + u1

    def test_todd_of_rank_zero_virtual(self):
        ring = Ring(1, [5])
        V = SplitBundle(ring, [((1,), 1), ((1,), -1)])
        assert mult_class(todd_series(4), V) == ring.one()

    def test_todd_times_todd_of_negative_is_one(self):
        ring = Ring(2, [4, 4])
        V = SplitBundle(ring, [((1, 0), 2), ((-1, 1), 1)])
        td = todd_series(ring.top_degree)
        negated = SplitBundle(ring, [((1, 0), -2), ((-1, 1), -1)])
        assert mult_class(td, V) * mult_class(td, negated) == ring.one()

    def test_multiplicative_over_direct_sum(self):
        ring = Ring(2, [4, 4])
        a = SplitBundle(ring, [((1, 0), 2)])
        b = SplitBundle(ring, [((0, 1), 1), ((1, 1), 1)])
        for name in CLASS_SERIES:
            f = CLASS_SERIES[name](ring.top_degree)
            assert mult_class(f, a + b) == mult_class(f, a) * mult_class(f, b)

    def test_degree_zero_part_is_one(self):
        ring = Ring(2, [4, 4])
        V = SplitBundle(ring, [((1, 0), 3), ((0, 1), -2)])
        for name in CLASS_SERIES:
            c = mult_class(CLASS_SERIES[name](ring.top_degree), V)
            assert c.constant_term() == 1

    def test_requires_unit_constant_term(self):
        ring = Ring(1, [3])
        V = SplitBundle(ring, [((1,), 1)])
        with pytest.raises(ValueError):
            mult_class(Series([2, 1]), V)

    def test_grassmannian_tangent_total_chern(self):
        m = grassmannian_model(1, 4)
        u = m.ring.variable(0)
        c = mult_class(total_chern_series(3), m.tangent_bundle)
        assert c == (m.ring.one() + u) ** 4


class TestChernCharacter:
    def test_line_bundle(self):
        ring = Ring(1, [3])
        u = ring.variable(0)
        V = SplitBundle(ring, [((1,), 1)])
        assert chern_character(V) == ring.one() + u + u**2 / 2

    def test_virtual_difference(self):
        ring = Ring(1, [4])
        u = ring.variable(0)
        V = SplitBundle(ring, [((0,), 1), ((1,), -1)])
        expected = -u - u**2 / 2 - u**3 / 6
        assert chern_character(V) == expected

    def test_additive(self):
        ring = Ring(2, [3, 3])
        u1, u2 = ring.gens()
        V = SplitBundle(ring, [((1, 0), 1), ((0, 1), 1)])
        e = exp_series(ring.top_degree)
        assert chern_character(V) == eval_series(e, u1) + eval_series(e, u2)

    def test_multiplicative_over_tensor_of_lines(self):
        ring = Ring(2, [4, 4])
        a = SplitBundle(ring, [((1, 0), 1)])
        b = SplitBundle(ring, [((0, 1), 1)])
        assert chern_character(a.tensor(b)) == chern_character(a) * chern_character(b)


class TestLambdaAlternating:
    def test_empty_bundle(self):
        ring = Ring(2, [4, 4])
        E = SplitBundle(ring, [])
        assert lambda_alternating_ch(E) == ring.one()

    def test_single_root_factor(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        E = SplitBundle(ring, [((-1, 1), 1)])
        e = exp_series(ring.top_degree)
        assert lambda_alternating_ch(E) == ring.one() - eval_series(e, u2 - u1)

    def test_rejects_virtual(self):
        ring = Ring(1, [3])
        with pytest.raises(ValueError):
            lambda_alternating_ch(SplitBundle(ring, [((1,), -1)]))

    @pytest.mark.parametrize("nlines", [1, 2, 3])
    def test_k_identity_brute_force(self, nlines):
        # product identity vs an explicit alternating sum over exterior powers,
        # with the exterior powers expanded here by direct subset enumeration
        ring = Ring(3, [3, 3, 3])
        u = ring.gens()
        roots = [u[1] - u[0], u[2] - u[1], u[2] - u[0]][:nlines]
        weights = [(-1, 1, 0), (0, -1, 1), (-1, 0, 1)][:nlines]
        E = SplitBundle(ring, [(w, 1) for w in weights])
        e = exp_series(ring.top_degree)
        alt = ring.zero()
        for i in range(nlines + 1):
            for combo in combinations(range(nlines), i):
                root = ring.zero()
                for j in combo:
                    root = root + roots[j]
                alt = alt + (-1) ** i * eval_series(e, root)
        assert lambda_alternating_ch(E) == alt

    def test_exterior_power_against_binomials(self):
        ring = Ring(2, [4, 4])
        E = SplitBundle(ring, [((1, 0), 3)])
        for i in range(4):
            assert exterior_power(E, i).rank == comb(3, i)

    def test_exterior_power_sums_weights(self):
        ring = Ring(2, [4, 4])
        E = SplitBundle(ring, [((1, 0), 1), ((0, 1), 1), ((2, -1), 1)])
        assert exterior_power(E, 0).summands == (((0, 0), 1),)
        assert exterior_power(E, 1) == E
        assert exterior_power(E, 2).summands == (((1, 1), 1), ((3, -1), 1), ((2, 0), 1))
        assert exterior_power(E, 3).summands == (((3, 0), 1),)
        doubled = SplitBundle(ring, [((1, 2), 2)])
        assert exterior_power(doubled, 2).summands == (((2, 4), 1),)


class TestIndex:
    def test_projective_space_todd_genus(self):
        for n in range(1, 6):
            m = grassmannian_model(1, n)
            trivial = SplitBundle(m.ring, [((0,), 1)])
            assert index_group(m, trivial) == 1

    def test_line_bundles_on_the_projective_line(self):
        m = grassmannian_model(1, 2)
        for twist in range(11):
            V = SplitBundle(m.ring, [((twist,), 1)])
            assert index_group(m, V) == twist + 1

    def test_plucker_line_on_g24(self):
        m = grassmannian_model(2, 4)
        V = SplitBundle(m.ring, [((1, 1), 1)])
        # oracle: column-strict fillings of a single column of height 2
        # with entries in 1..4
        tableaux = sum(1 for a in range(1, 5) for b in range(a + 1, 5))
        assert tableaux == 6
        assert index_group(m, V) == tableaux

    def test_two_term_form_agrees(self):
        models = [grassmannian_model(2, 4), grassmannian_model(2, 5), grassmannian_model(3, 5)]
        for m in models:
            k = m.ring.k
            bundles = [
                SplitBundle(m.ring, [((0,) * k, 1)]),
                SplitBundle(m.ring, [((1,) * k, 1)]),
                SplitBundle(m.ring, [((1, 1) + (0,) * (k - 2), 2), ((1,) + (0,) * (k - 1), -1)]),
            ]
            for V in bundles:
                assert index_group(m, V) == index_group_two_term(m, V)

    def test_positive_root_choice_does_not_matter(self):
        for k, n in [(2, 4), (2, 5), (3, 5)]:
            m = grassmannian_model(k, n)
            V = SplitBundle(m.ring, [((1,) * k, 1)])
            flipped = QuotientModel(m.ring, m.root_data.opposite(), m.tangent_bundle)
            assert index_group(m, V) == index_group(flipped, V)
            assert index_group_two_term(m, V) == index_group_two_term(flipped, V)

    def test_subgroup_variants(self):
        m = grassmannian_model(2, 4)
        V = SplitBundle(m.ring, [((0, 0), 1)])
        torus, whole = (
            QuotientModel(m.ring, m.root_data, m.tangent_bundle, subgroup=sub).relative()
            for sub in (Subgroup((), 1), Subgroup(m.root_data.roots, m.root_data.weyl_order))
        )
        assert index_group(torus, V) == index_group(m, V)
        assert index_group(whole, V) == index_torus(m, V)
        assert index_group_two_term(torus, V) == index_group(m, V)
        assert index_group_two_term(whole, V) == index_torus(m, V)


class TestCharacteristicNumbers:
    def test_euler_examples(self):
        assert euler_characteristic(grassmannian_model(1, 6)) == 6
        assert euler_characteristic(grassmannian_model(2, 4)) == 6
        assert euler_characteristic(grassmannian_model(3, 3)) == 1

    def test_signature_examples(self):
        assert signature(grassmannian_model(1, 2)) == 0
        assert signature(grassmannian_model(1, 3)) == 1
        assert signature(grassmannian_model(2, 4)) == 2

    def test_generic_formula_matches_euler_and_signature(self):
        for k, n in [(1, 3), (1, 4), (2, 4), (2, 5), (3, 6)]:
            m = grassmannian_model(k, n)
            D = m.ring.top_degree
            assert characteristic_number(m, total_chern_series(D)) == euler_characteristic(m)
            if m.quotient_dim % 2 == 0:
                assert characteristic_number(m, l_class_series(D)) == signature(m)

    def test_constant_series_gives_zero_in_positive_dimension(self):
        for k, n in [(1, 4), (2, 5)]:
            m = grassmannian_model(k, n)
            one = Series([1]).truncated(m.ring.top_degree)
            assert characteristic_number(m, one) == 0

    def test_requires_unit_constant_term(self):
        m = grassmannian_model(1, 3)
        with pytest.raises(ValueError):
            characteristic_number(m, Series([0, 1]))

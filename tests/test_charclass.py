"""Tests for characteristic classes, indices, and characteristic numbers.

The named series are checked against an independent long-division oracle
before anything downstream relies on them.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, lcm
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from abelianize import cli, presentation, ratpoly
from abelianize.config import model_from_config, model_to_config
from abelianize.ratpoly import Ring, Series, eval_series, exp_series
from abelianize.rootdata import RootData, Subgroup, root_euler_class, stabilizer_blocks, unitary_roots
from abelianize.quotient import (
    QuotientModel,
    SplitBundle,
    all_points,
    grassmannian_model,
    integrate_points,
    integrate_torus,
)
from abelianize.charclass import (
    CLASS_SERIES,
    characteristic_number,
    class_log,
    chern_character,
    euler_characteristic,
    euler_factor_series,
    exterior_power,
    index_group,
    index_group_two_term,
    l_class_series,
    lambda_alternating_ch,
    mult_class,
    signature,
    tanh_series,
    todd_series,
    total_chern_series,
)
from references import index_torus, opposite, per_point_weights


def root_factor_series(f, order):
    """x/f(x) to the given order: the factor each root contributes to a
    characteristic number on the product route."""
    return Series((0, *f.truncated(order).reciprocal().coeffs[:order]))


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
        assert eval_series(todd_series(2), u) == ring.one() + u * Fraction(1, 2) + u**2 * Fraction(1, 12)

    def test_l_class_evaluation(self):
        ring = Ring(1, [5])
        u = ring.variable(0)
        expected = ring.one() + u**2 * Fraction(1, 3) - u**4 * Fraction(1, 45)
        assert eval_series(l_class_series(4), u) == expected

    def test_registry_names(self):
        assert set(CLASS_SERIES) == {"total-chern", "todd", "l-class"}
        for builder in CLASS_SERIES.values():
            assert builder(5).constant_term == 1


def log_derivative(f):
    """x f'/f of a list of Fractions with f[0] = 1, by the recurrence
    j l_j = j f_j - sum_{0<i<j} f_i (j-i) l_(j-i)."""
    out = [Fraction(0)] * len(f)
    for j in range(1, len(f)):
        out[j] = j * f[j] - sum(f[i] * out[j - i] for i in range(1, j))
    return out


class TestClosedForms:
    """The Bernoulli table builds the named series and their log-derivatives
    x f'/f in closed form; both must equal what division gives."""

    ORACLES = {
        "total-chern": lambda order: [Fraction(1), Fraction(1)] + [Fraction(0)] * (order - 1),
        "todd": oracle_todd,
        "l-class": oracle_l_class,
    }

    def test_named_series_match_long_division_to_order_40(self):
        assert [Fraction(c) for c in todd_series(40).coeffs] == oracle_todd(40)
        assert [Fraction(c) for c in l_class_series(40).coeffs] == oracle_l_class(40)
        assert [Fraction(c) for c in tanh_series(41).coeffs] == oracle_tanh(41)

    def test_class_logs_are_the_log_derivatives_to_order_40(self):
        for name, oracle in self.ORACLES.items():
            expected = log_derivative(oracle(40))
            assert [Fraction(c) for c in class_log(name, 40).coeffs] == expected
            for order in range(41):
                f = CLASS_SERIES[name](order)
                dlog = Series.over([j * x for j, x in enumerate(f.nums)], f.den) * f.reciprocal()
                assert class_log(name, order) == dlog == Series(expected[: order + 1])

    def test_closed_forms(self):
        assert class_log("total-chern", 4).coeffs == (0, 1, -1, 1, -1)
        assert class_log("todd", 4).coeffs == (0, Fraction(1, 2), Fraction(-1, 12), 0, Fraction(1, 720))
        assert class_log("l-class", 4).coeffs == (0, 0, Fraction(2, 3), 0, Fraction(-14, 45))
        with pytest.raises(ValueError, match="unknown class"):
            class_log("a-hat", 4)

    def test_the_table_builds_no_fraction(self):
        def build():
            return [class_log(name, 40) for name in CLASS_SERIES] + [
                todd_series(40), l_class_series(40), tanh_series(40)]

        _, built = TestFractionsOnlyAtTheEnd.built_during(build)
        assert built == []


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

    @pytest.mark.parametrize("mult", [-3, -1, 1, 2, 5])
    def test_trivial_lines_leave_it_unchanged(self, mult):
        # a zero weight, or one on a variable truncated at 1, has root 0
        ring = Ring(3, [4, 3, 1])
        V = SplitBundle(ring, [((1, 0, 0), 2), ((-1, 1, 0), -1), ((0, 1, 1), 1)])
        trivial = SplitBundle(ring, [((0, 0, 0), mult), ((0, 0, 2), mult + 7)])
        named = [build(ring.top_degree) for build in CLASS_SERIES.values()]
        for f in [*named, Series([1, 2, -1, 3])]:
            assert mult_class(f, trivial) == ring.one()
            assert mult_class(f, V + trivial) == mult_class(f, trivial + V) == mult_class(f, V)

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
        assert chern_character(V) == ring.one() + u + u**2 * Fraction(1, 2)

    def test_virtual_difference(self):
        ring = Ring(1, [4])
        u = ring.variable(0)
        V = SplitBundle(ring, [((0,), 1), ((1,), -1)])
        expected = -u - u**2 * Fraction(1, 2) - u**3 * Fraction(1, 6)
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
            flipped = QuotientModel(m.ring, opposite(m.root_data), m.tangent_bundle)
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


class TestFractionsOnlyAtTheEnd:
    """The product route keeps integer numerators throughout: the only
    `Fraction` it builds is the value it returns."""

    @staticmethod
    def built_during(call):
        """The result of call() and the arguments of every `Fraction` built
        while it ran."""
        original, built = Fraction.__dict__["__new__"], []

        def spy(cls, *args, **kwargs):
            built.append(args)
            return original.__func__(cls, *args, **kwargs)

        Fraction.__new__ = spy
        try:
            return call(), built
        finally:
            Fraction.__new__ = original

    def test_two_term_index_builds_only_its_value(self):
        # G(3,6), orbifold prefactor 2, the U(2)xU(1) block on u1, u2
        m = grassmannian_model(3, 6)
        rd = m.root_data
        block = Subgroup((rd.roots[0], rd.roots[2]), 2)
        rel = QuotientModel(m.ring, rd, m.tangent_bundle, 2, subgroup=block).relative()
        V = SplitBundle(rel.ring, [((1, 0, -1), 1)])
        value, built = self.built_during(lambda: index_group_two_term(rel, V))
        assert len(built) == 1
        assert value == index_group(rel, V)

    def test_point_sums_build_only_their_value(self):
        # the L-class on G(3,9) over its orbits, and the Todd index of
        # L(0,1,2) on G(3,6) over all points, twisted by L(0,1,2) det E
        m = grassmannian_model(3, 9)
        roots = m.root_data.roots
        V = m.tangent_bundle + SplitBundle(m.ring, [(w, -1) for w in roots])
        args = (m, m.root_data.blocks, roots, l_class_series(m.quotient_dim), V)
        value, built = self.built_during(lambda: integrate_points(*args))
        assert len(built) == 1
        assert value == dense_integrate_points(*args)
        assert m.prefactor() * value == signature(m) == 4
        m = grassmannian_model(3, 6)
        positive = m.root_data.positive
        E = SplitBundle(m.ring, [(w, 1) for w in positive])
        lift = SplitBundle(m.ring, [((0, 1, 2), 1)])
        V = m.tangent_bundle + SplitBundle(m.ring, [(w, -1) for w in positive])
        negated = [tuple(-x for x in w) for w in positive]
        td = todd_series(m.ring.top_degree - len(negated))
        args = (m, (), negated, td, V, lift.tensor(exterior_power(E, E.rank)))
        value, built = self.built_during(lambda: integrate_points(*args))
        assert len(built) == 1
        assert value == dense_integrate_points(*args) == index_group(m, lift) == 70

    def test_inverse_builds_none(self):
        ring = grassmannian_model(3, 7).ring
        total_chern = ring.one()
        for u in ring.gens():
            total_chern = total_chern * (ring.one() + u)
        inverse, built = self.built_during(total_chern.inverse)
        assert built == []
        assert inverse * total_chern == ring.one()


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


# -- the fixed-point route against the product route ------------------------


def product_characteristic_number(m, f):
    """f(tangent) * prod over roots of x/f(x), expanded and integrated."""
    g = root_factor_series(f, m.ring.top_degree)
    roots = [eval_series(g, root_euler_class(m.ring, w)) for w in m.root_data.roots]
    return m.prefactor() * integrate_torus(m, mult_class(f, m.tangent_bundle), *roots)


def product_index(m, V):
    """ch(V) * Td(tangent) * prod over positive roots of (1 - exp(root)),
    expanded and integrated."""
    E = SplitBundle(m.ring, [(w, 1) for w in m.root_data.positive])
    td = mult_class(todd_series(m.ring.top_degree), m.tangent_bundle)
    return integrate_torus(m, chern_character(V), td, lambda_alternating_ch(E))


def symmetric_generating_sets(k):
    """Generating sets of S_k as 0-based permutations: adjacent
    transpositions, transpositions with 0, and (0 1) with a k-cycle."""

    def swap(i, j):
        g = list(range(k))
        g[i], g[j] = g[j], g[i]
        return tuple(g)

    cycle = tuple(list(range(1, k)) + [0])
    return [
        [swap(i, i + 1) for i in range(k - 1)],
        [swap(0, j) for j in range(1, k)],
        [swap(0, 1), cycle] if k > 2 else [swap(i, i + 1) for i in range(k - 1)],
    ]


@st.composite
def grassmannian_presentations(draw):
    """G(k,n) as a config would present it: shuffled and split tangent
    summands, any generating set of S_k for the roots, either positivity and
    an orbifold prefactor.  The action is a generating set of S_k, none, or
    a 3-cycle alone: the point sums read the roots' blocks, not the action."""
    k, n = draw(st.sampled_from([(k, n) for k in (1, 2, 3) for n in range(k, 8)] + [(4, 6)]))
    ring = Ring(k, [n] * k)
    summands = [((0,) * k, -k)]
    for i in range(k):
        cut = draw(st.integers(0, n))
        summands += [(tuple(int(i == j) for j in range(k)), part) for part in (cut, n - cut)]
    unitary = unitary_roots(k)
    roots = RootData(
        k, unitary.roots, unitary.positive, draw(st.sampled_from(symmetric_generating_sets(k))),
        unitary.weyl_order,
    )
    if draw(st.booleans()):
        roots = opposite(roots)
    actions = [*symmetric_generating_sets(k), []]
    if k >= 3:
        actions.append([(1, 2, 0, *range(3, k))])
    return QuotientModel(
        ring,
        roots,
        SplitBundle(ring, draw(st.permutations(summands))),
        draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=4)),
        draw(st.sampled_from(actions)),
    )


class TestPointRoute:
    @settings(max_examples=40, deadline=None)
    @given(
        grassmannian_presentations(),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=8),
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 3).filter(bool)), min_size=1, max_size=2
        ),
    )
    @example(grassmannian_model(4, 6), [Fraction(1, 2), Fraction(-2, 3), 3], [(1, 2), (-1, -1)])
    def test_points_equal_products(self, m, coeffs, lines):
        # uniform twists d,...,d with any multiplicity are Weyl-invariant, so
        # every model and twist drawn here sums over Weyl orbits
        f = Series([1, *coeffs]).truncated(m.ring.top_degree)
        V = SplitBundle(m.ring, [((d,) * m.ring.k, mult) for d, mult in lines])
        assert m.root_data.blocks is not None and m.root_data.moved(V.multiplicities()) is None
        assert characteristic_number(m, f) == product_characteristic_number(m, f)
        assert index_group(m, V) == product_index(m, V)


def dense_integrate_points(m, blocks, roots, f, V, twist=None):
    """`integrate_points` by the Fraction recurrence for j l_j and the exp
    recurrence over every j, as first written; a reference for the integer
    recurrence that skips the zero l_j."""
    N = m.ring.top_degree - len(roots)
    f = f.truncated(N).coeffs
    dlog = [0] * (N + 1)
    for j in range(1, N + 1):
        dlog[j] = j * f[j] - sum(f[i] * dlog[j - i] for i in range(1, j))
    scaled = [Fraction(factorial(j - 1) * x) for j, x in enumerate(dlog) if j]
    c = lcm(*(x.denominator for x in scaled))
    H = [0] + [int(x * c**j) for j, x in enumerate(scaled, 1)]

    def power_sums(bundle, t):
        return [sum(k * sum(map(mul, w, t)) ** j for w, k in bundle.summands) for j in range(N + 1)]

    pts, den = per_point_weights(m, all_points(m.ring, blocks, roots), roots)
    total = 0
    for t, w in pts:
        G = [h * p for h, p in zip(H, power_sums(V, t))]
        K = [1]
        for n in range(1, N + 1):
            K.append(sum(comb(n - 1, j - 1) * G[j] * K[n - j] for j in range(1, n + 1)))
        ch = power_sums(twist, t) if twist is not None else [1]
        total += w * sum(comb(N, j) * c**j * x * K[N - j] for j, x in enumerate(ch))
    return Fraction(total, den * factorial(N) * c**N)


def exp_times(a, even):
    """exp(a x) * (1 + sum_i even[i] x^(2i + 2)): log f is a x plus even
    terms, as Todd's is; with no even terms, a x alone."""
    spread = [1] + [0] * (2 * len(even))
    spread[2::2] = even

    def series(order):
        exp_ax = Series([a**j / factorial(j) for j in range(order + 1)])
        return exp_ax * Series(spread).truncated(order)

    return series


@st.composite
def point_series(draw):
    """A named class series or a custom one with constant term 1; a custom
    g(x^s) has log with l_j = 0 off the multiples of s, and exp(a x) g(x^2)
    has a linear log term besides its even ones."""
    kind = draw(st.sampled_from([*CLASS_SERIES, "custom", "exp"]))
    if kind in CLASS_SERIES:
        return CLASS_SERIES[kind]
    values = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    if kind == "exp":
        return exp_times(draw(values.filter(bool)), draw(st.lists(values, max_size=3)))
    step = draw(st.integers(1, 3))
    coeffs = draw(st.lists(values, max_size=6))
    spread = [0] * (step * len(coeffs) + 1)
    spread[0] = 1
    spread[step::step] = coeffs
    return lambda order: Series(spread).truncated(order)


def torus_config(truncations):
    """A config with no roots on prod P^(n_i - 1), the Euler-sequence
    tangent bundle and unequal truncations allowed."""
    k = len(truncations)
    unit = [[str(int(i == j)) for j in range(k)] for i in range(k)]
    return model_from_config({
        "schema": "1",
        "ring": {"variables": str(k), "truncations": [str(n) for n in truncations]},
        "roots": {"weights": [], "positive": [], "weyl_generators": [], "weyl_order": "1"},
        "tangent_bundle": [
            *({"weight": w, "multiplicity": str(n)} for w, n in zip(unit, truncations)),
            {"weight": "0", "multiplicity": str(-k)},
        ],
    })


POINT_MODELS = [
    *(grassmannian_model(k, n) for k, n in [(1, 4), (1, 7), (2, 4), (2, 5), (3, 5), (3, 6), (2, 3)]),
    grassmannian_model(2, 2),  # N = 0
    grassmannian_model(3, 3),
    torus_config([3, 4, 2]),
    torus_config([4, 1, 3]),
]


@st.composite
def point_cases(draw):
    """A model, where its points come from, a twist of up to three lines
    or none, and a weight w added to V with -w at another multiplicity, or
    none.  Zero weights and negative multiplicities may be drawn; a twist
    need not be Weyl-invariant, as both kernels sum over the same points."""
    m = draw(st.sampled_from(POINT_MODELS))
    weight = st.tuples(*[st.integers(-2, 2)] * m.ring.k)
    mult = st.integers(-2, 3).filter(bool)
    where = draw(st.sampled_from(["orbits", "all", "torus"]))
    twist = draw(st.none() | st.lists(st.tuples(weight, mult), min_size=1, max_size=3))
    pair = draw(st.none() | st.tuples(weight.filter(any), mult, mult).filter(lambda c: c[1] != c[2]))
    return m, where, twist, pair


class TestIntegratePoints:
    @settings(max_examples=80, deadline=None)
    @given(point_cases(), point_series())
    @example(
        (grassmannian_model(3, 6), "orbits", None, None),
        lambda order: Series([1, 0, Fraction(1, 2)]).truncated(order),
    )
    @example((grassmannian_model(2, 5), "all", [((1, 1), 2)], None), todd_series)
    @example((grassmannian_model(2, 2), "orbits", [((0, 0), -2), ((1, -1), 3)], None), todd_series)
    @example((grassmannian_model(3, 3), "all", None, None), total_chern_series)
    @example((grassmannian_model(2, 4), "all", None, ((1, -2), 3, -1)), l_class_series)
    @example((grassmannian_model(3, 5), "orbits", [((0, 0, 0), 1)], None), exp_times(Fraction(3, 2), []))
    @example(
        (grassmannian_model(2, 5), "orbits", [((2, 2), -1), ((0, 0), 2)], ((1, 0), 2, 5)),
        exp_times(Fraction(-1, 3), [2, 0, Fraction(-1, 5)]),
    )
    @example(
        (torus_config([3, 4, 2]), "all", [((1, 0, -1), 1), ((0, 0, 0), -1)], ((1, 2, 0), 1, 3)),
        todd_series,
    )
    def test_matches_the_dense_recurrence(self, case, series):
        m, where, lines, pair = case
        roots = () if where == "torus" else m.root_data.roots
        blocks = m.root_data.blocks if where == "orbits" else None
        V = m.tangent_bundle + SplitBundle(m.ring, [(w, -1) for w in roots])
        if pair is not None:
            w, a, b = pair
            V = V + SplitBundle(m.ring, [(w, a), (tuple(-x for x in w), b)])
        twist = None if lines is None else SplitBundle(m.ring, lines)
        f = series(m.ring.top_degree)
        got = integrate_points(m, blocks, roots, f, V, twist)
        assert got == dense_integrate_points(m, blocks, roots, f, V, twist)


@st.composite
def refused_models(draw):
    """Models whose point sums run over all points, or whose index does for
    some twists: the relative model of a U(2)xU(1) block of U(3), whose
    complement roots form no blocks; or a G(k,n) for a twist the Weyl group
    does not fix, whose index runs over stabilizer orbits.  (Roots that form
    no blocks are refused by the config, generators outside W and U(2) roots
    on variables of unequal truncations by the model.)"""
    if draw(st.booleans()):
        m = grassmannian_model(3, draw(st.integers(3, 5)))
        alone = draw(st.integers(0, 2))  # the variable of the U(1) factor
        block = [w for w in m.root_data.roots if w[alone] == 0]
        sub = Subgroup(block, 2)
        return QuotientModel(m.ring, m.root_data, m.tangent_bundle, subgroup=sub).relative()
    k, n = draw(st.sampled_from([(2, 4), (2, 5), (2, 6), (3, 5)]))
    return grassmannian_model(k, n)


class TestAllPoints:
    @settings(max_examples=40, deadline=None)
    @given(
        refused_models(),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=6),
        st.lists(
            st.tuples(
                st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                st.integers(-2, 3).filter(bool),
            ),
            min_size=1,
            max_size=2,
        ),
    )
    @example(grassmannian_model(2, 4), [], [([1, 2, 0, 0], 1)])
    def test_all_points_equal_products(self, m, coeffs, lines):
        k = m.ring.k
        V, rd = SplitBundle(m.ring, [(w[:k], mult) for w, mult in lines]), m.root_data
        assume(rd.blocks is None or rd.moved(V.multiplicities()) is not None)
        f = Series([1, *coeffs]).truncated(m.ring.top_degree)
        if rd.blocks is None:
            assert characteristic_number(m, f) == product_characteristic_number(m, f)
        index = index_group(m, V)
        assert index == product_index(m, V)
        assert index_group_two_term(m, V) == index
        assert index_torus(m, V) == integrate_torus(
            m, chern_character(V), mult_class(todd_series(m.ring.top_degree), m.tangent_bundle)
        )


def block_model(truncations, blocks):
    """prod U(|b|) on prod P^(n_i - 1) with the Euler-sequence tangent."""
    k = len(truncations)
    ring = Ring(k, truncations)
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    tangent = SplitBundle(ring, [*zip(unit, truncations), ((0,) * k, -k)])
    return QuotientModel(ring, RootData.from_blocks(k, blocks), tangent)


def relative_model(k, n, alone):
    """The model of U(k-1)xU(1) in U(k) on G(k,n), U(1) on the variable alone."""
    m = grassmannian_model(k, n)
    block = Subgroup(tuple(w for w in m.root_data.roots if w[alone] == 0), factorial(k - 1))
    return QuotientModel(m.ring, m.root_data, m.tangent_bundle, 2, subgroup=block).relative()


STABILIZER_MODELS = [
    grassmannian_model(2, 4),
    grassmannian_model(3, 5),
    relative_model(3, 4, 2),
    relative_model(3, 5, 0),
    relative_model(4, 5, 3),
    block_model([3, 3, 3, 3], ((0, 1), (2, 3))),
    block_model([4, 4, 2], ((0, 1), (2,))),
    torus_config([3, 3, 3]),
    torus_config([3, 1, 1, 3]),
    torus_config([4, 1, 3]),
]


@st.composite
def stabilizer_cases(draw):
    """A block or relative model and a twist of up to three lines, with
    multiplicities up to 3 and below 0, made invariant under a swap of two
    variables or not, or a uniform line: each shape gives a stabilizer of
    its own size, from trivial to all variables of one truncation."""
    m = draw(st.sampled_from(STABILIZER_MODELS))
    k = m.ring.k
    mult = st.integers(-2, 3).filter(bool)
    lines = draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * k), mult), min_size=1, max_size=3))
    shape = draw(st.sampled_from(["plain", "swap", "uniform"]))
    if shape == "swap":
        i, j = draw(st.permutations(range(k)))[:2]
        swap = [j if x == i else i if x == j else x for x in range(k)]
        lines += [(tuple(w[x] for x in swap), c) for w, c in lines]
    elif shape == "uniform":
        lines = [((draw(st.integers(-2, 2)),) * k, draw(mult))]
    return m, lines


def unfolded(ring, blocks, points):
    """Each point of prod P^(n_i - 1) as often as the orbit representatives
    stand for it: the permutations inside each block of every representative
    and of its mirror, whose number must be its count."""
    seen = Counter()
    for a, count in points.items():
        orbit = {a}
        for b in blocks:
            orbit = {tuple(dict(zip(b, p)).get(i, x) for i, x in enumerate(c))
                     for c in orbit for p in permutations([c[i] for i in b])}
        orbit |= {tuple(n - 1 - x for x, n in zip(c, ring.truncations)) for c in orbit}
        assert count == len(orbit)
        seen.update(orbit)
    return seen


class TestStabilizerOrbits:
    """The all-points index sums one point per orbit of the Young subgroup
    that fixes its integrand; by symmetry that is the sum over every point."""

    @settings(max_examples=60, deadline=None)
    @given(stabilizer_cases())
    @example((relative_model(3, 6, 2), [((1, 1, 1), 2)]))
    @example((torus_config([3, 3, 3]), [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2)]))
    @example((torus_config([3, 1, 1, 3]), [((1, 0, 0, 1), 1)]))
    def test_orbit_sum_equals_the_plain_sum(self, case):
        m, lines = case
        lift = SplitBundle(m.ring, lines)
        positive = m.root_data.positive
        E = SplitBundle(m.ring, [(w, 1) for w in positive])
        negated = [tuple(-x for x in w) for w in positive]
        V = m.tangent_bundle + SplitBundle(m.ring, [(w, -1) for w in positive])
        twist = lift.tensor(exterior_power(E, E.rank))
        weights = (dict.fromkeys(negated, 1), V.multiplicities(), twist.multiplicities())
        blocks = stabilizer_blocks(m.ring.truncations, *weights)
        orbits, plain = all_points(m.ring, blocks), all_points(m.ring)
        everywhere = Counter(product(*map(range, m.ring.truncations)))
        assert unfolded(m.ring, blocks, orbits) == unfolded(m.ring, (), plain) == everywhere
        td = todd_series(m.ring.top_degree - len(negated))
        value = integrate_points(m, blocks, negated, td, V, twist)
        assert value == integrate_points(m, (), negated, td, V, twist)
        rd = m.root_data
        if rd.blocks is None or rd.moved(lift.multiplicities()) is not None:
            assert index_group(m, lift) == value

    def test_blocks(self):
        unit = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        assert stabilizer_blocks((3, 3, 3), unit) == ((0, 1, 2),)
        assert stabilizer_blocks((3, 3, 4), unit) == ((0, 1), (2,))
        assert stabilizer_blocks((3, 3, 3), unit, {(1, 2, 0): 1}) == ((0,), (1,), (2,))
        assert stabilizer_blocks((3, 3, 3), unit, {(1, 2, 2): 1, (2, 1, 2): 1}) == ((0, 1), (2,))
        # (0 2) and (1 2) each fix the multisets; together they generate S_3
        assert stabilizer_blocks((2, 2, 2), {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}) == ((0, 1, 2),)
        assert stabilizer_blocks((5,)) == ((0,),)

    def test_repeats_count_each_orbit(self):
        ring = Ring(3, [3, 3, 2])
        points = all_points(ring, ((0, 1), (2,)))
        assert points[(0, 0, 0)] == 2 and points[(0, 1, 0)] == 4 and points[(1, 1, 0)] == 2
        assert sum(points.values()) == 18

    def test_strictness_follows_the_roots(self):
        # equal entries along a block that a root c(e_j - e_i) joins are
        # zeros of e and dropped; roots of any other shape, or joining
        # variables of two blocks, drop nothing
        ring, blocks = Ring(3, [3, 3, 2]), ((0, 1), (2,))
        points = all_points(ring, blocks)
        distinct = {a: c for a, c in points.items() if a[0] != a[1]}
        for roots in ([(-1, 1, 0), (1, -1, 0)], [(2, -2, 0)], [(0, 1, -1), (1, 1, 0)]):
            expected = distinct if roots[0][2] == 0 else points
            assert all_points(ring, blocks, roots) == expected
        m = grassmannian_model(3, 5)
        rd = m.root_data
        strict = all_points(m.ring, rd.blocks, rd.roots)
        assert all(a[0] < a[1] < a[2] for a in strict) and sum(strict.values()) == 60
        # over every point, `point_weights` drops the same zeros of e
        args = (rd.roots, l_class_series(m.quotient_dim), m.tangent_bundle)
        assert integrate_points(m, rd.blocks, *args) == integrate_points(m, None, *args)


def gl_weyl_dimension(lam):
    """Dimension of the GL_n irreducible of highest weight lam, by the Weyl
    dimension formula."""
    n, num, den = len(lam), 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return Fraction(num, den)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Every loaded `abelianize` module that binds `exponent_orbit` gets a spy
    in its place that raises: the one routine that could list W's elements,
    as the orbit of the identity, is left to the invariant bases."""

    def refuse(*args, **kwargs):
        raise AssertionError("an orbit was enumerated")

    bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "abelianize"]
    bound = [m for m in bound if hasattr(m, "exponent_orbit")]
    assert ratpoly in bound and presentation in bound
    for module in bound:
        monkeypatch.setattr(module, "exponent_orbit", refuse)


class TestNoGroupEnumeration:
    def test_large_grassmannians_enumerate_no_group(self, no_enumeration):
        # |W| = 9! = 362880: the point sums must read the roots, not enumerate W
        g910, g911 = grassmannian_model(9, 10), grassmannian_model(9, 11)
        assert euler_characteristic(g910) == 10
        assert characteristic_number(g911, todd_series(g911.quotient_dim)) == 1
        for m, d in [(g910, 2), (g911, 1), (g911, -1)]:
            V = SplitBundle(m.ring, [((d,) * 9, 1)])
            expected = gl_weyl_dimension([d] * 9 + [0] * (m.ring.truncations[0] - 9))
            assert index_group(m, V) == expected

    def test_models_are_built_without_enumerating(self, no_enumeration, capsys):
        # |W| = prod |b|! is read off the roots' blocks and each generator is
        # checked to lie within them, so building a model lists no orbit
        k = 9
        doc = {
            "schema": "1",
            "ring": {"variables": str(k), "truncations": ["10"] * k},
            "roots": f"unitary:{k}",
            "tangent_bundle": [
                *({"weight": [str(int(i == j)) for j in range(k)], "multiplicity": "10"}
                  for i in range(k)),
                {"weight": "0", "multiplicity": str(-k)},
            ],
        }
        assert euler_characteristic(grassmannian_model(8, 9)) == 9
        assert euler_characteristic(model_from_config(doc)) == 10
        # explicit roots with a transposition and a 9-cycle as generators
        doc["roots"] = model_to_config(grassmannian_model(k, 10))["roots"]
        doc["roots"]["weyl_generators"] = [
            ["2", "1", *map(str, range(3, k + 1))],
            [*map(str, range(2, k + 1)), "1"],
        ]
        assert euler_characteristic(model_from_config(doc)) == 10
        assert cli.main(["euler", "--grassmannian", "8", "9"]) == 0
        assert capsys.readouterr().out == "9\n"

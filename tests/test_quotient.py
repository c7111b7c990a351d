"""Tests for quotient models and the integration formulas."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from abelianize.ratpoly import Poly, Ring, elementary_symmetric, permute_poly
from abelianize.rootdata import RootData, Subgroup, e_product, unitary_roots
from abelianize.quotient import (
    QuotientModel,
    SplitBundle,
    chern_pairing,
    grassmannian_model,
    integrate_group,
    integrate_torus,
)
from abelianize.schubert import oracle_chern_pairing
from abelianize.presentation import ann_e_basis, invariant_basis
from abelianize.cli import pairing_degree_vectors


class TestSplitBundle:
    def test_rank_and_sum(self):
        ring = Ring(2, [4, 4])
        V = SplitBundle(ring, [((1, 0), 3), ((0, 1), -1), ((0, 0), 2)])
        assert V.rank == 4
        negated = SplitBundle(ring, [((1, 0), -3), ((0, 1), 1), ((0, 0), -2)])
        assert (V + negated).rank == 0

    def test_tensor_adds_roots(self):
        ring = Ring(2, [4, 4])
        a = SplitBundle(ring, [((1, 0), 1)])
        b = SplitBundle(ring, [((0, 1), 2)])
        assert a.tensor(b).summands == (((1, 1), 2),)
        c = SplitBundle(ring, [((2, -1), 1), ((0, 0), -3)])
        assert a.tensor(c).summands == (((3, -1), 1), ((1, 0), -3))
        assert (a + b).tensor(c).summands == (
            ((3, -1), 1),
            ((1, 0), -3),
            ((2, 0), 2),
            ((0, 1), -6),
        )

    def test_weights_are_kept_as_tuples(self):
        ring = Ring(2, [4, 4])
        V = SplitBundle(ring, [([1, -2], 1), ((0, 0), 0)])
        assert V.summands == (((1, -2), 1),)

    def test_weight_entries_on_vanishing_variables_are_dropped(self):
        # u1 = 0 when its truncation is 1, so (2, 3) and (0, 3) are one line
        ring = Ring(2, [1, 4])
        V = SplitBundle(ring, [((2, 3), 1), ((5, 0), -1)])
        assert V.summands == (((0, 3), 1), ((0, 0), -1))
        assert V == SplitBundle(ring, [((0, 3), 1), ((0, 0), -1)])
        assert grassmannian_model(1, 1).tangent_bundle.summands == (((0,), 1), ((0,), -1))

    def test_rejects_malformed_weights(self):
        ring = Ring(2, [4, 4])
        with pytest.raises(ValueError, match="length 2"):
            SplitBundle(ring, [((1,), 1)])
        with pytest.raises(ValueError, match="length 2"):
            SplitBundle(ring, [((1, 0, 0), 1)])
        with pytest.raises(ValueError, match="integer vector"):
            SplitBundle(ring, [((1, Fraction(1, 2)), 1)])
        with pytest.raises(ValueError, match="integer vector"):
            SplitBundle(ring, [((1.0, 0), 1)])
        with pytest.raises(ValueError, match="multiplicity"):
            SplitBundle(ring, [((1, 0), Fraction(1))])


class TestGrassmannianModel:
    def test_shape(self):
        m = grassmannian_model(2, 4)
        assert m.ring == Ring(2, [4, 4])
        assert m.root_data.weyl_order == 2
        assert m.ring.top_exponents == (3, 3)
        assert m.quotient_dim == 4
        assert m.tangent_bundle.summands == (((1, 0), 4), ((0, 1), 4), ((0, 0), -2))

    def test_abelian_case(self):
        m = grassmannian_model(1, 5)
        assert m.root_data.roots == ()
        assert m.e_class() == m.ring.one()

    def test_tangent_total_chern_via_euler_sequence(self):
        # Euler-sequence oracle: the top Chern coefficient of (1+u)^n on the
        # projective-space model integrates to its Euler characteristic n
        from abelianize.charclass import mult_class, total_chern_series

        m = grassmannian_model(1, 4)
        c = mult_class(total_chern_series(m.ring.top_degree), m.tangent_bundle)
        u = m.ring.variable(0)
        assert c == (m.ring.one() + u) ** 4
        assert integrate_torus(m, c) == 4

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            grassmannian_model(0, 4)
        with pytest.raises(ValueError):
            grassmannian_model(5, 4)

    def test_tangent_rank_must_match_dimension(self):
        ring = Ring(2, [4, 4])
        bad = SplitBundle(ring, [((1, 0), 4)])
        with pytest.raises(ValueError, match="rank"):
            QuotientModel(ring, unitary_roots(2), bad)

    def test_unequal_truncations_need_compatible_action(self):
        ring = Ring(2, [3, 5])
        tangent = SplitBundle(ring, [((1, 0), 3), ((0, 1), 5), ((0, 0), -2)])
        with pytest.raises(ValueError, match="truncation"):
            QuotientModel(ring, unitary_roots(2), tangent)


class TestIntegrateTorus:
    def test_top_monomial_is_one(self):
        m = grassmannian_model(2, 4)
        assert integrate_torus(m, m.ring.monomial((3, 3))) == 1

    def test_non_top_vanishes(self):
        m = grassmannian_model(2, 4)
        assert integrate_torus(m, m.ring.monomial((2, 3))) == 0

    def test_multinomial(self):
        m = grassmannian_model(2, 4)
        u1, u2 = m.ring.gens()
        assert integrate_torus(m, (u1 + u2) ** 6) == comb(6, 3)

    def test_ring_mismatch(self):
        m = grassmannian_model(2, 4)
        with pytest.raises(ValueError):
            integrate_torus(m, Ring(2, [5, 5]).one())


def torus_model(ring: Ring) -> QuotientModel:
    """A model with no roots over the ring: only its top monomial matters."""
    tangent = SplitBundle(ring, [((0,) * ring.k, ring.top_degree)])
    return QuotientModel(ring, RootData(ring.k, [], []), tangent)


def naive_product(p: Poly, q: Poly) -> Poly:
    """Schoolbook product; the constructor drops the truncated terms."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Poly(p.ring, out)


@st.composite
def ring_and_factors(draw, min_factors=1, max_factors=4):
    k = draw(st.integers(1, 3))
    ring = Ring(k, draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    exps = st.tuples(*(st.integers(0, n - 1) for n in ring.truncations))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    poly = st.dictionaries(exps, coeffs, max_size=6).map(lambda t: Poly(ring, t))
    no_constant = poly.map(lambda p: p - p.constant_term())
    factors = st.lists(st.one_of(poly, no_constant), min_size=min_factors, max_size=max_factors)
    return ring, draw(factors)


R24 = Ring(2, [4, 4])
U1, U2 = R24.gens()


class TestIntegrateTorusFactors:
    @settings(deadline=None)
    @given(ring_and_factors())
    @example((R24, [U1**3, R24.zero(), U2**3]))
    @example((R24, [5 * U1**3 * U2**3]))
    @example((R24, [U1 + U2, (U1 + U2) ** 3, U1**2]))
    @example((R24, [R24.one() + U1, U1**2 * U2**3]))
    def test_factors_integrate_like_their_product(self, case):
        ring, factors = case
        m = torus_model(ring)
        product = ring.one()
        for f in factors:
            product = naive_product(product, f)
        expected = product.coefficient(ring.top_exponents)
        assert integrate_torus(m, *factors) == expected
        full = factors[0]
        for f in factors[1:]:
            full = full * f
        assert integrate_torus(m, full) == expected

    @settings(deadline=None)
    @given(ring_and_factors(min_factors=2, max_factors=2), st.integers(-1, 10))
    def test_product_upto_is_the_product_cut_at_the_degree(self, case, degree):
        _, (p, q) = case
        full = naive_product(p, q)
        assert p * q == full
        cut = Poly(p.ring, {e: c for e, c in full.terms.items() if sum(e) <= degree})
        assert p.product_upto(q, degree) == cut


class TestIntegrateGroup:
    def test_plucker_degree(self):
        m = grassmannian_model(2, 4)
        s1 = elementary_symmetric(m.ring, 1)
        assert integrate_group(m, s1**4) == 2

    def test_second_chern_square(self):
        m = grassmannian_model(2, 4)
        s2 = elementary_symmetric(m.ring, 2)
        assert integrate_group(m, s2**2) == 1

    def test_abelian_degeneration(self):
        m = grassmannian_model(1, 6)
        u = m.ring.variable(0)
        for d in range(6):
            assert integrate_group(m, u**d) == integrate_torus(m, u**d)

    def test_weyl_moves_do_not_change_integrals(self):
        m = grassmannian_model(3, 5)
        lift = elementary_symmetric(m.ring, 1) ** 2 * m.ring.variable(0) ** 2
        for g in m.weyl_action:
            assert integrate_group(m, permute_poly(lift, g)) == integrate_group(m, lift)

    def test_orbifold_prefactor_scales(self):
        base = grassmannian_model(2, 4)
        scaled = QuotientModel(
            base.ring, base.root_data, base.tangent_bundle, Fraction(3, 7)
        )
        s1 = elementary_symmetric(base.ring, 1)
        assert integrate_group(scaled, s1**4) == Fraction(3, 7) * 2

    def test_perturbing_by_annihilator_elements(self):
        for k, n in [(2, 4), (2, 5)]:
            m = grassmannian_model(k, n)
            lift = elementary_symmetric(m.ring, 1) ** (k * (n - k))
            base = integrate_group(m, lift)
            for d in range(m.quotient_dim + 1):
                for z in ann_e_basis(m, invariant_basis(m, d)):
                    assert integrate_group(m, lift + z) == base


def _with_subgroup(m, sub, prefactor=1):
    return QuotientModel(m.ring, m.root_data, m.tangent_bundle, prefactor, subgroup=sub)


class TestSubgroupVariant:
    def test_torus_subgroup_reduces_to_group_formula(self):
        m = grassmannian_model(2, 4)
        trivial = _with_subgroup(m, Subgroup((), 1)).relative()
        s1 = elementary_symmetric(m.ring, 1)
        for lift in [s1**4, s1**2, m.ring.one()]:
            assert integrate_group(trivial, lift) == integrate_group(m, lift)

    def test_whole_group_subgroup_is_identity(self):
        m = grassmannian_model(2, 4)
        whole = _with_subgroup(m, Subgroup(m.root_data.roots, m.root_data.weyl_order)).relative()
        assert whole.e_class() == m.ring.one()
        p = m.ring.monomial((3, 3))
        assert integrate_group(whole, p) == integrate_torus(m, p)

    def test_malformed_subgroup_rejected(self):
        m = grassmannian_model(2, 4)
        with pytest.raises(ValueError, match="contained"):
            _with_subgroup(m, Subgroup(((3, 3),), 1))
        with pytest.raises(ValueError, match="divide"):
            _with_subgroup(m, Subgroup(m.root_data.roots, 3))

    def test_relative_model(self):
        # U(2)xU(1) in U(3) on G(3,6), orbifold prefactor 2
        m = grassmannian_model(3, 6)
        block = tuple(w for w in m.root_data.roots if w[2] == 0)
        rel = _with_subgroup(m, Subgroup(block, 2), prefactor=2).relative()
        assert rel.ring == m.ring and rel.tangent_bundle == m.tangent_bundle
        assert rel.root_data.roots == tuple(w for w in m.root_data.roots if w not in block)
        assert rel.root_data.positive == tuple(w for w in m.root_data.positive if w not in block)
        assert (rel.root_data.weyl_generators, rel.root_data.weyl_order) == ((), 1)
        assert rel.weyl_action == m.weyl_action
        assert rel.subgroup is None
        assert rel.prefactor() == 2 * Fraction(2, 6)
        assert rel.quotient_dim == m.quotient_dim + len(block)
        assert rel.e_class() * e_product(m.ring, block) == m.e_class()

    def test_relative_needs_a_subgroup(self):
        with pytest.raises(ValueError, match="no subgroup"):
            grassmannian_model(2, 4).relative()


class TestChernPairing:
    def test_headline_values(self):
        m = grassmannian_model(2, 4)
        assert chern_pairing(m, (4, 0)) == 2
        assert chern_pairing(m, (2, 1)) == 1
        assert chern_pairing(m, (0, 2)) == 1

    def test_degree_filter(self):
        m = grassmannian_model(2, 4)
        assert chern_pairing(m, (1, 0)) == 0
        assert chern_pairing(m, (3, 1)) == 0

    def test_arity(self):
        m = grassmannian_model(2, 4)
        with pytest.raises(ValueError):
            chern_pairing(m, (4,))

    def test_agrees_with_integrate_group(self):
        # same number through two assemblies of the formula
        for k, n in [(1, 4), (2, 4), (2, 5), (3, 5)]:
            m = grassmannian_model(k, n)
            for exps in pairing_degree_vectors(k, k * (n - k)):
                lift = m.ring.one()
                for i, mi in enumerate(exps, start=1):
                    lift = lift * elementary_symmetric(m.ring, i) ** mi
                assert chern_pairing(m, exps) == integrate_group(m, lift)

    def test_agrees_with_oracle_sample(self):
        for k, n in [(2, 5), (3, 6)]:
            m = grassmannian_model(k, n)
            for exps in pairing_degree_vectors(k, k * (n - k)):
                assert chern_pairing(m, exps) == oracle_chern_pairing(k, n, exps)


class TestRootBundle:
    def test_positive_bundle_roots(self):
        m = grassmannian_model(2, 4)
        E = SplitBundle(m.ring, [(w, 1) for w in m.root_data.positive])
        assert E.summands == (((-1, 1), 1),)

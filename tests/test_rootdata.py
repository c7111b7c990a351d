"""Tests for root data, Weyl stability, and root-class products."""

from math import factorial

import pytest

from abelianize.quotient import QuotientModel, grassmannian_model
from abelianize.ratpoly import Ring, permute_poly
from abelianize.rootdata import (
    RootData,
    Subgroup,
    e_product,
    root_euler_class,
    unitary_roots,
)


class TestUnitaryRoots:
    def test_torus_case(self):
        rd = unitary_roots(1)
        assert rd.roots == ()
        assert rd.weyl_order == 1

    def test_rank_two(self):
        rd = unitary_roots(2)
        assert set(rd.roots) == {(-1, 1), (1, -1)}
        assert rd.positive == ((-1, 1),)
        assert rd.weyl_order == 2

    def test_counts(self):
        for k in range(1, 6):
            rd = unitary_roots(k)
            assert len(rd.roots) == k * (k - 1)
            assert rd.weyl_order == factorial(k)
            assert len(rd.positive) == k * (k - 1) // 2

    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            unitary_roots(0)


class TestRootDataValidation:
    def test_weyl_order_checked_by_enumeration(self):
        with pytest.raises(ValueError, match="weyl_order"):
            RootData(2, [(-1, 1), (1, -1)], [(-1, 1)], [(1, 0)], 3)

    def test_root_set_stability(self):
        # the swap sends (-2,1) to (1,-2), which is not a declared root
        with pytest.raises(ValueError, match="stable"):
            RootData(2, [(-1, 1), (1, -1), (-2, 1), (2, -1)], [(-1, 1), (-2, 1)], [(1, 0)], 2)

    def test_positivity_must_split(self):
        with pytest.raises(ValueError):
            RootData(2, [(-1, 1), (1, -1)], [], [], 1)
        with pytest.raises(ValueError):
            RootData(2, [(-1, 1), (1, -1)], [(-1, 1), (1, -1)], [], 1)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            RootData(2, [(0, 0), (1, -1), (-1, 1)], [(1, -1)], [], 1)

    def test_matrix_generator_stability(self):
        # the negation matrix stabilizes a plus/minus pair
        neg = ((-1, 0), (0, -1))
        rd = RootData(2, [(1, 0), (-1, 0)], [(1, 0)], [neg], 2)
        assert rd.weyl_generators == (neg,)
        # the shear sends (1,0) to (1,1), which is not a declared root
        with pytest.raises(ValueError, match="stable"):
            RootData(2, [(1, 0), (-1, 0)], [(1, 0)], [((1, 0), (1, 1))], 2)

    def test_opposite_swaps_positivity(self):
        rd = unitary_roots(3)
        opp = rd.opposite()
        assert set(opp.positive) == set(rd.negative)
        assert opp.opposite() == rd


class TestRootEulerClass:
    def test_examples(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        assert root_euler_class(ring, (-1, 1)) == u2 - u1
        assert root_euler_class(ring, (0, 0)).is_zero()

    def test_linearity_scaling(self):
        ring = Ring(3, [3, 3, 3])
        u1, _, _ = ring.gens()
        assert root_euler_class(ring, (2, 0, 0)) == 2 * u1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            root_euler_class(Ring(2, [4, 4]), (1, 0, 0))


class TestEProduct:
    def test_empty_product(self):
        ring = Ring(1, [4])
        assert e_product(ring, unitary_roots(1).roots) == ring.one()

    def test_rank_two_products(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        rd = unitary_roots(2)
        assert e_product(ring, rd.roots) == -((u1 - u2) ** 2)
        assert e_product(ring, rd.positive) == u2 - u1
        assert e_product(ring, rd.negative) == u1 - u2

    def test_positive_times_negative_is_all(self):
        for k in (2, 3):
            ring = Ring(k, [k + 2] * k)
            rd = unitary_roots(k)
            assert e_product(ring, rd.positive) * e_product(ring, rd.negative) == e_product(
                ring, rd.roots
            )

    def test_weyl_invariance(self):
        for k in (2, 3, 4):
            ring = Ring(k, [2 * k] * k)
            rd = unitary_roots(k)
            e = e_product(ring, rd.roots)
            for g in rd.weyl_generators:
                assert permute_poly(e, g) == e

    def test_vandermonde_square_identity(self):
        # product over all roots = (-1)^(k(k-1)/2) * (prod_{i<j}(u_i-u_j))^2
        for k in (2, 3, 4):
            ring = Ring(k, [2 * k] * k)
            gens = ring.gens()
            vandermonde = ring.one()
            for i in range(k):
                for j in range(i + 1, k):
                    vandermonde = vandermonde * (gens[i] - gens[j])
            sign = (-1) ** (k * (k - 1) // 2)
            assert e_product(ring, unitary_roots(k).roots) == sign * vandermonde**2

    def test_complement_selection(self):
        m = grassmannian_model(3, 4)
        rd = m.root_data
        sub = Subgroup((rd.roots[0], tuple(-x for x in rd.roots[0])), 2)
        chosen = QuotientModel(m.ring, rd, m.tangent_bundle, subgroup=sub).relative().e_class()
        assert chosen == e_product(m.ring, [w for w in rd.roots if w not in sub.roots])
        assert {sum(e) for e in chosen.terms} == {4}
        assert chosen * e_product(m.ring, sub.roots) == m.e_class()

    def test_complement_containment_enforced(self):
        m = grassmannian_model(2, 4)
        foreign = Subgroup(((5, -5),), 1)
        with pytest.raises(ValueError, match="contained"):
            QuotientModel(m.ring, m.root_data, m.tangent_bundle, subgroup=foreign)

"""Tests for root data, Weyl stability, and root-class products."""

from itertools import permutations
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from abelianize.quotient import QuotientModel, grassmannian_model
from abelianize.ratpoly import Ring
from abelianize.rootdata import (
    RootData,
    Subgroup,
    e_product,
    reflection_blocks,
    root_euler_class,
    unitary_roots,
)
from references import negative, opposite, permute_poly

#: U(2) x U(2)'s roots: the blocks {0, 1} and {2, 3}.
U2XU2 = [(-1, 1, 0, 0), (1, -1, 0, 0), (0, 0, -1, 1), (0, 0, 1, -1)]


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

    @pytest.mark.parametrize(
        "blocks, order", [(((0, 1), (2, 3)), 4), (((0, 2), (1,)), 2), (((0,), (1, 2, 3), (4, 5)), 12)]
    )
    def test_from_blocks_equals_the_validated_construction(self, blocks, order):
        rank = sum(map(len, blocks))
        fast = RootData.from_blocks(rank, blocks)
        pairs = {(i, j) for b in blocks for i in b for j in b if i != j}
        assert {(w.index(-1), w.index(1)) for w in fast.roots} == pairs
        assert all(w.index(-1) < w.index(1) for w in fast.positive)
        checked = RootData(rank, fast.roots, fast.positive, fast.weyl_generators, fast.weyl_order)
        assert fast == checked
        assert (fast.blocks, fast.generators) == (checked.blocks, checked.generators)
        assert fast.weyl_order == order


class TestRootDataValidation:
    def test_weyl_order_checked_against_the_generated_group(self):
        # |W| = prod |b|! is read off the roots' blocks, with no enumeration
        with pytest.raises(ValueError, match="weyl_order 3 does not match .* of order 2$"):
            RootData(2, [(-1, 1), (1, -1)], [(-1, 1)], [(1, 0)], 3)
        assert RootData(4, U2XU2, U2XU2[::2], [], 4).blocks == ((0, 1), (2, 3))
        with pytest.raises(ValueError, match="weyl_order 8 does not match .* of order 4$"):
            RootData(4, U2XU2, U2XU2[::2], [], 8)
        # a generator that swaps two blocks is no product of the roots'
        # reflections, whatever order is declared; it is named 1-based
        for order in (4, 8):
            with pytest.raises(ValueError, match=r"generator \[3, 4, 1, 2\] is not in the group"):
                RootData(4, U2XU2, U2XU2[::2], [(2, 3, 0, 1)], order)

    def test_root_set_stability(self):
        # one root on each pair of the block {0, 1, 2}, but 2(e2 - e1) with
        # e1 - e0: the swap (0 1) sends it to 2(e2 - e0), which is not a root,
        # so every block carries one multiple c
        mixed = [(-1, 1, 0), (1, -1, 0), (0, -2, 2), (0, 2, -2), (-1, 0, 1), (1, 0, -1)]
        assert reflection_blocks(mixed, 3) == ((0, 1, 2),)
        with pytest.raises(ValueError, match=r"stable under generator \[2, 1, 3\]"):
            RootData(3, mixed, mixed[::2], [], 6)
        u3 = unitary_roots(3)
        tripled = [tuple(3 * x for x in w) for w in u3.roots]
        positive = [tuple(3 * x for x in w) for w in u3.positive]
        assert RootData(3, tripled, positive, [(1, 2, 0)], 6).blocks == ((0, 1, 2),)

    def test_reflection_blocks(self):
        # roots c(e_j - e_i), one per ordered pair, on every pair of each block
        assert reflection_blocks(U2XU2, 4) == ((0, 1), (2, 3))
        assert reflection_blocks([(-2, 2), (2, -2)], 2) == ((0, 1),)
        assert reflection_blocks([], 3) == ((0,), (1,), (2,))
        for roots in (
            [(-1, 1, 0), (1, -1, 0), (0, -1, 1), (0, 1, -1)],  # no root on the pair (0, 2)
            [(-1, 1), (1, -1), (-2, 2), (2, -2)],  # two multiples on one pair
            [(-1, 2), (1, -2)],  # not a multiple of e_j - e_i
            [(1, 0), (-1, 0)],
        ):
            assert reflection_blocks(roots, len(roots[0])) is None

    def test_positivity_must_split(self):
        with pytest.raises(ValueError):
            RootData(2, [(-1, 1), (1, -1)], [], [], 1)
        with pytest.raises(ValueError):
            RootData(2, [(-1, 1), (1, -1)], [(-1, 1), (1, -1)], [], 1)

    def test_positive_roots_must_order_each_block(self):
        # each of the six orders of U(3)'s variables loads, with e_j - e_i
        # positive where i comes first; the two cycles and a duplicate do not
        roots = unitary_roots(3).roots
        for order in permutations(range(3)):
            positive = [w for w in roots if order.index(w.index(-1)) < order.index(w.index(1))]
            assert RootData(3, roots, positive, [], 6).blocks == ((0, 1, 2),)
        for cycle in ([(-1, 1, 0), (0, -1, 1), (1, 0, -1)], [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]):
            with pytest.raises(ValueError, match=r"must order the block \[1, 2, 3\]"):
                RootData(3, roots, cycle, [], 6)
        with pytest.raises(ValueError, match="duplicate positive roots"):
            RootData(2, [(-1, 1), (1, -1)], [(-1, 1), (-1, 1)], [], 2)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            RootData(2, [(0, 0), (1, -1), (-1, 1)], [(1, -1)], [], 1)

    def test_non_permutation_generator_refused(self):
        # W permutes the variables, so the negation matrix is no generator
        neg = ((-1, 0), (0, -1))
        with pytest.raises(ValueError, match="not a permutation"):
            RootData(2, [(1, 0), (-1, 0)], [(1, 0)], [neg], 2)
        with pytest.raises(ValueError, match="not a permutation"):
            RootData(2, [(-1, 1), (1, -1)], [(-1, 1)], [(1, 1)], 2)

    def test_generators_are_the_transpositions_inside_the_blocks(self):
        # a 3-cycle within U(3)'s block adds nothing to its transpositions
        u3 = unitary_roots(3)
        rd = RootData(3, u3.roots, u3.positive, [(1, 0, 2), (1, 2, 0)], 6)
        assert rd.generators == ((1, 0, 2), (0, 2, 1))
        assert RootData(4, U2XU2, U2XU2[::2], [(1, 0, 2, 3)], 4).generators == (
            (1, 0, 2, 3),
            (0, 1, 3, 2),
        )
        assert RootData(2, [], []).generators == ()

    def test_membership(self):
        # U(2) x U(2): W permutes within the blocks, so neither the swap of
        # the blocks nor the transposition (0 2) lies in it
        levi = RootData(4, U2XU2, U2XU2[::2], [], 4)
        for g, inside in [
            ((0, 1, 2, 3), True),
            ((1, 0, 3, 2), True),
            ((2, 3, 0, 1), False),
            ((3, 2, 1, 0), False),
            ((2, 1, 0, 3), False),
        ]:
            assert (g in levi) == inside
        # scaled roots are reflected by the same transposition
        assert (1, 0) in RootData(2, [(-2, 2), (2, -2)], [(-2, 2)], [], 2)
        # roots that form no blocks, as a relative model's complement: W is trivial
        chain = [(-1, 1, 0), (1, -1, 0), (0, -1, 1), (0, 1, -1)]
        trivial = RootData(3, chain, chain[::2])
        assert trivial.blocks is None and trivial.generators == ()
        assert (0, 1, 2) in trivial and (1, 0, 2) not in trivial
        with pytest.raises(ValueError, match=r"generator \[2, 1, 3\] is not in the group"):
            RootData(3, chain, chain[::2], [(1, 0, 2)], 1)

    def test_generators_are_built_once(self):
        rd = unitary_roots(3)
        assert rd.generators is rd.generators
        assert not hasattr(rd, "group") and not hasattr(rd, "transpositions")

    def test_opposite_swaps_positivity(self):
        rd = unitary_roots(3)
        opp = opposite(rd)
        assert set(opp.positive) == set(negative(rd))
        assert opposite(opp) == rd


class TestMoved:
    """`RootData.moved`: a generator of W that moves a multiset of weights."""

    def test_truncations(self):
        # the truncations are a weight W must fix: U(2) swaps u1 and u2
        rd = unitary_roots(2)
        assert rd.moved({(4, 4): 1}) is None
        assert rd.moved({(3, 4): 1}) == (1, 0)
        assert RootData(2, [], []).moved({(3, 4): 1}) is None

    def test_tangent(self):
        # G(2,4)'s tangent summands are W-invariant; one copy of u2 too few is not
        m = grassmannian_model(2, 4)
        assert m.root_data.moved(m.tangent_bundle.multiplicities()) is None
        lopsided = {(1, 0): 4, (0, 1): 3, (0, 0): -1}
        assert m.root_data.moved(lopsided) == (1, 0)

    def test_twist(self):
        # a line of weight (1, 1, 1) is invariant, (2, 1, 0) is moved by the
        # first transposition and (1, 1, 0) by the second; multiplicities count
        rd = unitary_roots(3)
        assert rd.moved({(1, 1, 1): 1}) is None
        assert rd.moved({(2, 1, 0): 1}) == (1, 0, 2)
        assert rd.moved({(1, 1, 0): 1}) == (0, 2, 1)
        assert rd.moved({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}) is None
        assert rd.moved({(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 1): 1}) == (1, 0, 2)
        assert rd.moved({}) is None

    def test_block_swap(self):
        # U(2)xU(2): (1, 1, 2, 2) is fixed by the blocks' transpositions; the
        # swap of the blocks is no element of W, so it moves nothing
        levi = RootData(4, U2XU2, U2XU2[::2], [], 4)
        assert levi.generators == ((1, 0, 2, 3), (0, 1, 3, 2))
        assert levi.moved({(1, 1, 2, 2): 1}) is None
        assert levi.moved({(1, 0, 0, 0): 1}) == (1, 0, 2, 3)
        assert levi.moved({(0, 0, 1, 2): 1}) == (0, 1, 3, 2)
        # the root set itself is fixed, as the construction checked
        assert levi.moved(dict.fromkeys(U2XU2, 1)) is None


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


@st.composite
def e_cases(draw):
    """A ring and a weight list with zero entries, variables truncated at 1
    and repeated weights."""
    k = draw(st.integers(1, 4))
    ring = Ring(k, draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    weights = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), max_size=6))
    return ring, draw(st.permutations(weights + weights[: len(weights) // 2]))


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
        assert e_product(ring, negative(rd)) == u1 - u2

    def test_positive_times_negative_is_all(self):
        for k in (2, 3):
            ring = Ring(k, [k + 2] * k)
            rd = unitary_roots(k)
            assert e_product(ring, rd.positive) * e_product(ring, negative(rd)) == e_product(
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

    @settings(max_examples=80, deadline=None)
    @given(e_cases())
    @example((Ring(2, [4, 1]), []))
    @example((Ring(3, [3, 1, 3]), [(1, 2, 0), (0, 5, 0), (1, 2, 0), (0, 0, 0)]))
    def test_equals_the_product_of_root_classes(self, case):
        ring, weights = case
        product = ring.one()
        for w in weights:
            product = product * root_euler_class(ring, w)
        e = e_product(ring, weights)
        assert (e.nums, e.den) == (product.nums, product.den)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weight length 3"):
            e_product(Ring(2, [4, 4]), [(1, -1), (1, 0, 0)])

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

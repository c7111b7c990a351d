"""Tests for the truncated polynomial engine."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from abelianize.ratpoly import (
    Poly,
    Ring,
    Series,
    check_permutation,
    clear_denominators,
    elementary_symmetric,
    eval_series,
    exp_series,
    exponent_orbit,
    parse_poly,
    permute_exponents,
    render_poly,
    _Codes,
    _product_packed,
    _product_pairs,
)
from references import inverse as inverse_reference, parse_poly as parse_poly_reference
from references import permute_poly, product_pairs as product_pairs_reference


def random_poly(rng, ring, max_terms=6, max_coeff=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(n) for n in ring.truncations)
        num = rng.randint(-max_coeff, max_coeff)
        den = rng.randint(1, 4)
        terms[e] = terms.get(e, 0) + Fraction(num, den)
    return Poly(ring, terms)


class TestRing:
    def test_top_degree(self):
        assert Ring(2, [4, 4]).top_degree == 6
        assert Ring(1, [5]).top_degree == 4
        assert Ring(3, [2, 2, 2]).top_degree == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Ring(0, [])
        with pytest.raises(ValueError):
            Ring(2, [4, 0])
        with pytest.raises(ValueError):
            Ring(2, [4])

    def test_monomials_of_degree(self):
        ring = Ring(2, [3, 3])
        assert list(ring.monomials_of_degree(2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(ring.monomials_of_degree(4)) == [(2, 2)]
        assert list(ring.monomials_of_degree(5)) == []


class TestArithmetic:
    def test_truncation_kills_high_powers(self):
        ring = Ring(1, [4])
        u = ring.variable(0)
        assert (u**3 * u).is_zero()

    def test_square_of_sum(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        p = (u1 + u2) ** 2
        assert p == u1**2 + 2 * u1 * u2 + u2**2

    def test_product_of_opposite_roots(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        assert (u2 - u1) * (u1 - u2) == -(u1**2) + 2 * u1 * u2 - u2**2

    def test_zero_is_empty_map(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        assert (u1 - u1).terms == {}
        # sums and scalar multiples stay canonical: no zeros, integral values as int
        third = u1 * Fraction(1, 3) + u2 * Fraction(2, 3)
        assert (third - third).terms == {}
        for whole in (third + third * 2, third * 3, third * Fraction(3, 2) * 2):
            assert whole.terms == {(1, 0): 1, (0, 1): 2}
            assert all(type(c) is int for c in whole.terms.values())
        assert (-third).terms == {(1, 0): Fraction(-1, 3), (0, 1): Fraction(-2, 3)}

    def test_ring_mismatch_raises(self):
        a = Ring(2, [4, 4]).one()
        b = Ring(2, [3, 3]).one()
        with pytest.raises(ValueError):
            a * b

    def test_floats_rejected(self):
        ring = Ring(1, [3])
        with pytest.raises(TypeError):
            Poly(ring, {(1,): 0.5})

    def test_ring_axioms_on_random_polys(self):
        rng = random.Random(20240)
        ring = Ring(3, [3, 4, 2])
        for _ in range(40):
            a = random_poly(rng, ring)
            b = random_poly(rng, ring)
            c = random_poly(rng, ring)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_truncation_is_an_ideal(self):
        # multiplying in a larger ring and projecting equals multiplying in place
        rng = random.Random(5150)
        small = Ring(2, [3, 4])
        big = Ring(2, [6, 8])
        for _ in range(25):
            a = random_poly(rng, small)
            b = random_poly(rng, small)
            lifted = Poly(big, a.terms) * Poly(big, b.terms)
            assert Poly(small, lifted.terms) == a * b

    def test_inverse(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        p = ring.one() + u1 + 3 * u2 - u1 * u2
        assert p * p.inverse() == ring.one()
        with pytest.raises(ValueError):
            u1.inverse()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverse_is_the_geometric_series(self, data):
        k = data.draw(st.integers(1, 3))
        ring = Ring(k, data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
        exps = st.tuples(*(st.integers(0, n - 1) for n in ring.truncations))
        coeffs = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=7))
        p = Poly(ring, data.draw(st.dictionaries(exps, coeffs, max_size=12)))
        c = data.draw(st.one_of(st.integers(-4, 4), st.fractions(max_denominator=5)).filter(bool))
        p = p - p.constant_term() + c
        inv = p.inverse()
        assert p * inv == ring.one()
        # the reference: p = c (1 - q) with q nilpotent, so 1/p = (1/c) sum q^j
        q = ring.one() - p * (1 / Fraction(c))
        series, power = ring.one(), ring.one()
        for _ in range(ring.top_degree):
            power = power * q
            series = series + power
        assert inv == series * (1 / Fraction(c))
        assert all(type(x) is int or x.denominator != 1 for x in inv.terms.values())


@st.composite
def operands_and_degree(draw):
    k = draw(st.integers(1, 4))
    ring = Ring(k, draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)))
    exps = st.tuples(*(st.integers(0, n - 1) for n in ring.truncations))
    coeffs = st.one_of(
        st.integers(-(2**200), 2**200),
        st.integers(-3, 3),
        st.fractions(max_denominator=2**120),
    )
    poly = st.dictionaries(exps, coeffs, max_size=40).map(lambda t: Poly(ring, t))
    return draw(poly), draw(poly), draw(st.integers(-1, ring.top_degree))


def tight_dense(ring):
    """Every monomial of the ring with one coefficient M, chosen so that
    #monomials * M^2, the packed kernel's bound on a product slot, has a bit
    length divisible by 8: its top slot then needs every bit of the width."""
    monomials = [e for d in range(ring.top_degree + 1) for e in ring.monomials_of_degree(d)]
    m = isqrt(2**207 // len(monomials)) + 1
    return Poly(ring, dict.fromkeys(monomials, m))


def schoolbook_upto(p, q, degree):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) <= degree:
                out[e] = out.get(e, 0) + c1 * c2
    return Poly(p.ring, out).terms


def kernel_terms(kernel, p, q, degree):
    """A kernel's numerators over p.den * q.den, reduced to the canonical
    rational term map."""
    return Poly._reduced(p.ring, kernel(p, q, degree), p.den * q.den).terms


R1 = Ring(1, [6])
R22 = Ring(2, [3, 3])
R4 = Ring(4, [2, 3, 2, 2])
R444 = Ring(3, [4, 4, 4])
V1, V2, V3 = R444.gens()


class TestProductKernels:
    @settings(deadline=None)
    @given(operands_and_degree())
    @example((tight_dense(R1), tight_dense(R1), R1.top_degree))
    @example((tight_dense(R22), tight_dense(R22), R22.top_degree))
    @example((tight_dense(R4), tight_dense(R4), R4.top_degree))
    @example((R22.zero(), tight_dense(R22), R22.top_degree))
    @example((R22.constant(Fraction(-7, 3)), tight_dense(R22), 2))
    @example((R4.constant(5), R4.constant(2**200), 0))
    @example((R4.constant(5), R4.constant(2**200), -1))
    @example((R1.one() + R1.variable(0), R1.one() - R1.variable(0) / 3, 3))
    # u3, u1, u2 take positions 0, 1, 2: a 3-cycle, not its own inverse
    @example(((R444.one() + V1 + V2 / 2 + V3) ** 3, V1**2 + V2 - V3**3 / 5, 7))
    def test_packed_kernel_equals_pair_loop(self, case):
        p, q, degree = case
        pairs = kernel_terms(_product_pairs, p, q, degree)
        assert kernel_terms(_product_packed, p, q, degree) == pairs
        assert pairs == schoolbook_upto(p, q, degree)
        # canonical maps: integral coefficients are ints, so render is unchanged
        for kernel in (_product_pairs, _product_packed):
            for c in kernel_terms(kernel, p, q, degree).values():
                assert type(c) is int or c.denominator > 1

    def test_tight_dense_fills_the_slot_width(self):
        for ring in (R1, R22, R4):
            p = tight_dense(ring)
            bound = len(p.terms) * p.terms[(0,) * ring.k] ** 2
            assert bound.bit_length() % 8 == 0
            assert _product_packed(p, p, ring.top_degree)[ring.top_exponents] == bound

    def test_product_upto_on_either_side_of_the_loop_threshold(self):
        # the pair loop runs up to eight pairs per monomial of the box, the
        # packed kernel above; a constant operand scales the other
        ring = Ring(3, [5, 5, 5])

        def dense(top, coeff):
            terms = {e: coeff(d) for d in range(top + 1) for e in ring.monomials_of_degree(d)}
            return Poly(ring, terms)

        small = dense(2, lambda d: d - 3)
        large = dense(5, lambda d: Fraction(1, d + 2))
        box = prod(ring.truncations)
        assert len(small.terms) * len(large.terms) <= 8 * box < len(large.terms) ** 2
        constant = ring.constant(Fraction(-7, 3))
        for a, b in [(small, small), (small, large), (large, small), (large, large),
                     (constant, large), (large, constant), (constant, constant)]:
            for degree in (2, 7):
                assert a.product_upto(b, degree).terms == schoolbook_upto(a, b, degree)


@st.composite
def units(draw):
    """A polynomial with a nonzero constant term, often not 1 or -1, in a
    ring of up to four variables with unequal truncations, some at 1."""
    k = draw(st.integers(1, 4))
    ring = Ring(k, draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
    exps = st.tuples(*(st.integers(0, n - 1) for n in ring.truncations))
    coeffs = st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=2**40))
    p = Poly(ring, draw(st.dictionaries(exps, coeffs, max_size=16)))
    c = draw(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=9)).filter(bool))
    return p - p.constant_term() + c


class TestSlotCodes:
    @given(st.data())
    def test_code_difference_is_a_code_exactly_when_e_dominates_f(self, data):
        k = data.draw(st.integers(1, 4))
        truncs = tuple(data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
        box = st.tuples(*(st.integers(0, n - 1) for n in truncs))
        e, f = data.draw(box), data.draw(box)
        codes = _Codes(truncs)
        box_codes = {codes[x] for x in product(*map(range, truncs))}
        assert len(box_codes) == prod(truncs)
        difference = codes[e] - codes[f]
        assert (difference in box_codes) == all(a >= b for a, b in zip(e, f))
        if difference in box_codes:
            assert difference == codes[tuple(a - b for a, b in zip(e, f))]
        total = tuple(a + b for a, b in zip(e, f))
        inside = all(x < n for x, n in zip(total, truncs))
        assert codes[codes[e] + codes[f]] == (total if inside else None)

    @settings(deadline=None)
    @given(operands_and_degree())
    @example((R4.constant(Fraction(3, 2)), tight_dense(R4), R4.top_degree))
    @example((Ring(3, [1, 4, 2]).one(), Ring(3, [1, 4, 2]).variable(1) / 3, 3))
    def test_pair_loop_equals_the_tuple_reference(self, case):
        p, q, degree = case
        assert _product_pairs(p, q, degree) == product_pairs_reference(p, q, degree)

    @settings(deadline=None)
    @given(units())
    @example(Ring(3, [2, 1, 5]).constant(3) + Ring(3, [2, 1, 5]).variable(2) / 7)
    @example(R444.constant(Fraction(-2, 5)) + V1 * V2 - V3**2)
    def test_inverse_equals_the_tuple_reference(self, unit):
        inverse = unit.inverse()
        expected = inverse_reference(unit)
        assert (inverse.nums, inverse.den) == (expected.nums, expected.den)


@st.composite
def fraction_operands(draw):
    """Two polynomials whose coefficients share and mix denominators, small
    and large, and a degree to multiply up to."""
    k = draw(st.integers(1, 3))
    ring = Ring(k, draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
    exps = st.tuples(*(st.integers(0, n - 1) for n in ring.truncations))
    dens = st.sampled_from([1, 2, 3, 6, 7, 2**61 - 1, 3**40])
    coeffs = st.builds(Fraction, st.integers(-50, 50), dens)
    poly = st.dictionaries(exps, coeffs, max_size=20).map(lambda t: Poly(ring, t))
    return draw(poly), draw(poly), draw(st.integers(-1, ring.top_degree))


class TestClearedKernels:
    @given(st.lists(st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=2**64))))
    def test_clear_denominators(self, coeffs):
        den, nums = clear_denominators(coeffs)
        assert den == lcm(*(Fraction(c).denominator for c in coeffs))
        assert all(type(n) is int and Fraction(n, den) == c for n, c in zip(nums, coeffs))
        assert len(nums) == len(coeffs)

    @settings(deadline=None)
    @given(fraction_operands())
    @example((R22.constant(Fraction(1, 3)), R22.one() * Fraction(3, 2), 2))
    def test_pair_loop_equals_packed_kernel_on_fractions(self, case):
        p, q, degree = case
        pairs = kernel_terms(_product_pairs, p, q, degree)
        assert pairs == kernel_terms(_product_packed, p, q, degree) == schoolbook_upto(p, q, degree)
        assert all(type(c) is int or c.denominator > 1 for c in pairs.values())


# -- every Poly operation against plain Fraction dicts ------------------------


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b, truncs, degree):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= degree and all(x < n for x, n in zip(e, truncs)):
                out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_power(a, n, truncs):
    out = {(0,) * len(truncs): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a, truncs, sum(truncs))
    return out


def ref_inverse(a, truncs):
    """1/a = (1/c) sum_j q^j with a = c (1 - q), q nilpotent."""
    zero = (0,) * len(truncs)
    c = a[zero]
    q = ref_clean({e: -x / c for e, x in a.items() if e != zero})
    total, power = {zero: 1 / c}, {zero: 1 / c}
    for _ in range(sum(truncs)):
        power = ref_mul(power, q, truncs, sum(truncs))
        total = ref_add(total, power)
    return total


def ref_eval(coeffs, x, truncs):
    zero = (0,) * len(truncs)
    total, power = ref_clean({zero: coeffs[0]}), {zero: Fraction(1)}
    for c in coeffs[1:]:
        power = ref_mul(power, x, truncs, sum(truncs))
        total = ref_add(total, {e: c * v for e, v in power.items()})
    return total


def assert_canonical(p, expected):
    """p is in canonical form, equals the reference term map, and `==`
    agrees with `terms`."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert all(p.ring.valid_exponents(e) for e in p.nums)
    assert p.terms == expected
    assert all(type(c) is int or c.denominator > 1 for c in p.terms.values())
    assert {e: Fraction(c, p.den) for e, c in p.nums.items()} == expected
    q = Poly(p.ring, expected)
    assert p == q and p.terms == q.terms
    shifted = q + 1
    assert (p == shifted) == (p.terms == shifted.terms)


REF_COEFFS = st.one_of(
    st.integers(-4, 4),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 7, 2**61 - 1])),
)


@st.composite
def ref_ring_and_polys(draw):
    k = draw(st.integers(1, 3))
    ring = Ring(k, draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
    exps = st.tuples(*(st.integers(0, n - 1) for n in ring.truncations))
    terms = st.dictionaries(exps, REF_COEFFS, max_size=14)
    return ring, draw(terms), draw(terms)


class TestAgainstFractionDicts:
    @settings(max_examples=60, deadline=None)
    @given(ref_ring_and_polys(), REF_COEFFS.filter(bool), st.data())
    def test_every_operation_matches_the_reference(self, case, c, data):
        ring, a, b = case
        truncs = ring.truncations
        p, q = Poly(ring, a), Poly(ring, b)
        a, b = ref_clean(p.terms), ref_clean(q.terms)  # truncated and summed
        assert_canonical(p, a)
        assert_canonical(p + q, ref_add(a, b))
        assert_canonical(p - q, ref_add(a, {e: -x for e, x in b.items()}))
        assert_canonical(-p, ref_clean({e: -x for e, x in a.items()}))
        assert_canonical(p * c, ref_clean({e: x * c for e, x in a.items()}))
        assert_canonical(c * p, ref_clean({e: x * c for e, x in a.items()}))
        assert_canonical(p / c, ref_clean({e: x / c for e, x in a.items()}))
        assert_canonical(p * 0, {})
        degree = data.draw(st.integers(-1, ring.top_degree))
        expected = ref_mul(a, b, truncs, degree)
        assert_canonical(p.product_upto(q, degree), expected)
        for kernel in (_product_pairs, _product_packed):
            assert_canonical(Poly._reduced(ring, kernel(p, q, degree), p.den * q.den), expected)
        n = data.draw(st.integers(0, 4))
        assert_canonical(p**n, ref_power(a, n, truncs))
        zero = (0,) * ring.k
        unit = p - p.constant_term() + c
        assert_canonical(unit.inverse(), ref_inverse(ref_add(a, {zero: c - a.get(zero, 0)}), truncs))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.lists(REF_COEFFS, min_size=1, max_size=9))
    def test_eval_series_matches_the_reference(self, data, coeffs):
        k = data.draw(st.integers(1, 3))
        ring = Ring(k, data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
        # a linear form: zero, negative and rational weights, variables truncated at 1
        weights = data.draw(st.lists(REF_COEFFS, min_size=k, max_size=k))
        x = Poly(ring, {tuple(int(i == j) for j in range(k)): w for i, w in enumerate(weights)})
        f = Series(coeffs)
        assert_canonical(eval_series(f, x), ref_eval(f.coeffs, ref_clean(x.terms), ring.truncations))

    @pytest.mark.parametrize("weights", [(0, -2, 3), (1, 0, 0), (-1, 1, 5)])
    def test_eval_series_at_integer_roots_with_truncated_variables(self, weights):
        ring = Ring(3, [4, 1, 3])
        x = Poly(ring, {(1, 0, 0): weights[0], (0, 1, 0): weights[1], (0, 0, 1): weights[2]})
        f = exp_series(ring.top_degree)
        assert_canonical(eval_series(f, x), ref_eval(f.coeffs, ref_clean(x.terms), ring.truncations))


class TestCoefficients:
    def test_coefficient_examples(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        assert ((u1 + u2) ** 2).coefficient((1, 1)) == 2
        assert ring.zero().coefficient((1, 1)) == 0
        assert (-((u1 - u2) ** 2)).coefficient((2, 0)) == -1

    def test_invalid_monomial_raises(self):
        ring = Ring(2, [4, 4])
        with pytest.raises(ValueError):
            ring.one().coefficient((4, 0))
        with pytest.raises(ValueError):
            ring.one().coefficient((0,))

    def test_construction_round_trip(self):
        rng = random.Random(77)
        ring = Ring(3, [3, 3, 3])
        for _ in range(20):
            p = random_poly(rng, ring)
            for e, c in p.terms.items():
                assert p.coefficient(e) == c


class TestElementarySymmetric:
    def test_examples(self):
        r2 = Ring(2, [4, 4])
        u1, u2 = r2.gens()
        assert elementary_symmetric(r2, 1) == u1 + u2
        assert elementary_symmetric(r2, 2) == u1 * u2
        r3 = Ring(3, [3, 3, 3])
        v1, v2, v3 = r3.gens()
        assert elementary_symmetric(r3, 2) == v1 * v2 + v1 * v3 + v2 * v3
        assert elementary_symmetric(r3, 0) == r3.one()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric(Ring(2, [4, 4]), 3)

    def test_newton_identity_p2(self):
        ring = Ring(3, [4, 4, 4])
        u = ring.gens()
        p2 = sum((ui**2 for ui in u), ring.zero())
        s1 = elementary_symmetric(ring, 1)
        s2 = elementary_symmetric(ring, 2)
        assert p2 == s1**2 - 2 * s2


def orbit_sum(p, generators):
    """Symmetrize p as `invariant_basis` forms its orbit sums: each term puts
    its coefficient on every monomial of its `exponent_orbit`."""
    gens = [check_permutation(g, p.ring.k) for g in generators]
    out = {}
    for e, c in p.terms.items():
        for image in exponent_orbit(e, gens):
            out[image] = out.get(image, 0) + c
    return Poly(p.ring, out)


class TestSymmetrize:
    SWAP = [(1, 0)]

    def test_orbit_sum_examples(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        assert exponent_orbit((2, 0), self.SWAP) == {(2, 0), (0, 2)}
        assert exponent_orbit((1, 1), self.SWAP) == {(1, 1)}
        assert orbit_sum(u1**2, self.SWAP) == u1**2 + u2**2
        assert orbit_sum(u1 * u2, self.SWAP) == u1 * u2

    def test_orbit_sum_of_monomial_has_unit_coefficients(self):
        ring = Ring(3, [4, 4, 4])
        gens = [(1, 0, 2), (1, 2, 0)]
        group = closure_by_composition(gens, 3)
        assert len(group) == 6
        orbit = exponent_orbit((3, 1, 0), gens)
        assert orbit == {permute_exponents((3, 1, 0), g) for g in group}
        p = orbit_sum(ring.monomial((3, 1, 0)), gens)
        assert set(p.terms.values()) == {1}
        assert set(p.terms) == orbit
        assert len(p.terms) == 6  # distinct exponents, full orbit

    def test_orbit_sum_is_invariant(self):
        rng = random.Random(31)
        ring = Ring(3, [3, 3, 3])
        gens = [(1, 0, 2), (0, 2, 1)]
        for _ in range(15):
            q = orbit_sum(random_poly(rng, ring), gens)
            for g in gens:
                assert permute_poly(q, g) == q
            for e in q.terms:
                orbit = exponent_orbit(e, gens)
                assert all({permute_exponents(x, g) for x in orbit} == orbit for g in gens)

    def test_arity_mismatch(self):
        ring = Ring(3, [3, 3, 3])
        with pytest.raises(ValueError):
            check_permutation((1, 0), 3)
        with pytest.raises(ValueError):
            check_permutation((0, 0, 1), 3)
        with pytest.raises(ValueError):
            orbit_sum(ring.one(), [(1, 0)])


def closure_by_composition(gens, k):
    """The group the permutations generate, closed by composing 'apply g,
    then h' breadth first: the reference `exponent_orbit` is checked
    against."""
    identity = tuple(range(k))
    seen, frontier = {identity}, [identity]
    while frontier:
        composed = [tuple(h[g[i]] for i in range(k)) for g in frontier for h in gens]
        frontier = [p for p in dict.fromkeys(composed) if p not in seen]
        seen.update(frontier)
    return sorted(seen)


@st.composite
def permutation_sets(draw):
    k = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(k)).map(tuple), max_size=4))
    return k, gens, tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))


class TestPermutationGroup:
    @settings(max_examples=300, deadline=None)
    @given(permutation_sets())
    def test_matches_the_closure_by_composition(self, case):
        # the orbit is e moved by every element of the generated group; the
        # identity's orbit is the group itself
        k, gens, e = case
        group = closure_by_composition(gens, k)
        assert exponent_orbit(e, gens) == {permute_exponents(e, g) for g in group}
        assert sorted(exponent_orbit(tuple(range(k)), gens)) == group


SERIES_COEFFS = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(-(2**80), 2**80),
    st.fractions(max_denominator=2**64),
)
UNITS = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=2**40)).filter(bool)


def fraction_product(a, b):
    """The product of two coefficient lists to the shorter order, in Fractions."""
    order = min(len(a), len(b)) - 1
    return [sum(Fraction(a[i]) * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def fraction_reciprocal(f):
    """1/f to f's order by the Fraction recurrence g_n = -(1/f_0) sum_j f_j g_(n-j)."""
    g = [1 / Fraction(f[0])]
    for n in range(1, len(f)):
        g.append(-g[0] * sum(f[j] * g[n - j] for j in range(1, n + 1)))
    return g


def schoolbook_eval(f, x):
    """sum f_j x^j with every power formed by the schoolbook product."""
    top = x.ring.top_degree
    out = {(0,) * x.ring.k: Fraction(f.coeffs[0])}
    power = x.ring.one()
    for c in f.coeffs[1:]:
        power = Poly(x.ring, schoolbook_upto(power, x, top))
        for e, v in power.terms.items():
            out[e] = out.get(e, 0) + c * v
    return Poly(x.ring, out)


@st.composite
def linear_forms(draw):
    """A linear form sum c_i u_i, as a Chern root, with rational coefficients."""
    k = draw(st.integers(1, 3))
    ring = Ring(k, draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
    coeffs = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=2**40))
    weights = draw(st.lists(coeffs, min_size=k, max_size=k))
    return sum((u * c for u, c in zip(ring.gens(), weights)), ring.zero())


def canonical(coeffs):
    return all(type(c) is int or c.denominator > 1 for c in coeffs)


class TestSeriesKernels:
    @given(*[st.lists(SERIES_COEFFS, min_size=1, max_size=14)] * 2)
    @example([Fraction(3, 2), 0, 0, Fraction(1, 7)], [Fraction(2, 3), 0, Fraction(-1, 2**70), 0, 5])
    def test_product_matches_fractions(self, a, b):
        product = Series(a) * Series(b)
        assert product == Series(fraction_product(a, b))
        assert canonical(product.coeffs)

    @settings(deadline=None)
    @given(UNITS, st.lists(SERIES_COEFFS, max_size=16))
    @example(Fraction(3, 2), [0, 0, Fraction(1, 7), 0, Fraction(-5, 2**70), 0])
    @example(-2, [0, 1, 0, 0, 3])
    @example(Fraction(1, 6), [])
    def test_reciprocal_matches_fractions(self, f0, tail):
        f = Series([f0, *tail])
        g = f.reciprocal()
        assert g == Series(fraction_reciprocal(f.coeffs))
        assert canonical(g.coeffs)
        assert (f * g).coeffs == (1,) + (0,) * len(tail)

    @settings(deadline=None)
    @given(linear_forms(), st.lists(SERIES_COEFFS, min_size=1, max_size=16))
    @example(R22.variable(0) * 2 - R22.variable(1), [1, Fraction(1, 2), 0, Fraction(1, 6)])
    def test_eval_series_matches_schoolbook(self, x, coeffs):
        value = eval_series(Series(coeffs), x)
        assert value == schoolbook_eval(Series(coeffs), x)
        assert canonical(value.terms.values())


class TestSeries:
    def test_exp_series_values(self):
        e = exp_series(4)
        assert e.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))

    def test_eval_exp(self):
        ring = Ring(1, [3])
        u = ring.variable(0)
        assert eval_series(exp_series(2), u) == ring.one() + u + u**2 / 2

    def test_nonzero_constant_term_rejected(self):
        ring = Ring(1, [3])
        with pytest.raises(ValueError):
            eval_series(exp_series(2), ring.one())

    def test_non_linear_element_rejected(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        for x in (u1 * u2, u1 + u2**2, u1**3):
            with pytest.raises(ValueError, match="linear form"):
                eval_series(exp_series(ring.top_degree), x)

    def test_exp_turns_sums_into_products(self):
        rng = random.Random(8)
        ring = Ring(2, [4, 4])
        e = exp_series(ring.top_degree)
        u1, u2 = ring.gens()
        for _ in range(10):
            p, q, r, s = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            a, b = u1 * p + u2 * q, u1 * r + u2 * s
            assert eval_series(e, a + b) == eval_series(e, a) * eval_series(e, b)

    def test_reciprocal_identity(self):
        rng = random.Random(99)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(1, 5))] + [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)
            ]
            f = Series(coeffs)
            product = f * f.reciprocal()
            assert product.coeffs == (1,) + (0,) * 6

    def test_reciprocal_needs_unit(self):
        with pytest.raises(ValueError):
            Series([0, 1]).reciprocal()

    def test_truncated_pads_and_cuts(self):
        f = Series([1, 2])
        assert f.truncated(4).coeffs == (1, 2, 0, 0, 0)
        assert f.truncated(0).coeffs == (1,)


@st.composite
def parse_cases(draw):
    """A ring, polynomial text in its grammar (rational factors, repeated
    monomials, variables past their truncation, spaces), and a place and a
    character for a one-character mutation."""
    k = draw(st.integers(1, 3))
    ring = Ring(k, draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    rational = st.builds(
        lambda n, d: f"{n}/{d}" if d is not None else str(n),
        st.integers(0, 12), st.none() | st.integers(1, 8),
    )
    variable = st.builds(
        lambda i, p: f"u{i}^{p}" if p is not None else f"u{i}",
        st.integers(1, k), st.none() | st.integers(0, 5),
    )
    term = st.lists(rational | variable, min_size=1, max_size=4).map("*".join)
    signs = st.sampled_from(["+", "-", " + ", " - "])
    terms = draw(st.lists(st.tuples(signs, term), min_size=1, max_size=6))
    text = (draw(st.sampled_from(["", "-", "+", " "])) + terms[0][1]
            + "".join(sign + t for sign, t in terms[1:]))
    at = draw(st.integers(0, len(text)))
    return ring, text, at, draw(st.sampled_from(list("0123456789u^*/+- x") + [""]))


def parse_outcome(parse, ring, text):
    """The polynomial, or the error's type and message."""
    try:
        return parse(ring, text)
    except ValueError as err:
        return type(err), str(err)


class TestTextForm:
    def test_render_examples(self):
        ring = Ring(3, [4, 4, 4])
        u1, u2, u3 = ring.gens()
        p = -(u1**2) * u2 / 2 + 3 * u3
        assert render_poly(p) == "-1/2*u1^2*u2 + 3*u3"
        assert render_poly(ring.zero()) == "0"
        assert render_poly(ring.one() - u1) == "-u1 + 1"

    def test_parse_round_trip(self):
        rng = random.Random(1234)
        ring = Ring(3, [4, 3, 5])
        for _ in range(30):
            p = random_poly(rng, ring)
            assert parse_poly(ring, render_poly(p)) == p

    def test_parse_rejects_garbage(self):
        ring = Ring(2, [4, 4])
        for bad in ["", "u3", "u1^", "1 +", "u1 u2", "2//3", "1/0", "u1 - 3/00*u2"]:
            with pytest.raises(ValueError):
                parse_poly(ring, bad)
        located = r"at position 3 in '1/0\*u1\^2\*u2\^2': zero denominator"
        with pytest.raises(ValueError, match=located):
            parse_poly(ring, "1/0*u1^2*u2^2")

    @settings(max_examples=150, deadline=None)
    @given(parse_cases())
    @example((Ring(2, [3, 1]), "1/2*u1^2*u2 + 3*u1^3 - 2/4*u1 + 1/2*u1 - 0/7", 10, ""))
    @example((Ring(2, [3, 3]), "1/2*u1 - 3/4*u2", 2, "0"))
    def test_parse_equals_the_fraction_reference(self, case):
        ring, text, at, char = case
        for t in (text, text[:at] + char + text[at + 1 :], text[:at] + char + text[at:]):
            expected = parse_outcome(parse_poly_reference, ring, t)
            assert parse_outcome(parse_poly, ring, t) == expected

    def test_parse_accepts_spaces_and_signs(self):
        ring = Ring(2, [4, 4])
        u1, u2 = ring.gens()
        assert parse_poly(ring, " - u1 + 2*u2 - 3/2 ") == -u1 + 2 * u2 - Fraction(3, 2)

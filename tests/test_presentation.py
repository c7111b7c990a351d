"""Tests for invariant bases, the annihilator ideal, and the pairing."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from abelianize.config import model_from_config, model_to_config
from abelianize.quotient import QuotientModel, grassmannian_model, integrate_group
from abelianize.rootdata import Subgroup
from abelianize.charclass import euler_characteristic, signature
from abelianize.presentation import (
    ann_e_basis,
    charpoly,
    eigenvalue_signs,
    invariant_basis,
    matrix_rank,
    nullspace,
    pairing_matrix,
    poincare_polynomial,
    presentation_report,
    rref,
    signature_from_pairing,
)


def gaussian_binomial(n, k):
    """Coefficient list of the q-binomial [n choose k], by exact polynomial
    division of the product formula."""
    num = [1]
    for i in range(n - k + 1, n + 1):
        # multiply by (1 - q^i)
        out = num + [0] * i
        for j, c in enumerate(num):
            out[j + i] -= c
        num = out
    for i in list(range(1, k + 1)):
        # divide by (1 - q^i), exact
        quot = [0] * (len(num) - i)
        rem = list(num)
        for j in range(len(quot)):
            quot[j] = rem[j]
            rem[j + i] += rem[j]
            rem[j] = 0
        assert all(c == 0 for c in rem)
        num = quot
    return num


BIG = 2**100
ENTRIES = [
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
]


@st.composite
def rational_matrices(draw):
    """Up to 8x8 matrices of low rank: free rows and small integer
    combinations of them (zero and repeated rows among these), shuffled, with
    some columns zeroed."""
    ncols = draw(st.integers(0, 8))
    entry = draw(st.sampled_from(ENTRIES))
    free = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    rows = list(free)
    for _ in range(draw(st.integers(0, 8 - len(free)))):
        coeffs = [draw(st.integers(-2, 2)) for _ in free]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, free)), 0) for j in range(ncols)])
    rows = draw(st.permutations(rows))
    zeroed = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    return [[0 if j in zeroed else x for j, x in enumerate(row)] for row in rows]


# three free rows of 100-bit entries and their sum: rounding any quotient
# breaks the dependency
WIDE_FREE = [[pow(3, 70 + 4 * i + j, BIG) - BIG // 2 for j in range(4)] for i in range(3)]
WIDE_RANK_3 = WIDE_FREE + [[sum(column) for column in zip(*WIDE_FREE)]]


class TestLinearAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    @example(WIDE_RANK_3)
    @example([[0, 1], [1, 1], [1, 1]])
    def test_rank_matches_rref(self, rows):
        # sympy is the independent reference: rref and matrix_rank share one
        # elimination, so comparing them with each other would prove nothing
        reduced, pivots = rref(rows)
        if not rows or not rows[0]:
            assert (reduced, pivots) == ([[] for _ in rows], [])
            assert matrix_rank(rows) == 0
            return
        expected, expected_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(len(rows))
        ]
        assert matrix_rank(rows) == len(expected_pivots)

    def test_rank(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert matrix_rank(rows) == 1

    def test_nullspace(self):
        rows = [[Fraction(1), Fraction(1), Fraction(0)]]
        basis = nullspace(rows, 3)
        assert len(basis) == 2
        for v in basis:
            assert sum(a * b for a, b in zip(rows[0], v)) == 0

    def test_charpoly_of_diagonal(self):
        a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-3)]]
        # (x-2)(x+3) = x^2 + x - 6
        assert charpoly(a) == [Fraction(1), Fraction(1), Fraction(-6)]

    def test_eigenvalue_signs(self):
        a = [
            [Fraction(2), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0)],
        ]
        assert eigenvalue_signs(a) == (1, 1, 1)


class TestInvariantBasis:
    def test_degree_one(self):
        m = grassmannian_model(2, 4)
        u1, u2 = m.ring.gens()
        assert invariant_basis(m, 1) == [u1 + u2]

    def test_degree_two(self):
        m = grassmannian_model(2, 4)
        u1, u2 = m.ring.gens()
        assert invariant_basis(m, 2) == [u1**2 + u2**2, u1 * u2]

    def test_degree_five_capped_by_truncation(self):
        m = grassmannian_model(2, 4)
        u1, u2 = m.ring.gens()
        assert invariant_basis(m, 5) == [u1**3 * u2**2 + u1**2 * u2**3]

    def test_out_of_range(self):
        m = grassmannian_model(2, 4)
        with pytest.raises(ValueError):
            invariant_basis(m, 7)
        with pytest.raises(ValueError):
            invariant_basis(m, -1)

    def test_elements_are_invariant(self):
        from abelianize.ratpoly import permute_poly

        m = grassmannian_model(3, 5)
        for d in range(m.ring.top_degree + 1):
            for b in invariant_basis(m, d):
                for g in m.weyl_action:
                    assert permute_poly(b, g) == b


class TestAnnihilator:
    def test_trivial_in_low_degree(self):
        m = grassmannian_model(2, 4)
        assert ann_e_basis(m, invariant_basis(m, 1)) == []

    def test_degree_five_is_all_invariants(self):
        m = grassmannian_model(2, 4)
        assert len(ann_e_basis(m, invariant_basis(m, 5))) == 1

    def test_abelian_model_annihilates_nothing(self):
        m = grassmannian_model(1, 5)
        for d in range(5):
            assert ann_e_basis(m, invariant_basis(m, d)) == []

    def test_elements_kill_e(self):
        for k, n in [(2, 4), (2, 5), (3, 5)]:
            m = grassmannian_model(k, n)
            e = m.e_class()
            for d in range(m.quotient_dim + 1):
                for z in ann_e_basis(m, invariant_basis(m, d)):
                    assert (z * e).is_zero()

    def test_ideal_property(self):
        # products of annihilator elements with invariant generators stay in
        # the annihilator (membership certified by killing e)
        m = grassmannian_model(2, 5)
        e = m.e_class()
        for d in range(m.quotient_dim + 1):
            for z in ann_e_basis(m, invariant_basis(m, d)):
                for dd in range(1, 3):
                    for g in invariant_basis(m, dd):
                        assert ((z * g) * e).is_zero()

    def test_ann_pairs_to_zero_against_everything(self):
        m = grassmannian_model(2, 4)
        for d in range(m.quotient_dim + 1):
            for z in ann_e_basis(m, invariant_basis(m, d)):
                for dd in range(m.quotient_dim + 1 - d):
                    for b in invariant_basis(m, dd):
                        assert integrate_group(m, z * b) == 0


class TestPoincarePolynomial:
    def test_examples(self):
        assert poincare_polynomial(grassmannian_model(2, 4)) == [1, 1, 2, 1, 1]
        assert poincare_polynomial(grassmannian_model(1, 5)) == [1, 1, 1, 1, 1]
        assert poincare_polynomial(grassmannian_model(2, 5)) == [1, 1, 2, 2, 2, 1, 1]

    def test_gaussian_binomial_oracle(self):
        for k in range(1, 4):
            for n in range(k, 7):
                assert poincare_polynomial(grassmannian_model(k, n)) == gaussian_binomial(n, k)

    def test_total_is_euler_characteristic(self):
        for k, n in [(1, 4), (2, 4), (2, 5), (3, 6)]:
            m = grassmannian_model(k, n)
            assert sum(poincare_polynomial(m)) == euler_characteristic(m)


def _subgroup_configs():
    """G(3,6) with a U(2)xU(1) block and G(2,5) with the torus as subgroup,
    each as a config model."""
    u2u1 = model_to_config(grassmannian_model(3, 6))
    block = [i for i, w in enumerate(u2u1["roots"]["weights"]) if w[2] == "0"]
    u2u1["subgroup_roots"] = {"indices": [str(i) for i in block], "weyl_order": "2"}
    torus = model_to_config(grassmannian_model(2, 5))
    torus["subgroup_roots"] = {"indices": [], "weyl_order": "1"}
    return [model_from_config(doc) for doc in (u2u1, torus)]


class TestRankRoute:
    def test_betti_is_invariants_minus_ann(self):
        cases = [grassmannian_model(k, n) for k in range(1, 4) for n in range(k, 8)]
        for m in _subgroup_configs():
            cases += [m, m.relative()]
        for m in cases:
            diff = [
                len(invariant_basis(m, d)) - len(ann_e_basis(m, invariant_basis(m, d)))
                for d in range(m.quotient_dim + 1)
            ]
            while diff and diff[-1] == 0:
                diff.pop()
            assert poincare_polynomial(m) == diff


class TestPairingMatrix:
    def test_middle_degree_example(self):
        m = grassmannian_model(2, 4)
        assert pairing_matrix(m, invariant_basis(m, 2), invariant_basis(m, 2)) == [
            [Fraction(2), Fraction(-1)],
            [Fraction(-1), Fraction(1)],
        ]

    def test_corner_degrees(self):
        m = grassmannian_model(2, 4)
        top = pairing_matrix(m, invariant_basis(m, 0), invariant_basis(m, 4))
        assert len(top) == 1 and len(top[0]) == 2
        assert matrix_rank(top) == 1

    def test_projective_line(self):
        m = grassmannian_model(1, 2)
        assert pairing_matrix(m, invariant_basis(m, 0), invariant_basis(m, 1)) == [[Fraction(1)]]

    def test_rank_equals_betti(self):
        for k, n in [(2, 4), (2, 5), (3, 5)]:
            m = grassmannian_model(k, n)
            betti = poincare_polynomial(m)
            for d in range(m.quotient_dim + 1):
                top = m.quotient_dim
                inv, dual = invariant_basis(m, d), invariant_basis(m, top - d)
                assert matrix_rank(pairing_matrix(m, inv, dual)) == betti[d]


class TestSignatureCrossCheck:
    def test_grassmannian_2_4(self):
        assert signature_from_pairing(grassmannian_model(2, 4)) == 2

    def test_two_routes_agree(self):
        for k in range(1, 4):
            for n in range(k, 7):
                m = grassmannian_model(k, n)
                assert signature(m) == signature_from_pairing(m)


class TestSubgroupPath:
    def test_trivial_subgroup_reproduces_default_presentation(self):
        # roots of the torus subgroup are empty, so the complement is all of
        # them and the relative Weyl prefactor equals 1/|W|
        m = grassmannian_model(2, 4)
        sub = Subgroup((), 1)
        trivial = QuotientModel(m.ring, m.root_data, m.tangent_bundle, subgroup=sub).relative()
        assert poincare_polynomial(trivial) == poincare_polynomial(m)
        middle = invariant_basis(m, 2)
        assert pairing_matrix(trivial, middle, middle) == pairing_matrix(m, middle, middle)
        assert presentation_report(trivial).betti == presentation_report(m).betti


class TestReport:
    def test_g24_report(self):
        report = presentation_report(grassmannian_model(2, 4))
        assert report.betti == (1, 1, 2, 1, 1)
        assert report.total == 6
        for row in report.rows:
            assert row.pairing_rank == row.betti
            assert row.invariant_dim - row.ann_dim == row.betti

    def test_each_degree_is_built_once(self, monkeypatch):
        # one invariant basis and one b*e matrix per degree of G(3,6), 0..9
        import abelianize.presentation as presentation

        degrees = {"invariant_basis": [], "_times_e": []}

        def count(name, degree_of):
            original = getattr(presentation, name)

            def counted(*args):
                degrees[name].append(degree_of(args))
                return original(*args)

            monkeypatch.setattr(presentation, name, counted)

        count("invariant_basis", lambda args: args[1])
        count("_times_e", lambda args: sum(next(iter(args[0][0].terms))))
        presentation_report(grassmannian_model(3, 6))
        assert sorted(degrees["invariant_basis"]) == list(range(10))
        assert sorted(degrees["_times_e"]) == list(range(10))

    def test_projective_space_has_trivial_ann(self):
        report = presentation_report(grassmannian_model(1, 3))
        assert all(row.ann_dim == 0 for row in report.rows)

    def test_g25_betti_row(self):
        report = presentation_report(grassmannian_model(2, 5))
        assert report.betti == (1, 1, 2, 2, 2, 1, 1)

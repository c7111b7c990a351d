"""Tests for invariant bases, the annihilator ideal, and the pairing."""

from fractions import Fraction
from math import factorial, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from abelianize.config import model_from_config, model_to_config
from abelianize.quotient import (
    QuotientModel,
    SplitBundle,
    grassmannian_model,
    integrate_group,
    integrate_torus,
)
from abelianize.ratpoly import Ring
from abelianize.rootdata import RootData, Subgroup
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
from references import permute_poly


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
        matrix = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        )
        expected, expected_pivots = matrix.rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(len(rows))
        ]
        assert matrix_rank(rows) == len(expected_pivots)
        # the one-elimination kernel is the canonical (rref) kernel basis
        kernel = [list(v) for v in matrix.nullspace()]
        canonical = sympy.Matrix(kernel).rref()[0].tolist() if kernel else []
        assert nullspace(rows, len(rows[0])) == [
            [Fraction(int(x.p), int(x.q)) for x in row] for row in canonical
        ]

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
        m = grassmannian_model(3, 5)
        for d in range(m.ring.top_degree + 1):
            for b in invariant_basis(m, d):
                for g in m.weyl_action:
                    assert permute_poly(b, g) == b


def ann(m, d):
    """ann(e) in degree d, paired against the invariants of degree q - d
    (none when d exceeds the quotient dimension q)."""
    dual = invariant_basis(m, m.quotient_dim - d) if d <= m.quotient_dim else []
    inv = invariant_basis(m, d)
    return ann_e_basis(m, inv, pairing_matrix(m, dual, inv))


class TestAnnihilator:
    def test_trivial_in_low_degree(self):
        m = grassmannian_model(2, 4)
        assert ann(m, 1) == []

    def test_degree_five_is_all_invariants(self):
        m = grassmannian_model(2, 4)
        assert len(ann(m, 5)) == 1

    def test_abelian_model_annihilates_nothing(self):
        m = grassmannian_model(1, 5)
        for d in range(5):
            assert ann(m, d) == []

    def test_elements_kill_e(self):
        for k, n in [(2, 4), (2, 5), (3, 5)]:
            m = grassmannian_model(k, n)
            e = m.e_class()
            for d in range(m.quotient_dim + 1):
                for z in ann(m, d):
                    assert (z * e).is_zero()

    def test_ideal_property(self):
        # products of annihilator elements with invariant generators stay in
        # the annihilator (membership certified by killing e)
        m = grassmannian_model(2, 5)
        e = m.e_class()
        for d in range(m.quotient_dim + 1):
            for z in ann(m, d):
                for dd in range(1, 3):
                    for g in invariant_basis(m, dd):
                        assert ((z * g) * e).is_zero()

    def test_ann_pairs_to_zero_against_everything(self):
        m = grassmannian_model(2, 4)
        for d in range(m.quotient_dim + 1):
            for z in ann(m, d):
                for dd in range(m.quotient_dim + 1 - d):
                    for b in invariant_basis(m, dd):
                        assert integrate_group(m, z * b) == 0


class TestPoincarePolynomial:
    def test_examples(self):
        assert poincare_polynomial(grassmannian_model(2, 4)) == [1, 1, 2, 1, 1]
        assert poincare_polynomial(grassmannian_model(1, 5)) == [1, 1, 1, 1, 1]
        assert poincare_polynomial(grassmannian_model(2, 5)) == [1, 1, 2, 2, 2, 1, 1]

    def test_gaussian_binomial_oracle(self):
        cases = [(k, n) for k in range(1, 4) for n in range(k, 7)] + [(4, 6), (4, 7)]
        for k, n in cases:
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


def product_route(m):
    """The independent reference: per degree, b*e by full Poly products for
    every invariant b, then sympy's rank of the coefficient matrix (the Betti
    number) and its nullspace in rref (ann(e), as primitive integer
    combinations of the invariant basis)."""
    e = m.e_class()
    betti, anns = [], []
    for d in range(m.quotient_dim + 1):
        inv = invariant_basis(m, d)
        products = [b * e for b in inv]
        monos = sorted({x for p in products for x in p.terms})
        matrix = sympy.zeros(len(monos), len(inv))
        for j, p in enumerate(products):
            for i, x in enumerate(monos):
                c = Fraction(p.terms.get(x, 0))
                matrix[i, j] = sympy.Rational(c.numerator, c.denominator)
        betti.append(matrix.rank())
        kernel = [list(v) for v in matrix.nullspace()]
        basis = []
        for row in sympy.Matrix(kernel).rref()[0].tolist() if kernel else []:
            scale = sympy.ilcm(*(x.q for x in row))
            ints = [int(x * scale) for x in row]
            g = sympy.igcd(*ints)
            basis.append(sum((b * (c // g) for c, b in zip(ints, inv) if c), m.ring.zero()))
        anns.append(basis)
    while betti and betti[-1] == 0:
        betti.pop()
    return betti, anns


def block_model(blocks, truncations):
    """prod U(|b|) over the given blocks of variables, on prod_i P^{n_i - 1}
    with the Euler-sequence tangent, built through the validating
    constructors."""
    k = len(truncations)
    roots = RootData.from_blocks(k, blocks)
    rd = RootData(k, roots.roots, roots.positive, (), prod(factorial(len(b)) for b in blocks))
    ring = Ring(k, truncations)
    lines = [(tuple(int(i == j) for j in range(k)), n) for i, n in enumerate(truncations)]
    return QuotientModel(ring, rd, SplitBundle(ring, [*lines, ((0,) * k, -k)]))


def torus_config(truncations):
    """A config with no roots on prod_i P^{n_i - 1}: every monomial is an
    invariant and W is trivial."""
    k = len(truncations)
    tangent = [{"weight": [str(int(i == j)) for j in range(k)], "multiplicity": str(n)}
               for i, n in enumerate(truncations)]
    return model_from_config({
        "schema": "1",
        "ring": {"variables": str(k), "truncations": [str(n) for n in truncations]},
        "roots": {"weights": [], "positive": [], "weyl_order": "1"},
        "tangent_bundle": [*tangent, {"weight": "0", "multiplicity": str(-k)}],
    })


class TestRankRoute:
    def test_matches_the_product_route(self):
        cases = [grassmannian_model(k, n) for k in range(1, 4) for n in range(k, 8)]
        cases.append(grassmannian_model(4, 6))
        u2u1, torus = _subgroup_configs()
        cases += [u2u1, torus, torus.relative()]
        # several blocks; then blocks on truncations that differ between
        # blocks, which `chern_pairings` refuses; then no roots at all
        u2, u3 = (0, 1), (0, 1, 2)
        cases += [block_model((u2, (2, 3)), [n] * 4) for n in (4, 5)]
        cases += [block_model((u2, (2,)), [n] * 3) for n in (4, 5, 6)]
        cases.append(block_model((u3, (3, 4)), [4] * 5))
        cases += [block_model((u2, (2,)), [5, 5, 3]), block_model(((0, 2), (1,)), [5, 3, 5])]
        cases.append(block_model((u2, (2, 3)), [3, 3, 5, 5]))
        cases.append(torus_config([3, 4, 2]))
        for m in cases:
            betti, anns = product_route(m)
            assert poincare_polynomial(m) == betti
            assert [ann(m, d) for d in range(m.quotient_dim + 1)] == anns

    def test_relative_block_model_uses_its_own_weyl_group(self):
        # the complement roots of U(2)xU(1) in U(3) form no blocks, so their
        # own W is trivial: every monomial is an invariant, e is invariant
        # and ann(e) is the Gram kernel again
        rel = _subgroup_configs()[0].relative()
        assert rel.root_data.generators == ()
        assert len(invariant_basis(rel, 1)) == 3
        betti, anns = product_route(rel)
        assert poincare_polynomial(rel) == betti
        assert [ann(rel, d) for d in range(rel.quotient_dim + 1)] == anns
        assert list(presentation_report(rel).betti) == betti


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


def product_gram(m, rows, columns):
    """The reference Gram matrix: prefactor * integrate_torus(m, a, b, e)."""
    pre, e = m.prefactor(), m.e_class()
    return [[pre * integrate_torus(m, a, b, e) for b in columns] for a in rows]


class TestPairingMatrixAtPoints:
    def test_invariant_bases_match_the_product_gram(self):
        models = [grassmannian_model(k, n) for k in range(1, 4) for n in range(k, 7)]
        models += [grassmannian_model(4, 6), *_subgroup_configs()]
        for m in models:
            q = m.quotient_dim
            bases = [invariant_basis(m, d) for d in range(q + 1)]
            for d in range(q + 1):
                assert pairing_matrix(m, bases[q - d], bases[d]) == product_gram(
                    m, bases[q - d], bases[d]
                )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inhomogeneous_rows(self, data):
        # each row and column a combination of invariants of two degrees: the
        # components of complementary degrees pair, and no other
        k, n = data.draw(st.sampled_from([(1, 4), (2, 4), (2, 5), (3, 5), (3, 6)]))
        m = grassmannian_model(k, n)
        q = m.quotient_dim
        coeff = st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 4)])

        def mixed():
            total = m.ring.zero()
            for d in data.draw(st.lists(st.integers(0, q), min_size=1, max_size=2)):
                for b in invariant_basis(m, d):
                    total = total + b * data.draw(coeff)
            return total

        rows = [mixed() for _ in range(data.draw(st.integers(1, 3)))]
        columns = [mixed() for _ in range(data.draw(st.integers(1, 3)))]
        assert pairing_matrix(m, rows, columns) == product_gram(m, rows, columns)

    def test_relative_block_model_runs_on_all_points(self):
        # U(2)xU(1) in U(3): the complement roots form no blocks, so the
        # sums run over every point, and every monomial, or sum of two, is a row
        rel = _subgroup_configs()[0].relative()
        assert rel.root_data.blocks is None
        q = rel.quotient_dim
        for d in range(q + 1):
            low = [rel.ring.monomial(e) for e in rel.ring.monomials_of_degree(d)]
            high = [rel.ring.monomial(e) for e in rel.ring.monomials_of_degree(q - d)]
            mixed = [a + b for a, b in zip(high, low)]
            assert pairing_matrix(rel, high, low) == product_gram(rel, high, low)
            assert pairing_matrix(rel, mixed, low + high) == product_gram(rel, mixed, low + high)


class TestSignatureCrossCheck:
    def test_grassmannian_2_4(self):
        assert signature_from_pairing(grassmannian_model(2, 4)) == 2

    def test_two_routes_agree(self):
        for k in range(1, 4):
            for n in range(k, 7):
                m = grassmannian_model(k, n)
                assert signature(m) == signature_from_pairing(m)

    def test_chern_basis_has_the_inertia_of_the_orbit_sums(self):
        # the middle Gram matrix on Chern monomials is congruent to the one
        # on orbit sums, so the eigenvalue signs agree (Sylvester); every
        # model here has an even quotient dimension
        u2 = (0, 1)
        models = [grassmannian_model(2, 4), grassmannian_model(3, 5), grassmannian_model(4, 6)]
        models += [block_model((u2, (2, 3)), [3] * 4), block_model((u2, (2,)), [5, 5, 3])]
        models += [block_model(((0, 2), (1,)), [4, 3, 4]), torus_config([3, 3, 5])]
        for m in models:
            middle = invariant_basis(m, m.quotient_dim // 2)
            pos, neg, _ = eigenvalue_signs(pairing_matrix(m, middle, middle))
            assert signature_from_pairing(m) == signature(m) == pos - neg


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
            assert row.invariant_dim - row.ann_dim == row.betti

    def test_each_degree_is_built_once(self, monkeypatch):
        # G(3,6), q = 9: the report builds one invariant basis per degree and
        # one Gram matrix per degree d <= 4 (its columns), whose transpose is
        # the matrix of degree 9 - d; the Betti numbers build neither, as
        # their Gram matrices are lookups in one Chern pairing table
        import abelianize.presentation as presentation

        degrees = {"invariant_basis": [], "pairing_matrix": []}

        def count(name, degree_of):
            original = getattr(presentation, name)

            def counted(*args):
                degrees[name].append(degree_of(args))
                return original(*args)

            monkeypatch.setattr(presentation, name, counted)

        count("invariant_basis", lambda args: args[1])
        count("pairing_matrix", lambda args: sum(next(iter(args[2][0].terms))))
        m = grassmannian_model(3, 6)
        presentation_report(m)
        assert sorted(degrees["invariant_basis"]) == list(range(10))
        assert sorted(degrees["pairing_matrix"]) == [0, 1, 2, 3, 4]
        degrees["invariant_basis"].clear()
        degrees["pairing_matrix"].clear()
        assert poincare_polynomial(m) == gaussian_binomial(6, 3)
        assert degrees == {"invariant_basis": [], "pairing_matrix": []}

    def test_projective_space_has_trivial_ann(self):
        report = presentation_report(grassmannian_model(1, 3))
        assert all(row.ann_dim == 0 for row in report.rows)

    def test_g25_betti_row(self):
        report = presentation_report(grassmannian_model(2, 5))
        assert report.betti == (1, 1, 2, 2, 2, 1, 1)

"""Acceptance suite.

Each test implements one acceptance criterion at tolerance zero (every check
is an exact rational equality) and prints one pass/fail line.  The sweeps over
Grassmannian models cover every k <= 3, n <= 7.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from abelianize.ratpoly import Ring, elementary_symmetric, eval_series, exp_series
from abelianize.rootdata import Subgroup
from abelianize.quotient import (
    QuotientModel,
    SplitBundle,
    chern_pairing,
    grassmannian_model,
    integrate_group,
    integrate_torus,
)
from abelianize.charclass import (
    characteristic_number,
    euler_characteristic,
    index_group,
    index_group_two_term,
    index_torus,
    l_class_series,
    lambda_alternating_ch,
    signature,
    todd_series,
    total_chern_series,
)
from abelianize.presentation import (
    ann_e_basis,
    invariant_basis,
    poincare_polynomial,
    signature_from_pairing,
)
from abelianize.schubert import oracle_betti, oracle_chern_pairing
from abelianize.cli import pairing_degree_vectors

ALL_MODELS = [(k, n) for k in range(1, 4) for n in range(k, 8)]


def _verdict(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def test_criterion_1_pairings_match_oracle_exhaustively():
    failures = []
    for k, n in ALL_MODELS:
        m = grassmannian_model(k, n)
        for exps in pairing_degree_vectors(k, k * (n - k)):
            value = chern_pairing(m, exps)
            check = oracle_chern_pairing(k, n, exps)
            if value != check:
                failures.append((k, n, exps, value, check))
    _verdict(1, "pairings vs Pieri oracle, k<=3 n<=7", failures)


def test_criterion_2_headline_pairings():
    m = grassmannian_model(2, 4)
    expected = {(4, 0): 2, (2, 1): 1, (0, 2): 1}
    failures = [
        (exps, chern_pairing(m, exps), want)
        for exps, want in expected.items()
        if chern_pairing(m, exps) != want
    ]
    _verdict(2, "G(2,4) headline pairings", failures)


def test_criterion_3_betti_numbers_match_oracle():
    failures = []
    for k, n in ALL_MODELS:
        betti = poincare_polynomial(grassmannian_model(k, n))
        expected = oracle_betti(k, n)
        if betti != expected:
            failures.append((k, n, betti, expected))
        if betti != betti[::-1]:
            failures.append((k, n, "not palindromic", betti))
    _verdict(3, "Betti numbers vs partition oracle", failures)


def test_criterion_4_euler_characteristics():
    failures = []
    for k, n in ALL_MODELS:
        value = euler_characteristic(grassmannian_model(k, n))
        if value != comb(n, k):
            failures.append((k, n, value, comb(n, k)))
    _verdict(4, "Euler characteristic = binomial(n,k)", failures)


def test_criterion_5_signatures():
    failures = []
    if signature(grassmannian_model(2, 4)) != 2:
        failures.append(("G(2,4)", signature(grassmannian_model(2, 4))))
    for k, n in ALL_MODELS:
        m = grassmannian_model(k, n)
        via_formula = signature(m)
        via_pairing = signature_from_pairing(m)
        if via_formula != via_pairing:
            failures.append((k, n, via_formula, via_pairing))
    _verdict(5, "signature: formula vs pairing sign count", failures)


def test_criterion_6_generic_class_formula_consistency():
    failures = []
    for k, n in ALL_MODELS:
        m = grassmannian_model(k, n)
        D = m.ring.top_degree
        chern = characteristic_number(m, total_chern_series(D))
        if chern != euler_characteristic(m):
            failures.append((k, n, "total-chern", chern))
        lnum = characteristic_number(m, l_class_series(D))
        want = signature(m) if m.quotient_dim % 2 == 0 else Fraction(0)
        if lnum != want:
            failures.append((k, n, "l-class", lnum, want))
        # independent references: binomials, the pairing sign count, Todd genus 1
        if chern != comb(n, k):
            failures.append((k, n, "total-chern vs binomial", chern, comb(n, k)))
        if lnum != signature_from_pairing(m):
            failures.append((k, n, "l-class vs pairing", lnum, signature_from_pairing(m)))
        todd = characteristic_number(m, todd_series(D))
        if todd != 1:
            failures.append((k, n, "todd genus", todd))
    _verdict(6, "generic multiplicative formula vs Euler/signature", failures)


def test_criterion_7_index_values_and_two_term_form():
    failures = []
    cases = []
    for n in range(1, 6):
        m = grassmannian_model(1, n)
        V = SplitBundle(m.ring, [((0,), 1)])
        cases.append((f"CP^{n - 1} trivial", m, V, Fraction(1)))
    line = grassmannian_model(1, 2)
    for twist in range(11):
        V = SplitBundle(line.ring, [((twist,), 1)])
        cases.append((f"CP^1 twist {twist}", line, V, Fraction(twist + 1)))
    g24 = grassmannian_model(2, 4)
    tableaux = sum(1 for a in range(1, 5) for b in range(a + 1, 5))  # height-2 column fillings
    cases.append(
        ("G(2,4) Plucker line", g24, SplitBundle(g24.ring, [((1, 1), 1)]), Fraction(tableaux))
    )
    for name, m, V, want in cases:
        got = index_group(m, V)
        if got != want:
            failures.append((name, got, want))
        two_term = index_group_two_term(m, V)
        if two_term != got:
            failures.append((name, "two-term form", two_term, got))
    _verdict(7, "index values and even/odd form agreement", failures)


def test_criterion_8_k_identity_and_positivity_independence():
    failures = []
    # alternating exterior Chern character vs brute-force subset expansion
    ring = Ring(3, [4, 4, 4])
    u = ring.gens()
    roots = [u[1] - u[0], u[2] - u[1], u[2] - u[0]]
    weights = [(-1, 1, 0), (0, -1, 1), (-1, 0, 1)]
    e = exp_series(ring.top_degree)
    for rank in range(1, 4):
        E = SplitBundle(ring, [(w, 1) for w in weights[:rank]])
        alt = ring.zero()
        for i in range(rank + 1):
            for combo in combinations(range(rank), i):
                root = ring.zero()
                for j in combo:
                    root = root + roots[j]
                alt = alt + (-1) ** i * eval_series(e, root)
        if lambda_alternating_ch(E) != alt:
            failures.append(("K-identity", rank))
    # both positivity conventions give the same index
    for k, n in [(2, 4), (2, 5), (3, 5), (3, 6)]:
        m = grassmannian_model(k, n)
        V = SplitBundle(m.ring, [((1,) * k, 1)])
        flipped = QuotientModel(m.ring, m.root_data.opposite(), m.tangent_bundle)
        if index_group(m, V) != index_group(flipped, V):
            failures.append(("positivity", k, n))
    _verdict(8, "K-identity and positive-root independence", failures)


def test_criterion_9_integrals_well_defined_modulo_annihilator():
    failures = []
    for k, n in [(2, 4), (2, 5)]:
        m = grassmannian_model(k, n)
        s1 = elementary_symmetric(m.ring, 1)
        s2 = elementary_symmetric(m.ring, 2)
        lifts = [s1 ** (k * (n - k)), s2 ** (k * (n - k) // 2), m.ring.one(), s1 * s2]
        for d in range(m.quotient_dim + 1):
            for z in ann_e_basis(m, invariant_basis(m, d)):
                for lift in lifts:
                    if integrate_group(m, lift + z) != integrate_group(m, lift):
                        failures.append((k, n, d, str(z)[:40]))
    _verdict(9, "integrals unchanged by annihilator perturbations", failures)


def test_criterion_10_subgroup_variant_degenerations():
    failures = []
    m = grassmannian_model(2, 4)

    def relative(sub):
        return QuotientModel(m.ring, m.root_data, m.tangent_bundle, subgroup=sub).relative()

    torus = relative(Subgroup((), 1))
    whole = relative(Subgroup(m.root_data.roots, m.root_data.weyl_order))
    s1 = elementary_symmetric(m.ring, 1)
    s2 = elementary_symmetric(m.ring, 2)
    lifts = [s1**4, s2**2, s1**2 * s2, m.ring.one(), m.ring.monomial((3, 3))]
    for lift in lifts:
        if integrate_group(torus, lift) != integrate_group(m, lift):
            failures.append(("H=T", str(lift)[:40]))
        if integrate_group(whole, lift) != integrate_torus(m, lift):
            failures.append(("H=G", str(lift)[:40]))
    if whole.e_class() != m.ring.one():
        failures.append(("H=G e-product", str(whole.e_class())))
    V = SplitBundle(m.ring, [((0, 0), 1)])
    if index_group(torus, V) != index_group(m, V):
        failures.append(("H=T index",))
    if index_group(whole, V) != index_torus(m, V):
        failures.append(("H=G index",))
    _verdict(10, "full-rank-subgroup path degenerations", failures)

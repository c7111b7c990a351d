"""The quotient ring presentation through Weyl invariants and ann(e).

The rational cohomology of the nonabelian quotient is the ring of Weyl
invariants of the torus-quotient ring modulo the ideal of invariants killed
by multiplication with the root-class product e.  Everything here is
degreewise exact linear algebra over Q on one invariant basis per degree,
built once per report.  Invariant bases are monomial orbit sums.
`ann_e_basis` takes a degree's basis and returns ann(e) in it as a nullspace.
`pairing_matrix` takes two bases; its entries are the prefactor times
`integrate_torus(a, b, e)`, the quotient integral (1/|W|) of a*b*e over the
torus quotient.  A Betti number is a rank, not a dimension difference: that
of multiplication by e on the invariants.  All elimination is one
fraction-free Gauss-Jordan routine: `rref` divides its result by the common
pivot and `matrix_rank` counts its pivots.

A second, independent route to the signature counts eigenvalue signs of the
middle-degree pairing matrix through its characteristic polynomial; Descartes'
sign rule is exact there because symmetric matrices have real spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .ratpoly import Exponent, Poly, exponent_orbit
from .quotient import QuotientModel, integrate_torus

Matrix = list[list[Fraction]]


# -- exact rational linear algebra ------------------------------------------


def _echelon(rows: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss).

    Each row is scaled to integers by the lcm of its denominators.  Each pivot
    column is then cleared above and below its pivot, and every update divides
    exactly by the previous pivot, so all pivots end equal to the last one.
    Returns the integer matrix, the pivot columns and that common pivot.
    """
    m = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                a = row[c]
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
        if len(pivots) == len(m):
            break
    return m, pivots, prev


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices, exact over Q: the
    fraction-free echelon form divided by its common pivot."""
    m, pivots, p = _echelon(rows)
    return [[Fraction(x, p) for x in row] for row in m], pivots


def matrix_rank(rows: Matrix) -> int:
    """Rank over Q: the number of pivots of the fraction-free echelon form."""
    return len(_echelon(rows)[1])


def nullspace(rows: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column, in column order."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][c]
        basis.append(v)
    return basis


def _primitive(vec: Sequence[Fraction]) -> list[int]:
    """Scale to a primitive integer vector with positive leading entry."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return [x // g for x in ints]


def charpoly(a: Matrix) -> list[Fraction]:
    """Characteristic polynomial of a square matrix, leading coefficient
    first, by the trace recursion (exact over Q)."""
    n = len(a)
    coeffs = [Fraction(1)]
    mk = [[Fraction(x) for x in row] for row in a]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [
            [sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def eigenvalue_signs(a: Matrix) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric rational
    matrix, via Descartes' rule on the characteristic polynomial.  Exact
    because the spectrum is real."""
    if not a:
        return (0, 0, 0)
    coeffs = charpoly(a)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    zeros = len(a) + 1 - len(coeffs)

    def sign_changes(cs: list[Fraction]) -> int:
        signs = [1 if c > 0 else -1 for c in cs if c != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    pos = sign_changes(coeffs)
    neg = sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return (pos, neg, zeros)


# -- graded pieces of the presentation --------------------------------------


def invariant_basis(m: QuotientModel, d: int) -> list[Poly]:
    """Basis of the degree-d Weyl invariants: one monomial orbit sum per
    orbit, ordered by descending lexicographically greatest representative."""
    if not 0 <= d <= m.ring.top_degree:
        raise ValueError(f"degree {d} out of range 0..{m.ring.top_degree}")
    gens = m.weyl_action
    seen: set[Exponent] = set()
    orbits: list[tuple[Exponent, frozenset[Exponent]]] = []
    for e in m.ring.monomials_of_degree(d):
        if e in seen:
            continue
        orbit = exponent_orbit(e, gens)
        seen |= orbit
        orbits.append((max(orbit), orbit))
    orbits.sort(reverse=True)
    return [Poly(m.ring, {e: 1 for e in orbit}) for _, orbit in orbits]


def _times_e(inv: list[Poly], e: Poly) -> Matrix:
    """Coefficients of b*e for b in inv: a row per monomial, a column per b."""
    products = [b * e for b in inv]
    target = sorted({mono for p in products for mono in p.terms}, reverse=True)
    return [[p.terms.get(mono, 0) for p in products] for mono in target]


def ann_e_basis(m: QuotientModel, inv: list[Poly]) -> list[Poly]:
    """Basis of the span of one degree's invariant basis `inv` annihilated by
    the root-class product, as the exact nullspace of the multiplication-by-e
    coefficient matrix."""
    kernel = nullspace(_times_e(inv, m.e_class()), len(inv))
    reduced, _ = rref(kernel)
    basis = []
    for vec in reduced:
        combo = m.ring.zero()
        for c, b in zip(_primitive(vec), inv):
            if c:
                combo = combo + b * c
        basis.append(combo)
    return basis


def poincare_polynomial(m: QuotientModel) -> list[int]:
    """Betti numbers of the presented quotient: per degree, the rank of
    multiplication by e on the invariants, trailing zeros trimmed."""
    e = m.e_class()
    betti = [matrix_rank(_times_e(invariant_basis(m, d), e)) for d in range(m.quotient_dim + 1)]
    while betti and betti[-1] == 0:
        betti.pop()
    return betti


def pairing_matrix(m: QuotientModel, rows: list[Poly], columns: list[Poly]) -> Matrix:
    """Gram matrix of the quotient pairing between two lists of invariants:
    entry (a, b) is the prefactor times integrate_torus(a, b, e), e being the
    root-class product."""
    pre, e = m.prefactor(), m.e_class()
    return [[pre * integrate_torus(m, a, b, e) for b in columns] for a in rows]


def signature_from_pairing(m: QuotientModel) -> Fraction:
    """Signature as the exact eigenvalue-sign count of the middle-degree
    pairing matrix; zero when the quotient dimension is odd."""
    top = m.quotient_dim
    if top % 2 == 1:
        return Fraction(0)
    middle = invariant_basis(m, top // 2)
    pos, neg, _ = eigenvalue_signs(pairing_matrix(m, middle, middle))
    return Fraction(pos - neg)


# -- the assembled report ----------------------------------------------------


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    invariant_dim: int
    ann_dim: int
    betti: int
    pairing_rank: int
    ann_basis: tuple[str, ...]


@dataclass(frozen=True)
class PresentationReport:
    rows: tuple[DegreeRow, ...]
    betti: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.betti)


def presentation_report(m: QuotientModel) -> PresentationReport:
    """Degreewise summary of the quotient presentation; fails if the Betti
    sequence is not palindromic, which would contradict Poincare duality."""
    top = m.quotient_dim
    bases = [invariant_basis(m, d) for d in range(top + 1)]
    rows = []
    betti = []
    for d, inv in enumerate(bases):
        ann = ann_e_basis(m, inv)
        b = len(inv) - len(ann)
        rank = matrix_rank(pairing_matrix(m, inv, bases[top - d]))
        rows.append(
            DegreeRow(
                degree=d,
                invariant_dim=len(inv),
                ann_dim=len(ann),
                betti=b,
                pairing_rank=rank,
                ann_basis=tuple(str(z) for z in ann),
            )
        )
        betti.append(b)
    if betti != betti[::-1]:
        raise ValueError(f"Betti numbers are not palindromic: {betti}")
    return PresentationReport(rows=tuple(rows), betti=tuple(betti))

"""The quotient ring presentation through Weyl invariants and ann(e).

The rational cohomology of the nonabelian quotient is the ring of Weyl
invariants of the torus-quotient ring modulo the ideal of invariants killed
by multiplication with the root-class product e.  Everything here is exact
linear algebra over Q on Gram matrices: entry (a, b) is the prefactor times
the torus integral of a * b * e, for invariants a of degree q - d and b of
degree d, q the quotient dimension, summed over the model's fixed points;
the matrix of degree q - d is its transpose.  The torus-quotient ring has
Poincare duality and a Weyl-invariant integral, and e is Weyl-invariant.
So b*e = 0 exactly when b pairs to zero with every invariant of degree
q - d: ann(e) is the Gram kernel and b_d its rank.  Ranks and signs take
the Chern monomials as basis, `chern_grams`, each entry a lookup in one
table; `presentation_report` prints ann(e) in monomial orbit sums,
`invariant_basis` and `pairing_matrix`.  All elimination is one
fraction-free Gauss-Jordan routine, and the signature counts eigenvalue
signs through the characteristic polynomial (Descartes' rule is exact on a
real spectrum).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .ratpoly import Exponent, Poly, exponent_orbit
from .quotient import QuotientModel, chern_sums

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
    """Basis of the right kernel in reduced row echelon form, from one
    elimination: the free-column basis of the column-reversed matrix, each
    vector and their order read back in reverse."""
    reduced, pivots = rref([row[::-1] for row in rows])
    free = [c for c in reversed(range(ncols)) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][c]
        basis.append(v[::-1])
    return basis


def _primitive(vec: Sequence[Fraction]) -> list[int]:
    """Scale to a primitive integer vector; a kernel vector in rref leads
    with 1, so its leading entry stays positive."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (denom // x.denominator) for x in vec]
    g = gcd(*ints) or 1
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
    orbit under `RootData.generators`, ordered by descending
    lexicographically greatest representative."""
    if not 0 <= d <= m.ring.top_degree:
        raise ValueError(f"degree {d} out of range 0..{m.ring.top_degree}")
    gens = m.root_data.generators
    seen: set[Exponent] = set()
    orbits: list[tuple[Exponent, frozenset[Exponent]]] = []
    for e in m.ring.monomials_of_degree(d):
        if e in seen:
            continue
        orbit = exponent_orbit(e, gens)
        seen |= orbit
        orbits.append((max(orbit), orbit))
    orbits.sort(reverse=True)
    return [Poly._trusted(m.ring, dict.fromkeys(orbit, 1)) for _, orbit in orbits]


def ann_e_basis(m: QuotientModel, inv: list[Poly], gram: Matrix) -> list[Poly]:
    """Basis of the span of one degree's invariant basis `inv` annihilated by
    the root-class product: the canonical kernel of `gram`, the Gram matrix of
    the invariant basis of the complementary degree (rows) against `inv`."""
    combos = (zip(_primitive(vec), inv) for vec in nullspace(gram, len(inv)))
    return [sum((b * c for c, b in combo if c), m.ring.zero()) for combo in combos]


def chern_grams(m: QuotientModel, degrees: Sequence[int]) -> list[list[list[int]]]:
    """Per degree d, the pairing's Gram matrix over one positive factor on
    the Chern monomials of degrees q - d (rows) and d: per block b truncated
    at n (per variable where the roots form none), prod_j e_j^{m_j} with
    sum_j m_j < n, and their products over the blocks; e_mu is m_{mu'} plus
    lower orbit sums (Macdonald I (2.3)).  Coded by the digits m_j in base
    2 max(n) - 1, entry (mu, nu) is T[mu + nu], T the `chern_sums` over their gcd."""
    q, truncs, radix = m.quotient_dim, m.ring.truncations, 2 * max(m.ring.truncations) - 1
    blocks = m.root_data.blocks or tuple((i,) for i in range(m.ring.k))
    basis, digit = [(0, 0, 0)], 1  # (code, degree, sum of the block's m_j)
    for b in blocks:
        for j in range(1, len(b) + 1):
            basis = [(c + x * digit, d + j * x, used + x) for c, d, used in basis
                     for x in range(truncs[b[0]] - used) if d + j * x <= q]
            digit *= radix
        basis = [(c, d, 0) for c, d, _ in basis]
    pairs = [([c for c, e, _ in basis if e == q - d], [c for c, e, _ in basis if e == d])
             for d in degrees]
    codes = list({a + b for rows, cols in pairs for a in rows for b in cols})
    sums = chern_sums(m, blocks, ([c // radix**i % radix for i in range(m.ring.k)] for c in codes))
    g = gcd(*sums) or 1
    table = {c: x // g for c, x in zip(codes, sums)}
    return [[[table[a + b] for b in cols] for a in rows] for rows, cols in pairs]


def poincare_polynomial(m: QuotientModel) -> list[int]:
    """Betti numbers of the presented quotient, trailing zeros trimmed: the
    ranks of the `chern_grams` of degrees d <= q/2, mirrored, since the
    matrix of degree q - d is the transpose."""
    top = m.quotient_dim
    half = [matrix_rank(gram) for gram in chern_grams(m, range(top // 2 + 1))]
    betti = half + half[: (top + 1) // 2][::-1]
    while betti and betti[-1] == 0:
        betti.pop()
    return betti


def pairing_matrix(m: QuotientModel, rows: list[Poly], columns: list[Poly]) -> Matrix:
    """Gram matrix of the quotient pairing of two lists of W-invariants: the
    prefactor times the torus integrals of a * b * e, prefactor/den * A
    diag(w) B^T over `QuotientModel.e_points` (exact for invariants only where
    they are orbit points), A and B the polynomials at the points, each
    evaluated once.  Exact in top degree only: degree d meets q - d alone.
    The points are the model's, so the Gram matrices of one query share them."""
    ts, weights, den, _ = m.e_points()
    h, ones = m.ring.k // 2, [1] * len(weights)
    powers: dict[tuple[int, int], list[int]] = {}
    halves: dict[tuple[int, Exponent], list[int]] = {}

    def half(lo: int, e: Exponent) -> list[int]:
        v = ones
        for i, x in enumerate(e, lo):
            if x:
                if (i, x) not in powers:
                    powers[i, x] = [y**x for y in ts[i]]
                v = powers[i, x] if v is ones else list(map(mul, v, powers[i, x]))
        halves[lo, e] = v
        return v

    def values(p: Poly) -> dict[int, list[int]]:  # {degree: [value at each point]}
        parts: dict[int, list] = {}
        for e, c in p.terms.items():
            a, b = (0, e[:h]), (h, e[h:])
            v = list(map(mul, halves.get(a) or half(*a), halves.get(b) or half(*b)))
            parts.setdefault(sum(e), []).append(v if c == 1 else [c * x for x in v])
        return {d: vs[0] if len(vs) == 1 else list(map(sum, zip(*vs))) for d, vs in parts.items()}

    A = [{d: list(map(mul, v, weights)) for d, v in values(a).items()} for a in rows]
    B = [values(b) for b in columns]
    pre, q = m.prefactor(), m.quotient_dim
    num, den = pre.numerator, pre.denominator * den
    gram = []
    for a in A:
        sums = (sum(sum(map(mul, v, b[q - d])) for d, v in a.items() if q - d in b) for b in B)
        gram.append([Fraction(num * x, den) for x in sums])
    return gram


def signature_from_pairing(m: QuotientModel) -> Fraction:
    """Signature as the exact eigenvalue-sign count of the middle-degree
    `chern_grams` matrix, of the pairing's inertia by Sylvester's law; zero
    when the quotient dimension is odd."""
    if m.quotient_dim % 2:
        return Fraction(0)
    pos, neg, _ = eigenvalue_signs(chern_grams(m, [m.quotient_dim // 2])[0])
    return Fraction(pos - neg)


# -- the assembled report ----------------------------------------------------


class DegreeRow(NamedTuple):
    degree: int
    invariant_dim: int
    ann_dim: int
    betti: int
    ann_basis: tuple[str, ...]


class PresentationReport(NamedTuple):
    rows: tuple[DegreeRow, ...]
    betti: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.betti)


def presentation_report(m: QuotientModel) -> PresentationReport:
    """Degreewise summary of the quotient presentation: one invariant basis
    per degree and one Gram matrix per degree d <= q/2, whose transpose is
    the matrix of degree q - d; b_d = dim - dim ann(e)."""
    top = m.quotient_dim
    bases = [invariant_basis(m, d) for d in range(top + 1)]
    anns: list[list[Poly]] = [[] for _ in bases]
    for d in range(top // 2 + 1):
        gram = pairing_matrix(m, bases[top - d], bases[d])
        anns[d] = ann_e_basis(m, bases[d], gram)
        if top - d != d:
            anns[top - d] = ann_e_basis(m, bases[top - d], [list(col) for col in zip(*gram)])
    rows = tuple(
        DegreeRow(
            degree=d,
            invariant_dim=len(inv),
            ann_dim=len(ann),
            betti=len(inv) - len(ann),
            ann_basis=tuple(str(z) for z in ann),
        )
        for d, (inv, ann) in enumerate(zip(bases, anns))
    )
    return PresentationReport(rows=rows, betti=tuple(row.betti for row in rows))

"""Reference functions that no query calls, kept for the tests.

    from references import index_torus, negative, opposite, parse_poly, permute_poly

`permute_poly` checks Weyl invariance of a polynomial term by term;
`index_torus` is the index on the torus quotient itself, which the group
index of a model with no roots must equal; `opposite` flips the positivity
convention, on which a twisted index depends; `parse_poly` is the polynomial
parser that sums one `Fraction` per term, against which the engine's
integer-numerator parser is checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from abelianize.charclass import todd_series
from abelianize.quotient import QuotientModel, SplitBundle, all_points, integrate_points
from abelianize.ratpoly import Coeff, Exponent, Poly, Ring, check_permutation, permute_exponents
from abelianize.rootdata import RootData, Weight


def permute_poly(p: Poly, perm: Sequence[int]) -> Poly:
    """p with u_i replaced by u_{perm[i]}."""
    perm = check_permutation(perm, p.ring.k)
    return Poly._trusted(p.ring, {permute_exponents(e, perm): c for e, c in p.nums.items()}, p.den)


def index_torus(m: QuotientModel, V: SplitBundle) -> Fraction:
    """Index of the twisted Dolbeault operator on the torus quotient:
    the integral of ch(V) * Td(tangent), over all fixed points."""
    td = todd_series(m.ring.top_degree)
    return integrate_points(m, all_points(m.ring), (), td, m.tangent_bundle, V)


def negative(rd: RootData) -> tuple[Weight, ...]:
    """The negatives of the positive roots."""
    return tuple(tuple(-x for x in w) for w in rd.positive)


def opposite(rd: RootData) -> RootData:
    """Same data with the opposite positivity convention."""
    return RootData(rd.rank, rd.roots, negative(rd), rd.weyl_generators, rd.weyl_order)


def parse_poly(ring: Ring, text: str) -> Poly:
    """The canonical polynomial grammar, each term's coefficient a product
    of `Fraction`s and the terms summed into a dict that `Poly` truncates."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    pos = 0
    terms: dict[Exponent, Coeff] = {}

    def fail(msg: str) -> ValueError:
        return ValueError(f"parse error at position {pos} in {text!r}: {msg}")

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise fail("expected an integer")
        return int(s[start:pos])

    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        coeff: Coeff = sign
        exps = [0] * ring.k
        while True:
            if pos < len(s) and s[pos].isdigit():
                num = read_int()
                if pos < len(s) and s[pos] == "/":
                    pos += 1
                    den = read_int()
                    if not den:
                        raise fail("zero denominator")
                    coeff = coeff * Fraction(num, den)
                else:
                    coeff = coeff * num
            elif pos < len(s) and s[pos] == "u":
                pos += 1
                idx = read_int()
                if not 1 <= idx <= ring.k:
                    raise fail(f"variable u{idx} outside u1..u{ring.k}")
                power = 1
                if pos < len(s) and s[pos] == "^":
                    pos += 1
                    power = read_int()
                exps[idx - 1] += power
            else:
                raise fail("expected a rational or a variable factor")
            if pos < len(s) and s[pos] == "*":
                pos += 1
                continue
            break
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
        if pos < len(s) and s[pos] not in "+-":
            raise fail("expected '+' or '-' between terms")
    return Poly(ring, terms)

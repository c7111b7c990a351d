"""Reference functions that no query calls, kept for the tests.

    from references import index_torus, inverse, negative, opposite, parse_poly
    from references import per_point_weights, permute_poly, product_pairs

`permute_poly` checks Weyl invariance of a polynomial term by term;
`index_torus` is the index on the torus quotient itself, which the group
index of a model with no roots must equal; `opposite` flips the positivity
convention, on which a twisted index depends; `parse_poly` is the polynomial
parser that sums one `Fraction` per term, against which the engine's
integer-numerator parser is checked; `product_pairs` and `inverse` are the
ring product's pair loop and the inverse's recurrence on exponent tuples,
against which the kernels on slot codes are checked; `per_point_weights`
is the localization data of `quotient.point_weights` built one point at a
time, as the point sums' dense reference reads it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from operator import add, getitem, lt, mul, sub
from typing import Sequence

from abelianize.charclass import todd_series
from abelianize.quotient import QuotientModel, SplitBundle, integrate_points
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
    return integrate_points(m, None, (), td, m.tangent_bundle, V)


def per_point_weights(m: QuotientModel, points: dict, roots: Sequence[Sequence[int]]):
    """([(t, w)], den): at each point a with e(t) != 0, the torus weights
    t_i = 2a_i - (n_i - 1) and w = count * e(t) * prod_i C(n_i - 1, a_i)
    (-1)^{n_i - 1 - a_i}, with den = 2^top prod_i (n_i - 1)!."""
    truncs = m.ring.truncations
    shift = [range(1 - n, n, 2) for n in truncs]
    sign = [[comb(n - 1, x) * (-1) ** (n - 1 - x) for x in range(n)] for n in truncs]
    out = []
    for a, count in points.items():
        t = tuple(map(getitem, shift, a))
        w = count * prod(map(getitem, sign, a))
        for r in roots:
            w *= sum(map(mul, r, t))
        if w:
            out.append((t, w))
    return out, 2**m.ring.top_degree * prod(factorial(n - 1) for n in truncs)


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


def product_pairs(p: Poly, q: Poly, degree: int) -> dict[Exponent, int]:
    """Numerators of p*q up to `degree` over p.den * q.den, unreduced, one
    term pair at a time on exponent tuples, the right operand's terms
    visited by increasing degree so each left term stops early."""
    truncs = p.ring.truncations
    right = sorted(zip(map(sum, q.nums), q.nums, q.nums.values()))
    out: dict[Exponent, int] = {}
    for e1, c1 in p.nums.items():
        room = degree - sum(e1)
        for d2, e2, c2 in right:
            if d2 > room:
                break
            e = tuple(map(add, e1, e2))
            if all(map(lt, e, truncs)):
                out[e] = out.get(e, 0) + c1 * c2
    return out


def inverse(p: Poly) -> Poly:
    """1/p by one pass over the box by degree on exponent tuples: with p =
    P/d, H_0 = 1 and H_e = -sum_f P_f P_0^(|f|-1) H_(e-f) over the nonzero
    f <= e, and the coefficient at e is d H_e / P_0^(|e|+1)."""
    ring, zero = p.ring, (0,) * p.ring.k
    p0, top = p.nums.get(zero, 0), ring.top_degree
    if not p0:
        raise ValueError("polynomial with zero constant term is not invertible")
    steps = [(f, c * p0 ** (sum(f) - 1)) for f, c in p.nums.items() if f != zero]
    H = {zero: 1}
    for e in sorted(product(*map(range, ring.truncations)), key=sum)[1:]:  # by degree
        # e - f outside the box has a negative entry, so it is not in H
        h = -sum(c * H.get(tuple(map(sub, e, f)), 0) for f, c in steps)
        if h:
            H[e] = h
    nums = {e: p.den * h * p0 ** (top - sum(e)) for e, h in H.items()}
    return Poly._reduced(ring, nums, p0 ** (top + 1))

"""Exact sparse polynomial arithmetic in truncated rational coefficient rings.

A ring Q[u1,...,uk]/(u1^n1, ..., uk^nk) is described by a `Ring`; its
elements are `Poly` values, sparse maps from exponent tuples to exact
rational coefficients.  Every variable has degree 1 (half the cohomological
degree), truncation is applied eagerly on every arithmetic result, and the
zero polynomial has no terms, so representations are canonical.

A `Poly` stores integer numerators over one positive denominator (`nums`,
`den`): no zero numerator, and gcd(den, numerators) = 1.  Every kernel
(addition, scalar multiples, both product kernels, `inverse`, `eval_series`,
`parse_poly`) takes or returns numerators and reduces by one gcd, so no
`Fraction` is built inside the arithmetic, and the product kernels and
`inverse` key each monomial by its integer slot code in the ring's box
table (`_slot_layout`), so no exponent tuple is built per term pair.
`terms`, the rational view (ints or `Fraction`s, never floats), is built on
first read; `coefficient` and `constant_term` build one `Fraction` per call.

`Series` holds a univariate power series the same way, numerators over one
denominator, long enough to cover a ring's top degree; `eval_series`
substitutes a linear form, a Chern root, into a series.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice, product
from math import comb, gcd, lcm, prod
from operator import getitem, lt, mul
from typing import Iterable, Iterator, Sequence

Exponent = tuple[int, ...]
Coeff = int | Fraction
Perm = tuple[int, ...]


def normalize_coeff(c: Coeff) -> Coeff:
    """Reduce a coefficient to int when integral; reject floats outright."""
    if isinstance(c, bool) or isinstance(c, float):
        raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def clear_denominators(coeffs: Iterable[Coeff]) -> tuple[int, list[int]]:
    """The lcm d of the coefficients' denominators and each coefficient times
    d, an int: the numerators a `Poly` or `Series` stores, with gcd 1 when the
    coefficients are reduced."""
    coeffs = list(coeffs)
    den = lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _rational(num: int, den: int) -> Coeff:
    """num / den as an int where den divides it, else as a `Fraction`."""
    return num // den if num % den == 0 else Fraction(num, den)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an exact value ('3/4', 7, Fraction) to Fraction, refusing floats."""
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed")
    return Fraction(value)


class Ring:
    """A polynomial ring with per-variable nilpotency truncation.

    `Ring(k, truncations)` models Q[u1..uk]/(u_i^{n_i}); `top_degree` is the
    degree sum(n_i - 1) of the unique maximal monomial.
    """

    __slots__ = ("k", "truncations", "top_degree")

    def __init__(self, k: int, truncations: Sequence[int]):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"need at least one variable, got k={k}")
        truncations = tuple(truncations)
        if len(truncations) != k:
            raise ValueError(f"expected {k} truncation exponents, got {len(truncations)}")
        if any(not isinstance(n, int) or n < 1 for n in truncations):
            raise ValueError(f"truncation exponents must be positive integers: {truncations}")
        self.k = k
        self.truncations = truncations
        self.top_degree = sum(n - 1 for n in truncations)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.truncations == other.truncations

    def __hash__(self) -> int:
        return hash(self.truncations)

    def __repr__(self) -> str:
        return f"Ring({self.k}, {list(self.truncations)})"

    @property
    def top_exponents(self) -> Exponent:
        return tuple(n - 1 for n in self.truncations)

    def valid_exponents(self, e: Exponent) -> bool:
        return len(e) == self.k and all(
            0 <= e[i] < self.truncations[i] for i in range(self.k)
        )

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return Poly._trusted(self, {(0,) * self.k: 1})

    def constant(self, c: Coeff) -> Poly:
        return Poly(self, {(0,) * self.k: c})

    def variable(self, i: int) -> Poly:
        """The generator u_{i+1} (0-based index)."""
        if not 0 <= i < self.k:
            raise ValueError(f"variable index {i} out of range for {self.k} variables")
        e = [0] * self.k
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def gens(self) -> list[Poly]:
        return [self.variable(i) for i in range(self.k)]

    def monomial(self, exponents: Sequence[int], coeff: Coeff = 1) -> Poly:
        e = tuple(exponents)
        if len(e) != self.k or any(x < 0 for x in e):
            raise ValueError(f"bad exponent tuple {e} for {self!r}")
        return Poly(self, {e: coeff})

    def monomials_of_degree(self, d: int) -> Iterator[Exponent]:
        """All truncation-respecting exponent tuples of total degree d, lex
        descending: built one variable at a time, keeping only the prefixes
        that the remaining variables can complete."""
        room = list(accumulate((n - 1 for n in reversed(self.truncations)), initial=0))[::-1]
        prefixes = [((), d)] if 0 <= d <= room[0] else []
        for n, rest in zip(self.truncations, room[1:]):
            prefixes = [
                (p + (x,), r - x)
                for p, r in prefixes
                for x in range(min(r, n - 1), max(r - rest, 0) - 1, -1)
            ]
        return iter([p for p, _ in prefixes])


class Poly:
    """A sparse polynomial in a truncated ring; immutable by convention.

    Stored as `nums`, a map from in-ring exponent tuples to nonzero integer
    numerators, over `den`, one positive denominator with gcd(den, nums) = 1,
    so equal polynomials have identical maps.  `terms` is the rational view,
    exponent tuple to int or `Fraction`, built on first read; `nums` and `den`
    are for kernels that divide once at the end.
    """

    __slots__ = ("ring", "nums", "den", "_terms")

    def __init__(self, ring: Ring, terms: dict[Exponent, Coeff] | None = None):
        tidy: dict[Exponent, Coeff] = {}
        if terms:
            truncs = ring.truncations
            k = ring.k
            for e, c in terms.items():
                if len(e) != k:
                    raise ValueError(f"exponent tuple {e} has wrong arity for {ring!r}")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                if any(e[i] >= truncs[i] for i in range(k)):
                    continue  # identically zero under truncation
                c = normalize_coeff(c)
                if c:
                    tidy[e] = c
        self.ring, self.nums, self.den, self._terms = ring, tidy, 1, tidy
        if not all(isinstance(c, int) for c in tidy.values()):
            self.den, nums = clear_denominators(tidy.values())
            self.nums = dict(zip(tidy, nums))

    @classmethod
    def _trusted(cls, ring: Ring, nums: dict[Exponent, int], den: int = 1) -> Poly:
        """Wrap numerators that are already canonical: in-ring exponent
        tuples, nonzero ints, den > 0 and gcd(den, nums) = 1.  Skips every check."""
        p = cls.__new__(cls)
        p.ring, p.nums, p.den, p._terms = ring, nums, den, None
        return p

    @classmethod
    def _reduced(cls, ring: Ring, nums: dict[Exponent, int], den: int) -> Poly:
        """The polynomial nums / den, den nonzero: zero numerators dropped,
        the sign moved to the numerators and their common factor with den
        divided out."""
        nums = {e: c for e, c in nums.items() if c}
        g = 1 if den == 1 else gcd(den, *nums.values()) * (1 if den > 0 else -1)
        if g != 1:
            nums, den = {e: c // g for e, c in nums.items()}, den // g
        return cls._trusted(ring, nums, den)

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Coeff]:
        """The rational view: each coefficient an int, or a `Fraction` where
        den does not divide its numerator."""
        if self._terms is None:
            den, nums = self.den, self.nums
            self._terms = nums if den == 1 else {e: _rational(c, den) for e, c in nums.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.ring.k, 0), self.den)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        """Exact coefficient of a monomial; the monomial must be valid in the ring."""
        e = tuple(exponents)
        if not self.ring.valid_exponents(e):
            raise ValueError(f"monomial {e} is not valid in {self.ring!r}")
        return Fraction(self.nums.get(e, 0), self.den)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: Poly) -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: Poly | Coeff) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {e: c * a for e, c in self.nums.items()}
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * b
        return Poly._reduced(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._trusted(self.ring, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other: Poly | Coeff) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = normalize_coeff(other)
            return self._scaled(c.numerator, c.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.product_upto(other, self.ring.top_degree)

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int) -> Poly:
        """self * num / den, den nonzero."""
        return Poly._reduced(self.ring, {e: c * num for e, c in self.nums.items()}, self.den * den)

    def product_upto(self, other: Poly, degree: int) -> Poly:
        """The product with every term of total degree above `degree` dropped,
        the ring's one multiplication.  A constant operand scales the other.
        Otherwise both kernels read the ring's box table (`_slot_layout`):
        the pair loop, whose work grows with the term pairs, where there are
        at most eight times as many pairs as monomials in the box, else the
        packed kernel, whose work grows with the monomials."""
        self._check_ring(other)
        small, large = sorted((self, other), key=lambda f: len(f.nums))
        if len(small.nums) == 1 and (c := small.nums.get((0,) * self.ring.k)):
            nums = {e: v * c for e, v in large.nums.items() if sum(e) <= degree}
        elif len(self.nums) * len(other.nums) <= 8 * prod(self.ring.truncations):
            nums = _product_pairs(self, other, degree)
        else:
            nums = _product_packed(self, other, degree)
        return Poly._reduced(self.ring, nums, self.den * other.den)

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial powers must be nonnegative integers, got {n}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> Poly:
        """Multiplicative inverse; exists iff the constant term is nonzero.
        One pass over the box by degree, on numerators: with self = P/d, H_0
        = 1 and H_e = -sum_f P_f P_0^(|f|-1) H_(e-f) over the nonzero f <= e,
        and the coefficient at e is d H_e / P_0^(|e|+1).  H is keyed by the
        box's slot codes (`_slot_layout`), and code(e) - code(f) is one only
        where f <= e."""
        ring, zero = self.ring, (0,) * self.ring.k
        p0, top = self.nums.get(zero, 0), ring.top_degree
        if not p0:
            raise ValueError("polynomial with zero constant term is not invertible")
        monomials, slots, _, code, _ = _slot_layout(ring.truncations)
        steps = [(code[f], c * p0 ** (sum(f) - 1)) for f, c in self.nums.items() if f != zero]
        H = {0: 1}
        for s in slots[1:]:  # by degree, after zero
            if h := -sum(c * H.get(s - t, 0) for t, c in steps):
                H[s] = h
        nums = {e: self.den * H[s] * p0 ** (top - sum(e)) for e, s in zip(monomials, slots) if s in H}
        return Poly._reduced(ring, nums, p0 ** (top + 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.nums == other.nums

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"<{render_poly(self)}>"


# -- the two multiplication kernels of Poly.product_upto --------------------


def _product_pairs(p: Poly, q: Poly, degree: int) -> dict[Exponent, int]:
    """Numerators of p*q up to `degree` over p.den * q.den, unreduced, one
    term pair at a time: a pair's slot code is the sum of its terms' codes,
    which the box table's `at` (`_slot_layout`) decodes where it codes a
    monomial.  The right terms go by increasing degree, so each left term
    stops early."""
    *_, code, at = _slot_layout(p.ring.truncations)
    right = sorted((sum(e), code[e], c) for e, c in q.nums.items())
    out: dict[int, int] = {}
    for e1, c1 in p.nums.items():
        room, s1 = degree - sum(e1), code[e1]
        for d2, s2, c2 in right:
            if d2 > room:
                break
            if (s := s1 + s2) in at:
                out[s] = out.get(s, 0) + c1 * c2
    return {at[s]: c for s, c in out.items()}


@lru_cache(maxsize=8)  # one table per ring
def _slot_layout(truncations: Exponent):
    """A ring's box: each monomial e by degree, its slot code code(e) =
    sum_i e_i stride_i, stride_i = prod_{j<i} (2 n_j - 1), and its degree;
    and the codes both ways, `code` and `at`.  Digits add without carrying,
    and each integer of size at most code(top) is sum_i d_i stride_i for
    exactly one d with |d_i| <= n_i - 1, so a sum or difference of two
    codes is in `at` exactly where it codes a monomial of the box:
    code(e) - code(f) where e >= f."""
    strides = tuple(accumulate((2 * n - 1 for n in truncations[:-1]), mul, initial=1))
    monomials = tuple(sorted(product(*map(range, truncations)), key=sum))
    slots = tuple(sum(map(mul, e, strides)) for e in monomials)
    code = dict(zip(monomials, slots))
    return monomials, slots, tuple(map(sum, monomials)), code, dict(zip(slots, monomials))


def _pack(nums: list[tuple[int, int]], width: int) -> int:
    """sum(v * 256**(width * slot)) over (slot, v); every |v| < 256**width."""
    size = (max(s for s, _ in nums) + 1) * width
    pos = bytearray(size)
    neg = bytearray(size)
    for s, v in nums:
        i = s * width
        if v > 0:
            pos[i : i + width] = v.to_bytes(width, "little")
        else:
            neg[i : i + width] = (-v).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _product_packed(p: Poly, q: Poly, degree: int) -> dict[Exponent, int]:
    """Numerators of p*q up to `degree` over p.den * q.den, unreduced, by
    Kronecker substitution.

    Both operands' numerators become one integer each with a fixed-width
    signed slot per monomial of the box (`_slot_layout`); one big-integer
    product holds every coefficient of p*q.  A slot of the product sums at
    most min(#p, #q) pairs, so its value lies within bound = min(#p, #q) *
    max|p| * max|q|, and `width` bytes with one sign bit to spare hold it.
    Adding 2**(8*width - 1) to every slot makes each one a nonnegative byte
    string, so one `to_bytes` decodes them all.
    """
    if degree < 0 or not p.nums or not q.nums:
        return {}
    monomials, slots, degrees, code, _ = _slot_layout(p.ring.truncations)
    nums_p, nums_q = ([(code[e], v) for e, v in f.nums.items() if sum(e) <= degree] for f in (p, q))
    if not nums_p or not nums_q:
        return {}
    bound = min(len(nums_p), len(nums_q)) * prod(max(abs(v) for _, v in f) for f in (nums_p, nums_q))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    # the top monomial comes last and has the largest in-ring slot
    span = max(max(s for s, _ in nums_p) + max(s for s, _ in nums_q), slots[-1]) + 1
    offset = int.from_bytes(half.to_bytes(width, "little") * span, "little")
    raw = (_pack(nums_p, width) * _pack(nums_q, width) + offset).to_bytes(span * width, "little")
    return {
        e: int.from_bytes(raw[s * width : (s + 1) * width], "little") - half
        for s, e in zip(islice(slots, bisect_right(degrees, degree)), monomials)
    }


# -- free functions over Poly ----------------------------------------------


def elementary_symmetric(ring: Ring, i: int) -> Poly:
    """The i-th elementary symmetric polynomial of the ring variables."""
    if not 0 <= i <= ring.k:
        raise ValueError(f"elementary symmetric index {i} out of range 0..{ring.k}")
    subsets = combinations(range(ring.k), i)
    return Poly(ring, {tuple(int(j in combo) for j in range(ring.k)): 1 for combo in subsets})


# -- permutation actions on variables -------------------------------------


def check_permutation(perm: Sequence[int], k: int) -> Perm:
    p = tuple(perm)
    if len(p) != k or sorted(p) != list(range(k)):
        raise ValueError(f"{p} is not a permutation of 0..{k - 1}")
    return p


def permute_exponents(e: Exponent, perm: Perm) -> Exponent:
    """Push exponents along u_i -> u_{perm[i]}."""
    out = [0] * len(e)
    for i, x in enumerate(e):
        out[perm[i]] = x
    return tuple(out)


def exponent_orbit(e: Exponent, generators: Sequence[Perm]) -> frozenset[Exponent]:
    """The orbit of e under the group the generators generate, breadth first."""
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = permute_exponents(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


# -- univariate power series ----------------------------------------------


class Series:
    """Coefficients c_0..c_D of an exact univariate power series, stored as a
    `Poly` stores its terms: integer numerators `nums` over one positive
    denominator `den`, gcd(den, nums) = 1.  `coeffs` is the rational view."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Coeff]):
        self.den, nums = clear_denominators([normalize_coeff(c) for c in coeffs])
        self.nums = tuple(nums)
        if not self.nums:
            raise ValueError("a series needs at least its constant coefficient")

    @classmethod
    def over(cls, nums: Iterable[int], den: int) -> Series:
        """The series with coefficients nums[j] / den, den nonzero."""
        nums = tuple(nums)
        g = gcd(den, *nums) * (1 if den > 0 else -1)
        s = cls.__new__(cls)
        s.nums, s.den = tuple(c // g for c in nums), den // g
        return s

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        return tuple(_rational(c, self.den) for c in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def constant_term(self) -> Coeff:
        return _rational(self.nums[0], self.den)

    def truncated(self, order: int) -> Series:
        """Same series cut or zero-padded to the given order."""
        nums = self.nums[: order + 1]
        return Series.over(nums + (0,) * (order + 1 - len(nums)), self.den)

    def __mul__(self, other: Series) -> Series:
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, x in enumerate(self.nums[: order + 1]):
            if x:
                for j, y in enumerate(other.nums[: order + 1 - i], i):
                    out[j] += x * y
        return Series.over(out, self.den * other.den)

    def __pow__(self, n: int) -> Series:
        if n < 2:  # by squaring
            return self if n else Series.over((1,) + (0,) * self.order, 1)
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    def reciprocal(self) -> Series:
        """Series g with self*g = 1 to the same order; needs nonzero constant
        term.  With self = F/d, g_n = d H_n / F_0^(n+1), where H_0 = 1 and
        H_n = -sum_j F_j F_0^(j-1) H_(n-j) over the nonzero F_j."""
        d, F = self.den, self.nums
        if F[0] == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        steps = [(j, x * F[0] ** (j - 1)) for j, x in enumerate(F) if j and x]
        H = [1]
        for n in range(1, len(F)):
            H.append(-sum(x * H[n - j] for j, x in steps if j <= n))
        N = self.order
        return Series.over([d * h * F[0] ** (N - n) for n, h in enumerate(H)], F[0] ** (N + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        suffix = ", ..." if len(self.nums) > 8 else ""
        return f"Series([{shown}{suffix}])"


def exp_series(order: int) -> Series:
    """exp(x) to the given order: coefficients 1/j!, as order!/j! over order!."""
    nums = list(accumulate(range(order, 0, -1), mul, initial=1))[::-1]
    return Series.over(nums, nums[0])


def eval_series(f: Series, x: Poly) -> Poly:
    """Substitute a linear form x = sum_i w_i u_i / c, as every Chern root,
    into a series: sum f_j * x^j, finite because x is nilpotent.

    With f = F/d it takes one pass over the box: the coefficient at e is
    F_|e| multinomial(e) prod_i w_i^e_i c^(top - |e|) over d c^top, top the
    highest degree kept, the multinomial built one variable at a time.  Any
    other x raises ValueError.
    """
    ring, F = x.ring, f.nums
    if any(sum(e) != 1 for e in x.nums):
        raise ValueError("series substitution requires a linear form")
    top = min(f.order, ring.top_degree)
    w = {e.index(1): c for e, c in x.nums.items()}
    partial = [((), 0, 1)]  # (exponents so far, their degree, multinomial * prod w^e)
    for i, n in enumerate(ring.truncations):
        c = w.get(i, 0)
        partial = [
            (e + (a,), j + a, v * comb(j + a, a) * c**a)
            for e, j, v in partial
            for a in range(min(n - 1, top - j) + 1 if c else 1)
        ]
    nums = {e: F[j] * v * x.den ** (top - j) for e, j, v in partial}
    return Poly._reduced(ring, nums, f.den * x.den**top)


# -- canonical text form ----------------------------------------------------


def render_poly(p: Poly) -> str:
    """Canonical text: terms in descending lex order on exponent tuples.
    Each variable power is rendered once per call and the terms joined once."""
    if not p.terms:
        return "0"
    powers = []
    for i, n in enumerate(p.ring.truncations, 1):
        u = f"u{i}"
        powers.append(["", u, *[f"{u}^{x}" for x in range(2, n)]])
    chunks = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        mon = "*".join(filter(None, map(getitem, powers, e)))
        mag = -c if c < 0 else c
        body = f"{mag}*{mon}" if mon and mag != 1 else mon or str(mag)
        chunks.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def parse_poly(ring: Ring, text: str) -> Poly:
    """Parse the canonical polynomial grammar: signed '*'-joined terms of
    rationals and u<i>[^<e>] factors, e.g. '-1/2*u1^2*u2 + 3*u3'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    pos = 0
    terms: list[tuple[Exponent, int, int]] = []

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
        num, den = (-1 if s[pos] == "-" else 1), 1
        if s[pos] in "+-":
            pos += 1
        exps = [0] * ring.k
        while True:
            if pos < len(s) and s[pos].isdigit():
                num *= read_int()
                if pos < len(s) and s[pos] == "/":
                    pos += 1
                    d = read_int()
                    if not d:
                        raise fail("zero denominator")
                    den *= d
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
        if all(map(lt, exps, ring.truncations)):
            terms.append((tuple(exps), num, den))
        if pos < len(s) and s[pos] not in "+-":
            raise fail("expected '+' or '-' between terms")
    D = lcm(*(d for _, _, d in terms))
    nums: dict[Exponent, int] = {}
    for e, num, den in terms:
        nums[e] = nums.get(e, 0) + num * (D // den)
    return Poly._reduced(ring, nums, D)

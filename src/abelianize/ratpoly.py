"""Exact sparse polynomial arithmetic in truncated rational coefficient rings.

A ring Q[u1,...,uk]/(u1^n1, ..., uk^nk) is described by a `Ring`; its
elements are `Poly` values storing a sparse map from exponent tuples to
rational coefficients.  Every variable has degree 1 (half the cohomological
degree), truncation is applied eagerly on every arithmetic result, and the
zero polynomial is the empty term map, so representations are canonical.

Coefficients are Python ints or `fractions.Fraction`, never floats; integer
results stay ints, which keeps the common all-integer computations fast.
Every exact kernel (both product kernels, the series product and
reciprocal, `eval_series`) clears its denominators once with
`clear_denominators`, runs on Python ints and builds a `Fraction` only for
each output coefficient.

`Series` holds a univariate power series with exact rational coefficients,
long enough to cover a ring's top degree; `eval_series` substitutes a
nilpotent ring element into a series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, product
from math import lcm, prod
from operator import add, getitem, lt, mul
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


def _canonical(terms: dict[Exponent, Coeff]) -> dict[Exponent, Coeff]:
    """The term map with zero coefficients dropped and integral ones as int."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}


def clear_denominators(coeffs: Iterable[Coeff]) -> tuple[int, list[int]]:
    """The lcm d of the coefficients' denominators and each coefficient times
    d, an int: every exact kernel runs on these and divides by d once."""
    coeffs = list(coeffs)
    den = lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _over(nums: dict[Exponent, Coeff], den: int) -> dict[Exponent, Coeff]:
    """The canonical term map of nums / den: zeros dropped, one `Fraction`
    for each coefficient den does not divide."""
    if den == 1:
        return {e: c for e, c in nums.items() if c}
    return {e: c // den if c % den == 0 else Fraction(c, den) for e, c in nums.items() if c}


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
        return Poly(self, {(0,) * self.k: 1})

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

    The term map never stores zero coefficients or monomials that violate the
    ring's truncation, so equal polynomials have identical maps.
    """

    __slots__ = ("ring", "terms")

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
        self.ring = ring
        self.terms = tidy

    @classmethod
    def _trusted(cls, ring: Ring, terms: dict[Exponent, Coeff]) -> Poly:
        """Wrap a term map that is already canonical: in-ring exponent tuples,
        nonzero coefficients, integral ones as int.  Skips every check."""
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * self.ring.k, 0))

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        """Exact coefficient of a monomial; the monomial must be valid in the ring."""
        e = tuple(exponents)
        if not self.ring.valid_exponents(e):
            raise ValueError(f"monomial {e} is not valid in {self.ring!r}")
        return Fraction(self.terms.get(e, 0))

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly._trusted(self.ring, _canonical(out))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly | Coeff) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coeff) -> Poly:
        return (-self) + other

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = normalize_coeff(other)
            if not c:
                return self.ring.zero()
            scaled = {e: cc * c for e, cc in self.terms.items()}
            return Poly._trusted(self.ring, _canonical(scaled))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.product_upto(other, self.ring.top_degree)

    __rmul__ = __mul__

    def product_upto(self, other: Poly, degree: int) -> Poly:
        """The product with every term of total degree above `degree` dropped.

        This is the ring's one multiplication.  The packed kernel's work
        grows with the number of monomials in the ring's box, the loop's with
        the number of term pairs: it loops over term pairs when there are no
        more pairs than monomials, and otherwise multiplies the operands
        packed into two integers.
        """
        self._check_ring(other)
        if len(self.terms) * len(other.terms) <= prod(self.ring.truncations):
            kernel = _product_pairs
        else:
            kernel = _product_packed
        return Poly._trusted(self.ring, kernel(self, other, degree))

    def __truediv__(self, scalar: Coeff) -> Poly:
        if not isinstance(scalar, (int, Fraction)) or scalar == 0:
            raise ValueError(f"can only divide by a nonzero exact scalar, got {scalar!r}")
        return self * (Fraction(1) / Fraction(scalar))

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
        """Multiplicative inverse; exists iff the constant term c is nonzero.
        Built degree by degree: with p_j the degree-j part of p, the degree-d
        part of the inverse is g_d = -(1/c) sum_{j=1..d} p_j g_{d-j}."""
        ring, c = self.ring, self.constant_term()
        if c == 0:
            raise ValueError("polynomial with zero constant term is not invertible")
        terms: list[dict[Exponent, Coeff]] = [{} for _ in range(ring.top_degree + 1)]
        for e, x in self.terms.items():
            terms[sum(e)][e] = x
        p = [Poly._trusted(ring, t) for t in terms]
        g = [ring.constant(1 / c)]
        for d in range(1, ring.top_degree + 1):
            parts = (p[j].product_upto(g[d - j], d) for j in range(1, d + 1) if p[j].terms)
            g.append(sum(parts, ring.zero()) * (-1 / c))
        return Poly._trusted(ring, {e: x for part in g for e, x in part.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"<{render_poly(self)}>"


# -- the two multiplication kernels of Poly.product_upto --------------------


def _product_pairs(p: Poly, q: Poly, degree: int) -> dict[Exponent, Coeff]:
    """Canonical term map of p*q up to `degree`, one term pair at a time, on
    the operands' integer numerators over the product of their denominators.

    The right operand's terms are visited by increasing degree so each left
    term stops early.
    """
    truncs = p.ring.truncations
    den_p, nums_p = clear_denominators(p.terms.values())
    den_q, nums_q = clear_denominators(q.terms.values())
    right = sorted(zip(map(sum, q.terms), q.terms, nums_q))
    out: dict[Exponent, int] = {}
    for e1, c1 in zip(p.terms, nums_p):
        room = degree - sum(e1)
        for d2, e2, c2 in right:
            if d2 > room:
                break
            e = tuple(map(add, e1, e2))
            if all(map(lt, e, truncs)):
                out[e] = out.get(e, 0) + c1 * c2
    return _over(out, den_p * den_q)


@lru_cache(maxsize=8)
def _slot_layout(truncations: Exponent):
    """Where `_product_packed` puts each monomial of a ring.

    Variable u_{i+1} has stride prod_{j<i} (2 n_j - 1).  Two in-ring
    exponents of one variable add to at most 2 n_i - 2, so slot indices add
    without carrying from one variable into the next.  Returns the strides,
    every in-ring monomial ordered by degree, their slot indices in the same
    order, and for each degree d the number of monomials of degree <= d.
    """
    strides = tuple(accumulate((2 * n - 1 for n in truncations[:-1]), mul, initial=1))
    monomials = tuple(sorted(product(*map(range, truncations)), key=sum))
    slots = tuple(sum(map(mul, e, strides)) for e in monomials)
    per_degree = [0] * (sum(truncations) - len(truncations) + 1)
    for e in monomials:
        per_degree[sum(e)] += 1
    return strides, monomials, slots, tuple(accumulate(per_degree))


def _numerators(p: Poly, strides: Exponent, degree: int) -> tuple[int, list[tuple[int, int]]]:
    """`clear_denominators` of p's terms of degree <= `degree`, each numerator
    with its slot, u_i having stride strides[i]."""
    kept = [e for e in p.terms if sum(e) <= degree]
    den, nums = clear_denominators(map(p.terms.__getitem__, kept))
    return den, [(sum(map(mul, e, strides)), v) for e, v in zip(kept, nums)]


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


def _product_packed(p: Poly, q: Poly, degree: int) -> dict[Exponent, Coeff]:
    """Canonical term map of p*q up to `degree`, by Kronecker substitution.

    Both operands, their denominators cleared, become one integer each with
    a fixed-width signed slot per monomial (`_slot_layout`);
    one big-integer product holds every coefficient of p*q.  A slot of the
    product sums at most min(#p, #q) pairs, so its value lies within bound =
    min(#p, #q) * max|p| * max|q|, and `width` bytes with one sign bit to
    spare hold it.  Adding 2**(8*width - 1) to every slot makes each one a
    nonnegative byte string, so one `to_bytes` decodes them all.
    """
    if degree < 0 or not p.terms or not q.terms:
        return {}
    strides, monomials, slots, ends = _slot_layout(p.ring.truncations)
    den_p, nums_p = _numerators(p, strides, degree)
    den_q, nums_q = _numerators(q, strides, degree)
    if not nums_p or not nums_q:
        return {}
    bound = (
        min(len(nums_p), len(nums_q))
        * max(abs(v) for _, v in nums_p)
        * max(abs(v) for _, v in nums_q)
    )
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    # the top monomial comes last and has the largest in-ring slot
    span = max(max(s for s, _ in nums_p) + max(s for s, _ in nums_q), slots[-1]) + 1
    offset = int.from_bytes(half.to_bytes(width, "little") * span, "little")
    raw = (_pack(nums_p, width) * _pack(nums_q, width) + offset).to_bytes(span * width, "little")
    out = {
        e: int.from_bytes(raw[s * width : (s + 1) * width], "little") - half
        for s, e in zip(islice(slots, ends[min(degree, len(ends) - 1)]), monomials)
    }
    return _over(out, den_p * den_q)


# -- free functions over Poly ----------------------------------------------


def elementary_symmetric(ring: Ring, i: int) -> Poly:
    """The i-th elementary symmetric polynomial of the ring variables."""
    if not 0 <= i <= ring.k:
        raise ValueError(f"elementary symmetric index {i} out of range 0..{ring.k}")
    from itertools import combinations

    terms: dict[Exponent, Coeff] = {}
    for combo in combinations(range(ring.k), i):
        e = [0] * ring.k
        for j in combo:
            e[j] = 1
        terms[tuple(e)] = 1
    return Poly(ring, terms)


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


def permute_poly(p: Poly, perm: Sequence[int]) -> Poly:
    perm = check_permutation(perm, p.ring.k)
    return Poly(p.ring, {permute_exponents(e, perm): c for e, c in p.terms.items()})


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
    """Coefficients c_0..c_D of an exact univariate power series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff]):
        self.coeffs = tuple(normalize_coeff(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Coeff:
        return self.coeffs[0]

    def truncated(self, order: int) -> Series:
        """Same series cut or zero-padded to the given order."""
        cs = self.coeffs[: order + 1]
        if len(cs) < order + 1:
            cs = cs + (0,) * (order + 1 - len(cs))
        return Series(cs)

    def __mul__(self, other: Series) -> Series:
        order = min(self.order, other.order)
        den_a, a = clear_denominators(self.coeffs[: order + 1])
        den_b, b = clear_denominators(other.coeffs[: order + 1])
        out = [0] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[: order + 1 - i], i):
                    out[j] += x * y
        return Series(Fraction(c, den_a * den_b) for c in out)

    def reciprocal(self) -> Series:
        """Series g with self*g = 1 to the same order; needs nonzero constant
        term.  With self = F/d, F integral, g_n = d H_n / F_0^(n+1), where H_0
        = 1 and H_n = -sum_j F_j F_0^(j-1) H_(n-j) over the nonzero F_j."""
        d, F = clear_denominators(self.coeffs)
        if F[0] == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        steps = [(j, x * F[0] ** (j - 1)) for j, x in enumerate(F) if j and x]
        H = [1]
        for n in range(1, len(F)):
            H.append(-sum(x * H[n - j] for j, x in steps if j <= n))
        return Series(Fraction(d * h, F[0] ** (n + 1)) for n, h in enumerate(H))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        suffix = ", ..." if len(self.coeffs) > 8 else ""
        return f"Series([{shown}{suffix}])"


def exp_series(order: int) -> Series:
    """exp(x) to the given order: coefficients 1/j!."""
    coeffs: list[Coeff] = [1]
    fact = 1
    for j in range(1, order + 1):
        fact *= j
        coeffs.append(Fraction(1, fact))
    return Series(coeffs)


def eval_series(f: Series, x: Poly) -> Poly:
    """Substitute a nilpotent ring element into a series: sum f_j * x^j.

    Finite because x is nilpotent; x must have zero constant term.  With f =
    F/d, F integral, the sum of F_j x^j is divided by d once.
    """
    if x.constant_term() != 0:
        raise ValueError("series substitution requires a zero constant term")
    d, F = clear_denominators(f.coeffs)
    acc = x.ring.constant(F[0])
    power = x.ring.one()
    for c in F[1:]:
        power = power * x
        if power.is_zero():
            break
        if c:
            acc = acc + power * c
    return Poly._trusted(x.ring, _over(acc.terms, d))


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
        saw_factor = False
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
                saw_factor = True
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
                saw_factor = True
            else:
                raise fail("expected a rational or a variable factor")
            if pos < len(s) and s[pos] == "*":
                pos += 1
                continue
            break
        if not saw_factor:
            raise fail("empty term")
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
        if pos < len(s) and s[pos] not in "+-":
            raise fail("expected '+' or '-' between terms")
    return Poly(ring, terms)

"""Exact sparse polynomial arithmetic in truncated rational coefficient rings.

A ring Q[u1,...,uk]/(u1^n1, ..., uk^nk) is described by a `Ring`; its
elements are `Poly` values storing a sparse map from exponent tuples to
rational coefficients.  Every variable has degree 1 (half the cohomological
degree), truncation is applied eagerly on every arithmetic result, and the
zero polynomial is the empty term map, so representations are canonical.

Coefficients are Python ints or `fractions.Fraction`, never floats; integer
results stay ints, which keeps the common all-integer computations fast.

`Series` holds a univariate power series with exact rational coefficients,
long enough to cover a ring's top degree; `eval_series` substitutes a
nilpotent ring element into a series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, product
from math import lcm, prod
from operator import add, itemgetter, lt, mul
from typing import Iterable, Iterator, Sequence

Exponent = tuple[int, ...]
Coeff = int | Fraction
Perm = tuple[int, ...]

#: `Poly.product_upto` runs the term-pair loop when the smaller operand has at
#: most this many terms and the packed-integer kernel otherwise.  Timing both
#: kernels on every product of a pass of each perfbench workload, any value
#: from 6 to 17 gives the least total; below 6 the packed kernel's fixed cost
#: shows, and at 18 the 18-term root factors of G(4,6) go to the slower loop.
PAIR_LOOP_MAX_TERMS = 16


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
        """All truncation-respecting exponent tuples of total degree d, lex descending."""

        def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[Exponent]:
            if i == self.k:
                if remaining == 0:
                    yield prefix
                return
            hi = min(remaining, self.truncations[i] - 1)
            for x in range(hi, -1, -1):
                yield from rec(i + 1, remaining - x, prefix + (x,))

        if d < 0:
            return
        yield from rec(0, d, ())


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

        This is the ring's one multiplication.  When either operand has at
        most `PAIR_LOOP_MAX_TERMS` terms it loops over term pairs; otherwise
        it multiplies the operands packed into two integers.  The packed
        kernel's work grows with the number of monomials in the ring's box,
        the loop's with the number of term pairs, so the loop also runs when
        there are no more pairs than monomials.
        """
        self._check_ring(other)
        a, b = len(self.terms), len(other.terms)
        if min(a, b) <= PAIR_LOOP_MAX_TERMS or a * b <= prod(self.ring.truncations):
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
        """Multiplicative inverse; exists iff the constant term is nonzero.

        Writes p = c*(1 - q) with q nilpotent and sums the geometric series,
        which terminates at the ring's top degree.
        """
        c = self.constant_term()
        if c == 0:
            raise ValueError("polynomial with zero constant term is not invertible")
        q = self.ring.one() - self * (Fraction(1) / c)
        acc = self.ring.one()
        power = self.ring.one()
        for _ in range(self.ring.top_degree):
            power = power * q
            if power.is_zero():
                break
            acc = acc + power
        return acc * (Fraction(1) / c)

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
    """Canonical term map of p*q up to `degree`, one term pair at a time.

    The right operand's terms are visited by increasing degree so each left
    term stops early.
    """
    truncs = p.ring.truncations
    right = sorted((sum(e), e, c) for e, c in q.terms.items())
    out: dict[Exponent, Coeff] = {}
    for e1, c1 in p.terms.items():
        room = degree - sum(e1)
        for d2, e2, c2 in right:
            if d2 > room:
                break
            e = tuple(map(add, e1, e2))
            if all(map(lt, e, truncs)):
                out[e] = out.get(e, 0) + c1 * c2
    return _canonical(out)


@lru_cache(maxsize=8)
def _slot_layout(truncations: Exponent):
    """Where `_product_packed` puts each monomial of a ring.

    The variable in position i has stride prod_{j<i} (2 n_j - 1).  Two
    in-ring exponents of one variable add to at most 2 n_i - 2, so slot
    indices add without carrying from one position into the next.  Returns
    the strides, every in-ring monomial (in position order) ordered by
    degree, their slot indices in the same order, and for each degree d the
    number of monomials of degree <= d.
    """
    strides = tuple(accumulate((2 * n - 1 for n in truncations[:-1]), mul, initial=1))
    monomials = tuple(sorted(product(*map(range, truncations)), key=sum))
    slots = tuple(sum(map(mul, e, strides)) for e in monomials)
    per_degree = [0] * (sum(truncations) - len(truncations) + 1)
    for e in monomials:
        per_degree[sum(e)] += 1
    return strides, monomials, slots, tuple(accumulate(per_degree))


def _placement(p: Poly, q: Poly) -> Exponent:
    """The layout position of each variable for the product p*q.

    The big-integer product costs about (size of the larger packed operand)
    * (size of the smaller)**0.585, and an operand's size is set by its
    highest slot.  So the variables that the operand with fewer terms raises
    highest take the smallest strides; a factor in two variables then packs
    short however the ring numbers them.  Only variables of equal truncation
    trade positions, which keeps the ring's one layout valid.
    """
    truncs = p.ring.truncations
    reach = [max(x) for x in zip(*min(p.terms, q.terms, key=len))]
    place = [0] * len(truncs)
    for n in set(truncs):
        positions = [i for i, m in enumerate(truncs) if m == n]
        for position, var in zip(positions, sorted(positions, key=lambda i: -reach[i])):
            place[var] = position
    return tuple(place)


def _numerators(p: Poly, strides: Exponent, degree: int) -> tuple[int, list[tuple[int, int]]]:
    """The lcm of p's denominators and (slot, integer numerator) for each
    term of degree <= `degree`, u_i having stride strides[i]."""
    kept = [(e, c) for e, c in p.terms.items() if sum(e) <= degree]
    den = lcm(*(c.denominator for _, c in kept))
    return den, [(sum(map(mul, e, strides)), c.numerator * (den // c.denominator)) for e, c in kept]


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
    a fixed-width signed slot per monomial (`_slot_layout`, `_placement`);
    one big-integer product holds every coefficient of p*q.  A slot of the
    product sums at most min(#p, #q) pairs, so its value lies within bound =
    min(#p, #q) * max|p| * max|q|, and `width` bytes with one sign bit to
    spare hold it.  Adding 2**(8*width - 1) to every slot makes each one a
    nonnegative byte string, so one `to_bytes` decodes them all.
    """
    if degree < 0 or not p.terms or not q.terms:
        return {}
    strides, monomials, slots, ends = _slot_layout(p.ring.truncations)
    place = _placement(p, q)
    var_strides = tuple(strides[i] for i in place)
    den_p, nums_p = _numerators(p, var_strides, degree)
    den_q, nums_q = _numerators(q, var_strides, degree)
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
    if place != tuple(range(len(place))):
        monomials = map(itemgetter(*place), monomials)  # back from position order
    den = den_p * den_q
    out: dict[Exponent, Coeff] = {}
    for s, e in zip(islice(slots, ends[min(degree, len(ends) - 1)]), monomials):
        i = s * width
        c = int.from_bytes(raw[i : i + width], "little") - half
        if c:
            if den != 1:
                c = Fraction(c, den)
                if c.denominator == 1:
                    c = c.numerator
            out[e] = c
    return out


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


def compose_permutations(a: Perm, b: Perm) -> Perm:
    """The permutation 'apply b, then a'."""
    return tuple(a[b[i]] for i in range(len(a)))


def permute_exponents(e: Exponent, perm: Perm) -> Exponent:
    """Push exponents along u_i -> u_{perm[i]}."""
    out = [0] * len(e)
    for i, x in enumerate(e):
        out[perm[i]] = x
    return tuple(out)


def permute_poly(p: Poly, perm: Sequence[int]) -> Poly:
    perm = check_permutation(perm, p.ring.k)
    return Poly(p.ring, {permute_exponents(e, perm): c for e, c in p.terms.items()})


def generate_permutation_group(
    generators: Iterable[Sequence[int]], k: int, limit: int | None = None
) -> list[Perm]:
    """Enumerate the full group generated by permutations, identity included.
    With a limit, stop as soon as more than `limit` elements are found."""
    gens = [check_permutation(g, k) for g in generators]
    identity = tuple(range(k))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                composed = compose_permutations(h, g)
                if composed not in seen:
                    seen.add(composed)
                    nxt.append(composed)
                    if limit is not None and len(seen) > limit:
                        return sorted(seen)
        frontier = nxt
    return sorted(seen)


def exponent_orbit(e: Exponent, generators: Sequence[Perm]) -> frozenset[Exponent]:
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
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    def reciprocal(self) -> Series:
        """Series g with self*g = 1 to the same order; needs nonzero constant term."""
        f0 = self.coeffs[0]
        if f0 == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        inv0 = Fraction(1) / Fraction(f0)
        out: list[Coeff] = [normalize_coeff(inv0)]
        for n in range(1, len(self.coeffs)):
            s = sum(self.coeffs[j] * out[n - j] for j in range(1, n + 1))
            out.append(normalize_coeff(-inv0 * s))
        return Series(out)

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

    Finite because x is nilpotent; x must have zero constant term.
    """
    if x.constant_term() != 0:
        raise ValueError("series substitution requires a zero constant term")
    acc = x.ring.constant(f.coeffs[0])
    power = x.ring.one()
    for j in range(1, len(f.coeffs)):
        power = power * x
        if power.is_zero():
            break
        c = f.coeffs[j]
        if c:
            acc = acc + power * c
    return acc


# -- canonical text form ----------------------------------------------------


def _render_monomial(e: Exponent) -> str:
    parts = []
    for i, x in enumerate(e):
        if x == 1:
            parts.append(f"u{i + 1}")
        elif x > 1:
            parts.append(f"u{i + 1}^{x}")
    return "*".join(parts)


def render_poly(p: Poly) -> str:
    """Canonical text: terms in descending lex order on exponent tuples."""
    if not p.terms:
        return "0"
    chunks = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        mon = _render_monomial(e)
        mag = abs(c)
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = mon
        else:
            body = f"{mag}*{mon}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


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

"""Torus-quotient models and integration of lifted classes.

A `QuotientModel` packages everything the integration formulas need: the
truncated ring presenting the torus quotient's cohomology, root data for the
nonabelian group, the (split) tangent bundle of the torus quotient and an
orbifold prefactor.  W acts only through the root data: the model asks
`RootData.moved` once whether W moves the truncations or the tangent
summands, and the root data checks a subgroup and builds its complement.

Every formula is one prefactor, `QuotientModel.prefactor`, times one torus
integral.  Integration over the nonabelian quotient multiplies a lifted class
by the product e of all root Euler classes and divides by the Weyl group
order.  The full-rank-subgroup variant is the same formulas on another model,
`QuotientModel.relative`: the complement roots and the ratio of Weyl orders.
A torus integral is a sum over fixed points, `point_weights` of `all_points`
or, where the roots' reflections fix the class, of `orbit_points` (one point
per Weyl orbit, its count times |W|): `integrate_points` for a class given
as a series and bundles, `chern_pairings` and the Gram matrices for Chern
monomials and invariants, at the model's `e_points`, built once a model.
Only an explicit lift takes products: `integrate_torus` reads the top-monomial
coefficient of a product of `Poly` factors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, repeat
from math import comb, factorial, lcm, prod
from operator import add, getitem, itemgetter, mul, sub
from typing import Iterable, Sequence

from .ratpoly import Perm, Poly, Ring, Series, check_permutation, clear_denominators, rat
from .rootdata import RootData, Subgroup, as_weight, e_product, one_based, unitary_roots


class SplitBundle:
    """A formal integer combination of line bundles over the model's ring.

    Each summand is (weight, multiplicity): a line is its torus weight, an
    integer vector whose Chern root sum_i w_i u_i is formed only where a
    class is evaluated (the zero weight is a trivial line); multiplicities
    may be negative for virtual bundles.  An entry on a variable truncated
    at 1 is stored as 0, since u_i = 0 there: equal weights, equal roots.
    """

    __slots__ = ("ring", "summands")

    def __init__(self, ring: Ring, summands: Iterable[tuple[Sequence[int], int]]):
        tidy = []
        for w, mult in summands:
            w = as_weight(w, ring.k)
            w = tuple(x if n > 1 else 0 for x, n in zip(w, ring.truncations))
            if not isinstance(mult, int):
                raise ValueError(f"multiplicity must be an integer, got {mult!r}")
            if mult:
                tidy.append((w, mult))
        self.ring = ring
        self.summands = tuple(tidy)

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.summands)

    def multiplicities(self) -> dict:
        """Total multiplicity of each distinct weight, zeros dropped."""
        out: dict = {}
        for w, mult in self.summands:
            out[w] = out.get(w, 0) + mult
        return {w: v for w, v in out.items() if v}

    def __add__(self, other: SplitBundle) -> SplitBundle:
        if self.ring != other.ring:
            raise ValueError("cannot add bundles over different rings")
        return SplitBundle(self.ring, self.summands + other.summands)

    def tensor(self, other: SplitBundle) -> SplitBundle:
        """Tensor product of split bundles: weights add, multiplicities multiply."""
        if self.ring != other.ring:
            raise ValueError("cannot tensor bundles over different rings")
        return SplitBundle(
            self.ring,
            [
                (tuple(map(add, w1, w2)), m1 * m2)
                for w1, m1 in self.summands
                for w2, m2 in other.summands
            ],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SplitBundle):
            return NotImplemented
        return self.ring == other.ring and self.summands == other.summands

    def __repr__(self) -> str:
        inside = ", ".join(f"{w}x{m}" for w, m in self.summands)
        return f"SplitBundle[{inside}]"


class QuotientModel:
    """A torus-quotient presentation ready for the integration formulas."""

    __slots__ = (
        "ring",
        "root_data",
        "tangent_bundle",
        "orbifold_prefactor",
        "weyl_action",
        "subgroup",
        "_e_cache",
        "_points",
    )

    def __init__(
        self,
        ring: Ring,
        root_data: RootData,
        tangent_bundle: SplitBundle,
        orbifold_prefactor: int | Fraction = 1,
        weyl_action: Sequence[Perm] | None = None,
        subgroup: Subgroup | None = None,
    ):
        if root_data.rank != ring.k:
            raise ValueError(
                f"root data rank {root_data.rank} does not match {ring.k} ring variables"
            )
        if tangent_bundle.ring != ring:
            raise ValueError("tangent bundle lives in the wrong ring")
        if tangent_bundle.rank != ring.top_degree:
            raise ValueError(
                f"tangent bundle rank {tangent_bundle.rank} does not match the "
                f"torus quotient dimension {ring.top_degree}"
            )
        prefactor = rat(orbifold_prefactor)
        if prefactor <= 0:
            raise ValueError("orbifold prefactor must be positive")
        if (g := root_data.moved({ring.truncations: 1})) is not None:
            raise ValueError(
                f"Weyl generator {one_based(g)} does not preserve the truncation "
                f"exponents {list(ring.truncations)}"
            )
        if (g := root_data.moved(tangent_bundle.multiplicities())) is not None:
            raise ValueError(f"Weyl generator {one_based(g)} moves the tangent summands")
        action = root_data.weyl_generators  # in W by definition
        if weyl_action is not None:
            action = tuple(check_permutation(g, ring.k) for g in weyl_action)
            for g in action:
                if g not in root_data:
                    raise ValueError(f"weyl_action generator {one_based(g)} is not in W")
        if len(root_data.roots) > ring.top_degree:
            raise ValueError("more roots than the torus quotient dimension allows")
        self.root_data = root_data
        if subgroup is not None:
            root_data.check_subgroup(subgroup)
        self.ring = ring
        self.tangent_bundle = tangent_bundle
        self.orbifold_prefactor = prefactor
        self.weyl_action = action
        self.subgroup = subgroup
        self._e_cache: dict = {}
        self._points: tuple[list[tuple[tuple[int, ...], int]], int] | None = None

    @property
    def quotient_dim(self) -> int:
        """Complex dimension of the nonabelian quotient."""
        return self.ring.top_degree - len(self.root_data.roots)

    def e_class(self) -> Poly:
        """Product of the Euler classes of all roots."""
        # A dict with the one key None, not a plain attribute: the benchmark
        # tracer (perfbench/tracer.py) counts hits by probing `None in _e_cache`.
        if None not in self._e_cache:
            self._e_cache[None] = e_product(self.ring, self.root_data.roots)
        return self._e_cache[None]

    def e_points(self) -> tuple[list[tuple[tuple[int, ...], int]], int]:
        """`point_weights` of e at `orbit_points`, or at `all_points` where the
        gate refuses the model: the points every pairing of W-invariants sums
        over, built on first use and kept with the model, which a query
        builds once."""
        if self._points is None:
            points = orbit_points(self) or all_points(self.ring)
            self._points = point_weights(self, points, self.root_data.roots)
        return self._points

    def prefactor(self) -> Fraction:
        """The orbifold prefactor over the Weyl group order."""
        return Fraction(1, self.root_data.weyl_order) * self.orbifold_prefactor

    def relative(self) -> QuotientModel:
        """The model of the full-rank-subgroup formulas: the root data's
        `complement` of the subgroup H, and the orbifold prefactor times
        |W(H)|/|W(G)| times the complement's |W|, so that `prefactor` is the
        ratio.  For H = T and W = prod S_|b|, that is the model's own roots, |W|
        and prefactor."""
        if self.subgroup is None:
            raise ValueError("the model carries no subgroup")
        rd, complement = self.root_data, self.root_data.complement(self.subgroup)
        ratio = Fraction(self.subgroup.weyl_order * complement.weyl_order, rd.weyl_order)
        prefactor = ratio * self.orbifold_prefactor
        return QuotientModel(self.ring, complement, self.tangent_bundle, prefactor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientModel):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.root_data == other.root_data
            and self.tangent_bundle == other.tangent_bundle
            and self.orbifold_prefactor == other.orbifold_prefactor
            and self.weyl_action == other.weyl_action
            and self.subgroup == other.subgroup
        )

    def __repr__(self) -> str:
        return f"QuotientModel(ring={self.ring!r}, roots={len(self.root_data.roots)})"


def grassmannian_model(k: int, n: int) -> QuotientModel:
    """The Grassmannian of k-planes in C^n as a unitary quotient, presented
    through the k-fold product of projective (n-1)-spaces.

    The tangent bundle uses the Euler-sequence splitting: n copies of each
    hyperplane line per factor (the unit weights) minus k trivial lines, so
    its total Chern class is the product of (1+u_i)^n.
    """
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    ring = Ring(k, [n] * k)
    summands = [(tuple(int(i == j) for j in range(k)), n) for i in range(k)] + [((0,) * k, -k)]
    return QuotientModel(ring, unitary_roots(k), SplitBundle(ring, summands))


def integrate_torus(m: QuotientModel, p: Poly, *factors: Poly) -> Fraction:
    """Integral over the torus quotient of the product of the factors: its
    top-monomial coefficient, the one place a top coefficient is read.

    The product is never formed in full.  Factors are taken smallest first;
    each partial product keeps only the degrees that can still reach the top
    once the lowest degrees of the remaining factors are added, and the
    largest factor is paired with it by complementary exponents.
    """
    factors = sorted((p, *factors), key=lambda f: len(f.terms))
    if any(f.ring != m.ring for f in factors):
        raise ValueError("polynomial lives in the wrong ring")
    if not factors[0].terms:  # sorted, so a zero factor comes first
        return Fraction(0)
    top = m.ring.top_exponents
    *head, last = factors
    if not head:
        return Fraction(last.terms.get(top, 0))
    lows = [min(map(sum, f.terms)) for f in factors]
    degree = m.ring.top_degree - sum(lows[1:])  # highest degree that can still reach the top
    acc = head[0]
    for f, low in zip(head[1:], lows[1:]):
        degree += low
        acc = acc.product_upto(f, degree)
    pair = last.terms.get
    return Fraction(sum(c * pair(tuple(map(sub, top, e)), 0) for e, c in acc.terms.items()))


def orbit_points(m: QuotientModel, *bundles: SplitBundle) -> dict[tuple[int, ...], int] | None:
    """The fixed points a of prod P^{n_i - 1} (u_i at the a_i-th weight)
    that the point sums run over for a Weyl-invariant class, each with the
    number of points it stands for, or None where that is not exact.  A shape
    test: the roots must form blocks, so that W = prod S_|b| is the group
    their reflections generate (a relative model's complement roots may
    not), and W must fix every given bundle (`RootData.moved`); the model
    has checked the truncations and the tangent.  A point with two equal
    entries in a block is a zero of a root; every other orbit is free, |W|
    points, one increasing along each block: `all_points` of the blocks,
    times |W|."""
    rd = m.root_data
    if rd.blocks is None or any(rd.moved(V.multiplicities()) is not None for V in bundles):
        return None
    return {a: count * rd.weyl_order for a, count in all_points(m.ring, rd.blocks).items()}


def all_points(ring: Ring, blocks: Sequence[tuple[int, ...]] = ()) -> dict[tuple[int, ...], int]:
    """Every fixed point a of prod P^{n_i - 1} (u_i at the a_i-th weight),
    or, given blocks of variables, the points increasing along each block;
    one per mirror pair a, n - 1 - a, counted 2, or 1 where a is its own
    mirror.  The mirror, an involution, negates every weight, which
    multiplies a top-degree class and the point's denominator by (-1)^top."""
    blocks = blocks or [(i,) for i in range(ring.k)]
    flats: list = []  # each point in block order with its mirror
    for b in blocks:
        top = ring.truncations[b[0]] - 1
        combos = combinations(range(top + 1), len(b))
        pairs = [(c, tuple([top - x for x in c[::-1]])) for c in combos]
        flats = [(a + c, r + s) for a, r in flats for c, s in pairs] if flats else pairs
    variables = sum(blocks, ())
    if variables != tuple(range(ring.k)):
        place = itemgetter(*map(variables.index, range(ring.k)))
        flats = [(place(a), place(r)) for a, r in flats]
    return {a: 1 if a == r else 2 for a, r in flats if a <= r}


def point_weights(
    m: QuotientModel, points: dict[tuple[int, ...], int], roots: Sequence[Sequence[int]]
) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Localization at `points` of a top-degree class c times e, e the product
    of the Euler classes of `roots`: the torus weights t_i = 2a_i - (n_i - 1)
    of each point a with e(t) != 0 and its weight w = count * e(t) * prod_i
    C(n_i - 1, a_i) (-1)^{n_i - 1 - a_i}, and den = 2^top prod_i (n_i - 1)!,
    so that the integral is sum w c(t) / den, as prod_{b != a}(t_a - t_b) =
    2^{n-1} a! (n-1-a)! (-1)^{n-1-a} on P^{n-1}."""
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


def integrate_points(
    m: QuotientModel,
    points: dict[tuple[int, ...], int],
    roots: Sequence[Sequence[int]],
    f: Series,
    V: SplitBundle,
    twist: SplitBundle | None = None,
) -> Fraction:
    """Integral over the torus quotient of ch(twist) * f(V) * e, e the product
    of the Euler classes of `roots` and f a series with constant term 1, as a
    sum over `point_weights` (Atiyah-Bott).  Chern roots scaled by lam, the
    class at t is ch(twist)(lam) exp(sum_j l_j p_j lam^j) at lam^N, N = top
    - #roots, l = log f and p_j the j-th power sum of V's weights at t.  With
    c the lcm of the denominators of (j-1)! j l_j, K_n = n! c^n [lam^n]
    exp(...) = sum_j C(n-1, j-1) c^j (j-1)! j l_j p_j K_{n-j} over the j with
    l_j != 0.  With f = F/d, F integral, x F' = F * sum_j j l_j x^j gives j l_j
    = L_j / F_0^j in one integer recurrence."""
    N = m.ring.top_degree - len(roots)
    _, F = clear_denominators(f.truncated(N).coeffs)
    s = [0] + [x * F[0] ** (i - 1) for i, x in enumerate(F[1:], 1)]
    L = [0]  # L_j = j s_j - sum_i s_i L_{j-i}, s_i = F_i F_0^(i-1)
    for j in range(1, N + 1):
        L.append(j * s[j] - sum(map(mul, s[1:j], reversed(L[1:]))))
    scaled = [Fraction(factorial(j - 1) * x, F[0] ** j) for j, x in enumerate(L[1:], 1)]
    c = lcm(*(x.denominator for x in scaled))
    H = [x.numerator * (c**j // x.denominator) for j, x in enumerate(scaled, 1)]
    # K_n's terms as (C(n-1, j-1) H_j, n - j), j = i + 1, the zero H_j left out
    steps = [
        [(comb(n - 1, i) * h, n - 1 - i) for i, h in enumerate(H[:n]) if h] for n in range(N + 1)
    ]
    ch_scale = [comb(N, j) * c**j for j in range(N + 1)]
    powers: dict[tuple[int, int], list[int]] = {}

    def power_sums(bundle: SplitBundle, t: list[int]) -> list[int]:
        sums = [0] * (N + 1)
        for w, mult in bundle.summands:
            row = (sum(map(mul, w, t)), mult)  # mult * (w . t)^j, j = 0..N
            if row not in powers:
                powers[row] = list(accumulate(repeat(row[0], N), mul, initial=mult))
            sums = list(map(add, sums, powers[row]))
        return sums

    pts, den = point_weights(m, points, roots)
    total = 0
    for t, w in pts:
        p = power_sums(V, t)
        K = [1]
        for n in range(1, N + 1):
            K.append(sum(b * p[n - i] * K[i] for b, i in steps[n]))
        ch = power_sums(twist, t) if twist is not None else [1]
        total += w * sum(map(mul, map(mul, ch_scale, ch), reversed(K)))
    return Fraction(total, den * factorial(N) * c**N)


def integrate_group(m: QuotientModel, lift: Poly) -> Fraction:
    """Integral over the nonabelian quotient of a class with the given lift:
    the model's prefactor times the torus integral of lift * e, where e is
    the product of root Euler classes."""
    return m.prefactor() * integrate_torus(m, lift, m.e_class())


def chern_pairing(m: QuotientModel, exponents: Sequence[int]) -> Fraction:
    """Pairing of a monomial prod c_i^{m_i} in dual-tautological Chern
    classes: the group integral of prod e_i^{m_i}, e_i the elementary
    symmetric polynomials of the ring variables."""
    return chern_pairings(m, [exponents])[0]


def chern_pairings(m: QuotientModel, rows: Sequence[Sequence[int]]) -> list[Fraction]:
    """`chern_pairing` of each exponent vector, from one point set: 0 where
    sum_i i m_i != q (the point sum is exact in top degree only), else the
    prefactor times sum w prod_i e_i(t)^{m_i} / den over `QuotientModel.e_points`."""
    ring = m.ring
    for exps in rows:
        if len(exps) != ring.k:
            raise ValueError(f"expected {ring.k} exponents, got {len(exps)}")
        if any(x < 0 for x in exps):
            raise ValueError(f"negative exponent in {exps}")
    if len(set(ring.truncations)) != 1:
        raise ValueError("chern pairings need equal truncation exponents in every variable")
    top = [sum(i * x for i, x in enumerate(exps, 1)) == m.quotient_dim for exps in rows]
    pts, den = m.e_points() if any(top) else ([], 1)
    at = []
    for t, w in pts:
        e = [1]
        for x in t:  # e_i(t), read off prod_j (1 + t_j x)
            e = [a + x * b for a, b in zip([*e, 0], [0, *e])]
        at.append((w, e[1:]))
    scale = m.prefactor() / den
    return [
        scale * sum(w * prod(map(pow, e, exps)) for w, e in at) if on else Fraction(0)
        for exps, on in zip(rows, top)
    ]

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
A torus integral is a sum over `all_points`, or over one point per orbit of
a Young subgroup that fixes the class, counted by the orbit's size (W's for
`orbit_points`), laid out by `point_weights` as columns over the points.
`integrate_points` sums a class given by a series' log-derivative and
bundles over all its points at once, each degree of the exponential one
primitive integer column with its content kept as two ints.
`chern_pairings` and the Gram matrices sum Chern monomials (`chern_sums`,
e_j(t_b) one column over the points, one variable at a time) and invariants
at the model's `e_points`, built once a model.  `integrate_torus` pairs a
lift with e by complementary exponents; only a third factor takes a product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, compress, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, getitem, itemgetter, mul, sub
from typing import Iterable, Sequence

from .ratpoly import Perm, Poly, Ring, Series, check_permutation, rat
from .rootdata import Blocks, RootData, Subgroup, as_weight, e_product, one_based, unitary_roots


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

    @classmethod
    def _trusted(cls, ring: Ring, summands: tuple) -> SplitBundle:
        """Summands already tidy, as a model's own weights are: no checks."""
        V = object.__new__(cls)
        V.ring, V.summands = ring, summands
        return V

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
        if subgroup is not None:
            root_data.check_subgroup(subgroup)
        self._set(ring, root_data, tangent_bundle, prefactor, action, subgroup)

    def _set(self, ring, root_data, tangent_bundle, prefactor, action, subgroup) -> None:
        self.ring, self.root_data, self.tangent_bundle = ring, root_data, tangent_bundle
        self.orbifold_prefactor, self.weyl_action, self.subgroup = prefactor, action, subgroup
        self._e_cache: dict = {}
        self._points: tuple[list[list[int]], list[int], int, dict] | None = None

    @classmethod
    def _trusted(cls, ring: Ring, root_data: RootData, tangent_bundle: SplitBundle) -> QuotientModel:
        """A built-in model, valid by construction: none of `__init__`'s checks."""
        m = object.__new__(cls)
        m._set(ring, root_data, tangent_bundle, Fraction(1), root_data.weyl_generators, None)
        return m

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

    def e_points(self) -> tuple[list[list[int]], list[int], int, dict]:
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
    ring, unit = Ring(k, [n] * k), int(n > 1)  # P^0 has no weight
    summands = tuple((tuple(unit * (i == j) for j in range(k)), n) for i in range(k)) + (((0,) * k, -k),)
    return QuotientModel._trusted(ring, unitary_roots(k), SplitBundle._trusted(ring, summands))


def integrate_torus(m: QuotientModel, p: Poly, *factors: Poly) -> Fraction:
    """Integral over the torus quotient of the product of the factors: its
    top-monomial coefficient, the one place a top coefficient is read.

    The product is never formed in full.  Factors are taken smallest first;
    each partial product keeps only the degrees that can still reach the top
    once the lowest degrees of the remaining factors are added, and the
    largest factor's numerators are paired with it by complementary
    exponents, so the one `Fraction` is the value.
    """
    factors = sorted((p, *factors), key=lambda f: len(f.nums))
    if any(f.ring != m.ring for f in factors):
        raise ValueError("polynomial lives in the wrong ring")
    if not factors[0].nums:  # sorted, so a zero factor comes first
        return Fraction(0)
    top = m.ring.top_exponents
    *head, last = factors
    if not head:
        return last.coefficient(top)
    lows = [min(map(sum, f.nums)) for f in factors]
    degree = m.ring.top_degree - sum(lows[1:])  # highest degree that can still reach the top
    acc = head[0]
    for f, low in zip(head[1:], lows[1:]):
        degree += low
        acc = acc.product_upto(f, degree)
    pair = last.nums.get
    total = sum(c * pair(tuple(map(sub, top, e)), 0) for e, c in acc.nums.items())
    return Fraction(total, acc.den * last.den)


def orbit_points(m: QuotientModel, *bundles: SplitBundle) -> dict[tuple[int, ...], int] | None:
    """The fixed points a of prod P^{n_i - 1} (u_i at the a_i-th weight)
    that the point sums run over for a Weyl-invariant class, each with the
    number of points it stands for, or None where that is not exact.  A shape
    test: the roots must form blocks, so that W = prod S_|b| is the group
    their reflections generate (a relative model's complement roots may
    not), and W must fix every given bundle (`RootData.moved`); the model
    has checked the truncations and the tangent.  A point with two equal
    entries in a block is a zero of a root: `all_points` of the blocks."""
    rd = m.root_data
    if rd.blocks is None or any(rd.moved(V.multiplicities()) is not None for V in bundles):
        return None
    return all_points(m.ring, rd.blocks)


def all_points(ring: Ring, blocks: Blocks = (), repeats: bool = False) -> dict[tuple[int, ...], int]:
    """Every fixed point a of prod P^{n_i - 1} (u_i at the a_i-th weight),
    or one per orbit of prod S_|b| for blocks b, increasing along each block
    (non-decreasing with repeats) and counted by its orbit's size; one per
    mirror pair a, n - 1 - a, counted twice unless a is its own mirror.  The
    mirror commutes with S_|b| and negates every weight, which multiplies a
    top-degree class and the point's denominator by (-1)^top."""
    blocks = blocks or [(i,) for i in range(ring.k)]
    flats = [((), (), 1)]  # each point in block order, its mirror and its orbit's size
    for b in blocks:
        top, size = ring.truncations[b[0]] - 1, factorial(len(b))
        combos = (combinations_with_replacement if repeats else combinations)(range(top + 1), len(b))
        pairs = [(c, tuple([top - x for x in c[::-1]]), size) for c in combos]
        if repeats:  # |b|! over the order of the permutations that fix c
            pairs = [(c, s, size // prod(map(factorial, map(c.count, set(c))))) for c, s, _ in pairs]
        flats = [(a + c, r + s, k * o) for a, r, k in flats for c, s, o in pairs]
    variables = sum(blocks, ())
    if variables != tuple(range(ring.k)):
        place = itemgetter(*map(variables.index, range(ring.k)))
        flats = [(place(a), place(r), k) for a, r, k in flats]
    return {a: k if a == r else 2 * k for a, r, k in flats if a <= r}


def stabilizer_blocks(truncations: Sequence[int], *weights: dict[tuple[int, ...], int]) -> Blocks:
    """The blocks of the Young subgroup generated by the transpositions (i j)
    with n_i = n_j that fix every multiset of weights (weight: multiplicity).
    With (i j) and (j l) among them, so is (i l) = (i j)(j l)(i j): each
    variable joins the block of the least variable it may be swapped with."""
    rank, least = len(truncations), list(range(len(truncations)))
    for i, j in combinations(range(rank), 2):
        if least[j] == j and truncations[i] == truncations[j]:
            at = itemgetter(*(j if x == i else i if x == j else x for x in range(rank)))
            if all({at(w): c for w, c in s.items()} == s for s in weights):
                least[j] = i
    return tuple(tuple(i for i in range(rank) if least[i] == x) for x in sorted(set(least)))


def _column(xs: dict, ts: list[list[int]], w: Sequence[int]) -> list[int]:
    """w.t over the points from the t_i, built once for w and -w (in xs)."""
    w = tuple(w)
    if (key := max(w, tuple(-x for x in w))) not in xs:
        col = None  # sum_i c_i t_i over the nonzero entries c_i of the key
        for c, t in zip(key, ts):
            if c:
                t = t if c == 1 else [c * y for y in t]
                col = t if col is None else list(map(add, col, t))
        xs[key] = [0] * len(ts[0]) if col is None else col
    return xs[key] if key == w else [-y for y in xs[key]]


def point_weights(
    m: QuotientModel, points: dict[tuple[int, ...], int], roots: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int], int, dict]:
    """Localization at `points` of a top-degree class c times e, e the product
    of the Euler classes of `roots`, as columns over the points a with
    e(t) != 0: t_i = 2a_i - (n_i - 1), w = count * e(t) * prod_i C(n_i - 1,
    a_i) (-1)^{n_i - 1 - a_i}, den = 2^top prod_i (n_i - 1)! and the roots'
    `_column`s, so that the integral is sum w c(t) / den, as prod_{b != a}
    (t_a - t_b) = 2^{n-1} a! (n-1-a)! (-1)^{n-1-a} on P^{n-1}."""
    truncs = m.ring.truncations
    ws, ts, xs = list(points.values()), [], {}
    for n, a in zip(truncs, zip(*points) if points else repeat(())):
        sign = [comb(n - 1, x) * (-1) ** (n - 1 - x) for x in range(n)]
        ws = list(map(mul, ws, map(sign.__getitem__, a)))
        ts.append(list(map(range(1 - n, n, 2).__getitem__, a)))
    for r in roots:
        ws = list(map(mul, ws, _column(xs, ts, r)))
    if not all(ws):
        keep = list(map(bool, ws))
        ws, ts = list(compress(ws, keep)), [list(compress(t, keep)) for t in ts]
        xs = {w: list(compress(x, keep)) for w, x in xs.items()}
    return ts, ws, 2**m.ring.top_degree * prod(factorial(n - 1) for n in truncs), xs


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
    - #roots, l = log f and p_j the j-th power sum of V's weights at t.

    The j l_j are the coefficients of x f'/f, passed in place of f (constant
    term 0) by the named classes (`charclass.class_log`) and else formed here.
    All points go together, as one column over the points per degree.  The
    linear term l_1 p_1 joins the exponent of each line of the twist (of the
    trivial line without one), so the rest, kappa_n = [lam^n] exp(sum_{j>1}
    l_j p_j lam^j), follows n kappa_n = sum_j j l_j p_j kappa_{n-j} over the
    j > 1 with l_j != 0; where those j share a factor g (2 for Todd and the
    L-class), so do the n with kappa_n != 0, and only those are kept.  Each
    kappa_n is a primitive integer column times a positive content held as
    two ints, so no entry carries a scale common to all points.  p_j is
    built for those j only (and j = 1 where l_1 != 0): a weight w of V and
    -w fold into one row (a + (-1)^j b) x^j, x = w.t (`_column`, the roots'
    own), cached by x for each pair (a, b) of multiplicities.  A line whose
    z = b1 w.t + a1 p_1 is 0 at every point adds only at lam^0."""
    N = m.ring.top_degree - len(roots)
    f = f.truncated(N + 1)  # so that l_1 is read at N = 0 too
    if f.nums[0]:  # f itself, not its log-derivative
        f = Series.over([j * x for j, x in enumerate(f.nums)], f.den) * f.reciprocal()
    L, d = f.nums, f.den  # j l_j = L_j / d
    used = [j for j in range(1, N + 1) if L[j]]
    steps = [(j, L[j] // (c := gcd(L[j], d)), d // c) for j in used if j > 1]
    folded: dict[tuple[int, ...], tuple[int, int]] = {}  # w up to sign: mults of w and -w
    for w, k in V.multiplicities().items():
        if any(w):
            key = max(w, tuple(-x for x in w))
            a, b = folded.get(key, (0, 0))
            folded[key] = (a + k, b) if w == key else (a, b + k)
    ts, ws, den, cols = point_weights(m, points, roots)
    xs = [_column(cols, ts, w) for w in folded]
    tables: dict[tuple[int, int], dict[int, list[int]]] = {ab: {} for ab in folded.values()}
    tabs = [tables[ab] for ab in folded.values()]  # x: (a + (-1)^j b) x^j over the used j
    for (a, b), tab, col in zip(folded.values(), tabs, xs):
        tab.update((x, [(a - b if j % 2 else a + b) * x**j for j in used]) for x in set(col) - set(tab))
    at_points = (map(sum, zip(*map(getitem, tabs, x))) for x in zip(*xs))  # p_j, j used
    p = {j: [0] * len(ws) for j in used}  # p_j over the points
    p.update(zip(used, zip(*at_points)))
    kappa = {0: ([1] * len(ws), 1, 1)}  # n: (primitive column, content num, content den)
    g = gcd(*(j for j, _, _ in steps)) or N + 1
    for n in range(g, N + 1, g):
        terms = [(p[j], a, b, kappa[n - j]) for j, a, b in steps if n - j in kappa]
        D = lcm(*(b * kd for _, _, b, (_, _, kd) in terms))
        acc = [0] * len(ws)
        for pj, a, b, (col, kn, kd) in terms:
            acc = list(map(add, acc, map(mul, map(mul, pj, col), repeat(a * kn * (D // (b * kd))))))
        if h := gcd(*acc):
            c = gcd(h, n * D)
            kappa[n] = ([x // h for x in acc], h // c, n * D // c)
    c = gcd(L[1], d)
    a1, b1 = L[1] // c, d // c  # l_1 = a1 / b1
    lines = twist.multiplicities() if twist is not None else {(0,) * m.ring.k: 1}
    p1 = p.get(1, repeat(0))  # unused where l_1 = 0, or at N = 0, where only z^0 is read
    zs = [([b1 * x + a1 * q for x, q in zip(_column(cols, ts, w), p1)], k) for w, k in lines.items()]
    parts = []  # [lam^N] of sum_lines k exp(lam z / b1) kappa(lam), one part per kappa_n
    for n, (col, kn, kd) in kappa.items():
        j, wc = N - n, list(map(mul, ws, col))
        dot = sum(k * sum(map(mul, wc, map(pow, z, repeat(j)))) for z, k in zs if not j or any(z))
        parts.append((kn * dot, kd * factorial(j) * b1**j))
    D = lcm(*(q for _, q in parts))
    return Fraction(sum(x * (D // q) for x, q in parts), D * den)


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
    prefactor times the `chern_sums` over all the variables, over den."""
    ring = m.ring
    for exps in rows:
        if len(exps) != ring.k:
            raise ValueError(f"expected {ring.k} exponents, got {len(exps)}")
        if any(x < 0 for x in exps):
            raise ValueError(f"negative exponent in {exps}")
    if len(set(ring.truncations)) != 1:
        raise ValueError("chern pairings need equal truncation exponents in every variable")
    top = [sum(i * x for i, x in enumerate(exps, 1)) == m.quotient_dim for exps in rows]
    if not any(top):
        return [Fraction(0)] * len(rows)
    sums = iter(chern_sums(m, [tuple(range(ring.k))], [r for r, on in zip(rows, top) if on]))
    scale = m.prefactor() / m.e_points()[2]
    return [scale * next(sums) if on else Fraction(0) for on in top]


def chern_sums(m: QuotientModel, blocks: Sequence[Sequence[int]], rows: Iterable) -> list[int]:
    """den times the integral of each row's Chern monomial times e: sum w
    prod_b prod_j e_j(t_b)^{v_(b,j)} over `QuotientModel.e_points`, a row
    listing e_1..e_|b| of each block in turn; rows share their prefixes."""
    ts, ws, _, _ = m.e_points()
    columns = []  # e_j(t_b) over the points, one per row entry
    for b in blocks:
        E: list[list[int]] = []  # e_1.. of the block's variables so far: e_j += t_i e_(j-1)
        for i in b:
            ti, low, out = ts[i], [1] * len(ws), []
            for e in E:
                out.append(list(map(add, e, map(mul, ti, low))))
                low = e
            E = out + [list(map(mul, ti, low))]
        columns += E
    prefix: dict[tuple[int, ...], list[int]] = {(): ws}

    def values(v: tuple[int, ...]) -> list[int]:  # w prod e^v at each point
        if v not in prefix:
            x, column = v[-1], columns[len(v) - 1]
            prefix[v] = [a * y**x for a, y in zip(values(v[:-1]), column)] if x else values(v[:-1])
        return prefix[v]

    return [sum(values(tuple(v))) for v in rows]

"""Torus-quotient models and integration of lifted classes.

A `QuotientModel` packages everything the integration formulas need: the
truncated ring presenting the torus quotient's cohomology, root data for the
nonabelian group, the (split) tangent bundle of the torus quotient, an
orbifold prefactor, and the Weyl action on the ring variables.

Every formula is one prefactor, `QuotientModel.prefactor`, times one
operation, `integrate_torus`: the coefficient of the unique top monomial in a
product of factors.  Integration over the nonabelian quotient multiplies a
lifted class by the product of all root Euler classes and divides by the Weyl
group order.  The full-rank-subgroup variant is the same formulas on another
model, `QuotientModel.relative`: the complement roots and the ratio of Weyl
orders.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence

from .ratpoly import (
    Perm,
    Poly,
    Ring,
    check_permutation,
    elementary_symmetric,
    rat,
)
from .rootdata import (
    RootData,
    Subgroup,
    as_weight,
    e_product,
    is_permutation_generator,
    unitary_roots,
)


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
        if weyl_action is None:
            gens = root_data.weyl_generators
            if not all(is_permutation_generator(g) for g in gens):
                raise ValueError(
                    "root data has matrix generators; supply an explicit "
                    "permutation weyl_action"
                )
            weyl_action = gens
        action = tuple(check_permutation(g, ring.k) for g in weyl_action)
        for g in action:
            for i in range(ring.k):
                if ring.truncations[g[i]] != ring.truncations[i]:
                    raise ValueError(
                        f"Weyl generator {g} does not preserve the truncation "
                        f"exponents {ring.truncations}"
                    )
        if len(root_data.roots) > ring.top_degree:
            raise ValueError("more roots than the torus quotient dimension allows")
        self.root_data = root_data
        if subgroup is not None:
            inside = set(subgroup.roots)
            if not inside <= set(root_data.roots):
                raise ValueError("subgroup roots must be contained in the model's roots")
            if any(tuple(-x for x in w) not in inside for w in inside):
                raise ValueError("subgroup roots must be closed under negation")
            if root_data.weyl_order % subgroup.weyl_order != 0:
                raise ValueError("subgroup Weyl order must divide the group's Weyl order")
        self.ring = ring
        self.tangent_bundle = tangent_bundle
        self.orbifold_prefactor = prefactor
        self.weyl_action = action
        self.subgroup = subgroup
        self._e_cache: dict = {}

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

    def prefactor(self) -> Fraction:
        """The orbifold prefactor over the Weyl group order."""
        return Fraction(1, self.root_data.weyl_order) * self.orbifold_prefactor

    def relative(self) -> QuotientModel:
        """The model of the full-rank-subgroup formulas: the roots and
        positive roots outside the subgroup H, with no Weyl generators and
        order 1, the orbifold prefactor times |W(H)|/|W(G)|, and G's Weyl
        action, so invariants stay those of G."""
        if self.subgroup is None:
            raise ValueError("the model carries no subgroup")
        inside, rd = set(self.subgroup.roots), self.root_data
        complement = RootData(
            rd.rank,
            [w for w in rd.roots if w not in inside],
            [w for w in rd.positive if w not in inside],
        )
        ratio = Fraction(self.subgroup.weyl_order, rd.weyl_order)
        return QuotientModel(
            self.ring,
            complement,
            self.tangent_bundle,
            ratio * self.orbifold_prefactor,
            self.weyl_action,
        )

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


def integrate_group(m: QuotientModel, lift: Poly) -> Fraction:
    """Integral over the nonabelian quotient of a class with the given lift:
    the model's prefactor times the torus integral of lift * e, where e is
    the product of root Euler classes."""
    return m.prefactor() * integrate_torus(m, lift, m.e_class())


def chern_pairing(m: QuotientModel, exponents: Sequence[int]) -> Fraction:
    """Pairing of a monomial prod c_i^{m_i} in dual-tautological Chern
    classes: the group integral of prod e_i^{m_i}, e_i the elementary
    symmetric polynomials of the ring variables."""
    exps = list(exponents)
    if len(exps) != m.ring.k:
        raise ValueError(f"expected {m.ring.k} exponents, got {len(exps)}")
    if any(x < 0 for x in exps):
        raise ValueError(f"negative exponent in {exponents}")
    if len(set(m.ring.truncations)) != 1:
        raise ValueError("chern pairings need equal truncation exponents in every variable")
    lift = m.ring.one()
    for i, mi in enumerate(exps, start=1):
        if mi:
            lift = lift * elementary_symmetric(m.ring, i) ** mi
    return integrate_group(m, lift)

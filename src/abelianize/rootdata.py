"""Root systems, the Weyl group, and root Euler classes.

A weight of the k-torus is an integer vector: a line bundle on the torus
quotient whose Euler class is a linear form in the ring generators, which
`e_product` multiplies on integer numerators, with no `Poly` product.
`RootData` bundles roots, positive roots, Weyl generators and |W|.

This module is the one place that knows W and answers "does W fix this?".
W is the group the roots' reflections generate.  The reflection of a root
c(e_j - e_i) is the transposition (i j), so where the roots lie on every
pair inside blocks of variables, `reflection_blocks`, W = prod S_|b|, never
listed.  `RootData` builds W's generators once, the transpositions inside
the blocks, and checks the roots, the declared generators and the order
against them; `RootData.moved` names one that moves a multiset of weights
and `stabilizer_blocks` the Young subgroup of the swaps that fix some, both
by `fixes`; `g in root_data` tests membership, and `check_subgroup` and
`complement` answer for a full-rank subgroup.  Products of unitary groups
are built from their blocks (`RootData.from_blocks`); other groups come as
explicit data (from the config).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .ratpoly import Perm, Poly, Ring, check_permutation

Weight = tuple[int, ...]
Blocks = tuple[tuple[int, ...], ...]


def as_weight(w: Sequence[int], rank: int) -> Weight:
    t = tuple(w)
    if len(t) != rank or any(not isinstance(x, int) for x in t):
        raise ValueError(f"weight {w} is not an integer vector of length {rank}")
    return t


def _swap(i: int, j: int, rank: int) -> Perm:
    return tuple(j if x == i else i if x == j else x for x in range(rank))


def fixes(g: Perm, *multisets: dict[Weight, int]) -> bool:
    """Whether the transposition g fixes each multiset (weight: multiplicity)."""
    at = itemgetter(*g)  # `permute_exponents` by g, a transposition: g = g^-1
    return all({at(w): c for w, c in s.items()} == s for s in multisets)


def stabilizer_blocks(truncations: Sequence[int], *multisets: dict[Weight, int]) -> Blocks:
    """The blocks of the Young subgroup generated by the transpositions (i j)
    with n_i = n_j that fix every multiset of weights (weight: multiplicity).
    With (i j) and (j l) among them, so is (i l) = (i j)(j l)(i j): each
    variable joins the block of the least variable it may be swapped with."""
    rank, least = len(truncations), list(range(len(truncations)))
    for i, j in combinations(range(rank), 2):
        if least[j] == j and truncations[i] == truncations[j] and fixes(_swap(i, j, rank), *multisets):
            least[j] = i
    return tuple(tuple(i for i in range(rank) if least[i] == x) for x in sorted(set(least)))


def one_based(g: Perm) -> list[int]:
    """A permutation as the config writes it: 1-based images."""
    return [i + 1 for i in g]


def reflection_blocks(roots: Sequence[Weight], rank: int) -> Blocks | None:
    """The blocks of variables that the roots' reflections permute: where
    every root is c(e_j - e_i), c != 0, one on each ordered pair (i, j), and
    the pairs the roots lie on are all the pairs inside blocks, i and j share
    a block exactly when a root lies on them.  No roots give one block per
    variable.  None for roots of any other shape.  `RootData` checks that
    the roots are closed under the blocks' transpositions, so each block
    carries one c."""
    if any(sum(w) or w.count(0) != rank - 2 for w in roots):
        return None
    pairs = {(w.index(min(w)), w.index(max(w))) for w in roots}
    blocks = {tuple(sorted({i, *(j for x, j in pairs if x == i)})) for i in range(rank)}
    if len(pairs) != len(roots) or pairs != {
        (i, j) for b in blocks for i in b for j in b if i != j
    }:
        return None
    return tuple(sorted(blocks))


def block_order(blocks: Blocks | None) -> int:
    """|prod S_|b|| = prod |b|!, the order of the group the roots'
    reflections generate; 1 where there are no blocks."""
    return prod(factorial(len(b)) for b in blocks or ())


class RootData:
    """A root set with positivity choice, Weyl generators, and |W|.  Built
    at construction: the roots' `blocks` and W's `generators`, the
    transpositions inside them; the declared Weyl generators and order are
    checked against W = prod S_|b|, and the positive roots must order each
    block, as the Weyl denominator identities need."""

    __slots__ = (
        "rank", "roots", "positive", "weyl_generators", "weyl_order", "blocks", "generators",
    )

    def __init__(
        self,
        rank: int,
        roots: Iterable[Sequence[int]],
        positive: Iterable[Sequence[int]],
        weyl_generators: Iterable[Sequence[int]] = (),
        weyl_order: int = 1,
    ):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank
        self.roots = tuple(as_weight(w, rank) for w in roots)
        self.positive = tuple(as_weight(w, rank) for w in positive)
        self.weyl_order = weyl_order
        self.weyl_generators = tuple(check_permutation(g, rank) for g in weyl_generators)
        self.blocks = reflection_blocks(self.roots, rank)
        self.generators = tuple(
            _swap(i, j, rank) for b in self.blocks or () for i, j in zip(b, b[1:])
        )
        self._validate()

    @classmethod
    def from_blocks(cls, rank: int, blocks: Blocks) -> RootData:
        """prod U(|b|) on disjoint sorted blocks, with none of `__init__`'s
        checks: as `unitary_roots`, one block at a time."""
        pairs = [(i, j) for b in blocks for i in b for j in b if i != j]
        rd = object.__new__(cls)
        rd.rank, rd.blocks, rd.weyl_order = rank, blocks, block_order(blocks)
        rd.roots = tuple(tuple(int(x == j) - int(x == i) for x in range(rank)) for i, j in pairs)
        rd.positive = tuple(w for w, (i, j) in zip(rd.roots, pairs) if i < j)
        swaps = (_swap(i, j, rank) for b in blocks for i, j in zip(b, b[1:]))
        rd.generators = rd.weyl_generators = tuple(swaps)
        return rd

    def moved(self, weights: dict[Weight, int]) -> Perm | None:
        """A generator of W that moves the multiset of weights (each weight
        with its multiplicity), or None where W fixes it."""
        return next((g for g in self.generators if not fixes(g, weights)), None)

    def __contains__(self, g: Perm) -> bool:
        """Whether the permutation g of the variables lies in W: it maps
        each block into itself, and is the identity where there are none."""
        blocks = self.blocks or [(i,) for i in range(self.rank)]
        return all(g[i] in b for b in blocks for i in b)

    def _validate(self) -> None:
        root_set = set(self.roots)
        if len(root_set) != len(self.roots):
            raise ValueError("duplicate roots")
        zero = (0,) * self.rank
        if zero in root_set:
            raise ValueError("zero weight cannot be a root")
        pos = set(self.positive)
        if len(pos) != len(self.positive):
            raise ValueError("duplicate positive roots")
        if not pos <= root_set:
            raise ValueError("positive roots must be among the roots")
        neg = {tuple(-x for x in w) for w in pos}
        if pos & neg:
            raise ValueError("a root and its negative cannot both be positive")
        if pos | neg != root_set:
            raise ValueError("roots must split as positive roots and their negatives")
        # a tournament on a block is transitive iff its scores are |b| - 1, ..., 1, 0
        starts = [w.index(min(w)) for w in self.positive]
        for b in self.blocks or ():
            if sorted(map(starts.count, b)) != list(range(len(b))):
                raise ValueError(f"positive roots must order the block {one_based(b)}")
        if (g := self.moved(dict.fromkeys(self.roots, 1))) is not None:
            raise ValueError(f"root set is not stable under generator {one_based(g)}")
        for g in self.weyl_generators:
            if g not in self:
                raise ValueError(
                    f"Weyl generator {one_based(g)} is not in the group the roots' "
                    "reflections generate"
                )
        order = block_order(self.blocks)
        if not isinstance(self.weyl_order, int) or self.weyl_order != order:
            raise ValueError(
                f"weyl_order {self.weyl_order!r} does not match generated group of order {order}"
            )

    def check_subgroup(self, subgroup: Subgroup) -> None:
        """Refuse a subgroup with duplicate roots, or whose roots are not
        roots of this group that form blocks (so closed under negation and
        their transpositions), or whose Weyl order is not the order prod |b|!
        of its blocks."""
        if len(set(subgroup.roots)) != len(subgroup.roots):
            raise ValueError("duplicate subgroup roots")
        if not set(subgroup.roots) <= set(self.roots):
            raise ValueError("subgroup roots must be contained in the model's roots")
        if (blocks := reflection_blocks(subgroup.roots, self.rank)) is None:
            raise ValueError("subgroup roots must be closed under negation and transpositions")
        if subgroup.weyl_order != block_order(blocks):
            raise ValueError(f"subgroup Weyl order must be {block_order(blocks)} for its roots")

    def complement(self, subgroup: Subgroup) -> RootData:
        """The roots and positive roots outside the subgroup, with the Weyl
        group their own reflections generate (trivial where they form no
        blocks, as for a Levi block)."""
        inside = set(subgroup.roots)
        roots = [w for w in self.roots if w not in inside]
        order = block_order(reflection_blocks(roots, self.rank))
        positive = [w for w in self.positive if w not in inside]
        return RootData(self.rank, roots, positive, (), order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootData):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.roots == other.roots
            and self.positive == other.positive
            and self.weyl_generators == other.weyl_generators
            and self.weyl_order == other.weyl_order
        )

    def __repr__(self) -> str:
        return (
            f"RootData(rank={self.rank}, roots={len(self.roots)}, "
            f"weyl_order={self.weyl_order})"
        )


class Subgroup(NamedTuple):
    """A full-rank subgroup, known through its root subset and Weyl order;
    `RootData.check_subgroup` checks it against a group's roots."""

    roots: tuple[Weight, ...]
    weyl_order: int


def unitary_roots(k: int) -> RootData:
    """Root data of the rank-k unitary group: roots are the pair weights
    (-1 at i, +1 at j) for i != j, positive when i < j; the Weyl group is the
    symmetric group generated by adjacent transpositions."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return RootData.from_blocks(k, (tuple(range(k)),))


def root_euler_class(ring: Ring, w: Sequence[int]) -> Poly:
    """The degree-1 class sum_i w_i * u_i attached to a weight."""
    w = tuple(w)
    if len(w) != ring.k:
        raise ValueError(f"weight length {len(w)} does not match {ring.k} variables")
    return Poly(ring, {tuple(int(j == i) for j in range(ring.k)): c for i, c in enumerate(w) if c})


def e_product(ring: Ring, weights: Iterable[Sequence[int]]) -> Poly:
    """Product of the Euler classes of the weights, 1 for none, on integer numerators."""
    truncs = ring.truncations
    out = {(0,) * ring.k: 1}
    for w in weights:
        if len(w) != ring.k:
            raise ValueError(f"weight length {len(w)} does not match {ring.k} variables")
        steps = [(i, x) for i, x in enumerate(w) if x and truncs[i] > 1]
        acc: dict[tuple[int, ...], int] = {}
        for e, c in out.items():
            for i, x in steps:
                if e[i] + 1 < truncs[i]:
                    f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    acc[f] = acc.get(f, 0) + c * x
        out = {e: c for e, c in acc.items() if c}
    return Poly._trusted(ring, out)

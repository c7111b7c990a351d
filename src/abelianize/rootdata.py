"""Root systems, the Weyl group, and root Euler classes.

A weight of the k-torus is an integer vector; it determines a line bundle on
the torus quotient whose Euler class is the corresponding degree-1 linear
form in the ring generators.  `RootData` bundles a root set, a choice of
positive roots, Weyl generators, and the Weyl group order.

This module is the one place that knows W.  W acts on the torus quotient
prod P^{n_i - 1} and preserves its reduced symplectic class sum a_i u_i
(a_i > 0), so it permutes the variables: every generator is a permutation.
Where every root is e_j - e_i and the roots are closed under their
reflections, the transpositions (i j), the variables fall into blocks,
`reflection_blocks`, and the reflections generate prod S_|b|.  W is the
group that these transpositions and the generators generate.  Only the
unitary family has a built-in constructor; other groups are supplied as
explicit data (from the CLI config).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable, Sequence

from .ratpoly import (
    Perm,
    Poly,
    Ring,
    check_permutation,
    generate_permutation_group,
    permute_exponents,
)

Weight = tuple[int, ...]
Blocks = tuple[tuple[int, ...], ...]


def as_weight(w: Sequence[int], rank: int) -> Weight:
    t = tuple(w)
    if len(t) != rank or any(not isinstance(x, int) for x in t):
        raise ValueError(f"weight {w} is not an integer vector of length {rank}")
    return t


def _swap(i: int, j: int, rank: int) -> Perm:
    return tuple(j if x == i else i if x == j else x for x in range(rank))


def reflection_blocks(roots: Sequence[Weight], rank: int) -> Blocks | None:
    """The blocks of variables that the roots' reflections permute: where
    every root is e_j - e_i and the roots are closed under the
    transpositions (i j), i and j share a block exactly when e_j - e_i is a
    root, so the roots are the pairs inside the blocks.  No roots give one
    block per variable.  None for roots of any other shape."""
    if any(sorted(w) != [-1, *[0] * (rank - 2), 1] for w in roots):
        return None
    pairs = {(w.index(-1), w.index(1)) for w in roots}
    blocks = {tuple(sorted({i, *(j for x, j in pairs if x == i)})) for i in range(rank)}
    if pairs != {(i, j) for b in blocks for i in b for j in b if i != j}:
        return None
    return tuple(sorted(blocks))


def block_order(blocks: Blocks | None) -> int:
    """|prod S_|b|| = prod |b|!, the order of the group the roots'
    reflections generate; 1 where there are no blocks."""
    return prod(factorial(len(b)) for b in blocks or ())


class RootData:
    """A root set with positivity choice, Weyl generators, and |W|."""

    __slots__ = ("rank", "roots", "positive", "weyl_generators", "weyl_order", "blocks")

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
        self._validate()

    def transpositions(self) -> tuple[Perm, ...]:
        """The adjacent transpositions inside each block; with the
        generators they generate W."""
        return tuple(_swap(i, j, self.rank) for b in self.blocks or () for i, j in zip(b, b[1:]))

    def _validate(self) -> None:
        root_set = set(self.roots)
        if len(root_set) != len(self.roots):
            raise ValueError("duplicate roots")
        zero = (0,) * self.rank
        if zero in root_set:
            raise ValueError("zero weight cannot be a root")
        pos = set(self.positive)
        if not pos <= root_set:
            raise ValueError("positive roots must be among the roots")
        neg = {tuple(-x for x in w) for w in pos}
        if pos & neg:
            raise ValueError("a root and its negative cannot both be positive")
        if pos | neg != root_set:
            raise ValueError("roots must split as positive roots and their negatives")
        gens = self.weyl_generators
        for g in gens:
            if {permute_exponents(w, g) for w in self.roots} != root_set:
                raise ValueError(f"root set is not stable under generator {g}")
        if not isinstance(self.weyl_order, int) or self.weyl_order < 1:
            raise ValueError(f"weyl_order must be a positive integer, got {self.weyl_order}")
        # generators that permute within blocks add nothing to prod S_|b|;
        # any other generator, or roots of another shape, need the group
        blocks = self.blocks
        if blocks is not None and all(g[i] in b for g in gens for b in blocks for i in b):
            order = found = block_order(blocks)
        else:
            gens += self.transpositions()
            order = len(generate_permutation_group(gens, self.rank, limit=self.weyl_order))
            found = order if order <= self.weyl_order else f"greater than {self.weyl_order}"
        if order != self.weyl_order:
            raise ValueError(
                f"weyl_order {self.weyl_order} does not match generated group of order {found}"
            )

    @property
    def negative(self) -> tuple[Weight, ...]:
        return tuple(tuple(-x for x in w) for w in self.positive)

    def opposite(self) -> RootData:
        """Same data with the opposite positivity convention."""
        return RootData(self.rank, self.roots, self.negative, self.weyl_generators, self.weyl_order)

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


@dataclass(frozen=True)
class Subgroup:
    """A full-rank subgroup, known through its root subset and Weyl order."""

    roots: tuple[Weight, ...]
    weyl_order: int

    def __post_init__(self):
        if self.weyl_order < 1:
            raise ValueError("subgroup weyl_order must be positive")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("duplicate subgroup roots")


def unitary_roots(k: int) -> RootData:
    """Root data of the rank-k unitary group: roots are the pair weights
    (-1 at i, +1 at j) for i != j, positive when i < j; the Weyl group is the
    symmetric group generated by adjacent transpositions."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    roots = [tuple(-1 if x == i else int(x == j) for x in range(k)) for i, j in pairs]
    positive = [w for w, (i, j) in zip(roots, pairs) if i < j]
    gens = [_swap(i, i + 1, k) for i in range(k - 1)]
    return RootData(k, roots, positive, gens, factorial(k))


def root_euler_class(ring: Ring, w: Sequence[int]) -> Poly:
    """The degree-1 class sum_i w_i * u_i attached to a weight."""
    w = tuple(w)
    if len(w) != ring.k:
        raise ValueError(f"weight length {len(w)} does not match {ring.k} variables")
    terms = {}
    for i, c in enumerate(w):
        if c:
            e = [0] * ring.k
            e[i] = 1
            terms[tuple(e)] = c
    return Poly(ring, terms)


def e_product(ring: Ring, weights: Iterable[Sequence[int]]) -> Poly:
    """Product of the Euler classes of the given weights; the empty product is 1."""
    out = ring.one()
    for w in weights:
        out = out * root_euler_class(ring, w)
    return out

"""Root systems, Weyl generators, and root Euler classes.

A weight of the k-torus is an integer vector; it determines a line bundle on
the torus quotient whose Euler class is the corresponding degree-1 linear
form in the ring generators.  `RootData` bundles a root set, a choice of
positive roots, Weyl generators, and the Weyl group order.

Only the unitary family has a built-in constructor; other groups are
supplied as explicit data (from the CLI config), with generators given either
as variable permutations or as integer matrices acting on the weight lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ratpoly import (
    Poly,
    Ring,
    check_permutation,
    generate_permutation_group,
)

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def as_weight(w: Sequence[int], rank: int) -> Weight:
    t = tuple(w)
    if len(t) != rank or any(not isinstance(x, int) for x in t):
        raise ValueError(f"weight {w} is not an integer vector of length {rank}")
    return t


def is_permutation_generator(g) -> bool:
    """Generators are permutations (flat int tuples) or integer matrices."""
    return bool(g) and not isinstance(g[0], tuple)


def apply_generator_to_weight(g, w: Weight) -> Weight:
    if is_permutation_generator(g):
        out = [0] * len(w)
        for i, x in enumerate(w):
            out[g[i]] = x
        return tuple(out)
    return tuple(sum(g[i][j] * w[j] for j in range(len(w))) for i in range(len(g)))


class RootData:
    """A root set with positivity choice, Weyl generators, and |W|."""

    __slots__ = ("rank", "roots", "positive", "weyl_generators", "weyl_order")

    def __init__(
        self,
        rank: int,
        roots: Iterable[Sequence[int]],
        positive: Iterable[Sequence[int]],
        weyl_generators: Iterable[Sequence] = (),
        weyl_order: int = 1,
    ):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank
        self.roots = tuple(as_weight(w, rank) for w in roots)
        self.positive = tuple(as_weight(w, rank) for w in positive)
        self.weyl_order = weyl_order
        gens = []
        for g in weyl_generators:
            if is_permutation_generator(g):
                gens.append(check_permutation(g, rank))
            else:
                m = tuple(tuple(row) for row in g)
                if len(m) != rank or any(len(row) != rank for row in m):
                    raise ValueError(f"matrix generator must be {rank}x{rank}: {g}")
                gens.append(m)
        self.weyl_generators = tuple(gens)
        self._validate()

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
        for g in self.weyl_generators:
            image = {apply_generator_to_weight(g, w) for w in self.roots}
            if image != root_set:
                raise ValueError(f"root set is not stable under generator {g}")
        if not isinstance(self.weyl_order, int) or self.weyl_order < 1:
            raise ValueError(f"weyl_order must be a positive integer, got {self.weyl_order}")
        # order check by enumeration.  W acts faithfully on its roots, so matrix
        # generators are checked through the permutations they induce there.
        gens, size = self.weyl_generators, self.rank
        if not all(is_permutation_generator(g) for g in gens):
            index = {w: i for i, w in enumerate(self.roots)}
            gens = [tuple(index[apply_generator_to_weight(g, w)] for w in self.roots) for g in gens]
            size = len(self.roots)
        elif self.rank > 8:
            return
        order = len(generate_permutation_group(gens, size, limit=self.weyl_order))
        if order != self.weyl_order:
            found = order if order < self.weyl_order else f"greater than {self.weyl_order}"
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
    roots = []
    positive = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            w = [0] * k
            w[i] = -1
            w[j] = 1
            roots.append(tuple(w))
            if i < j:
                positive.append(tuple(w))
    gens = []
    for i in range(k - 1):
        g = list(range(k))
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    order = 1
    for i in range(2, k + 1):
        order *= i
    return RootData(k, roots, positive, gens, order)


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

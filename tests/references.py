"""Reference functions that no query calls, kept for the tests.

    from references import index_torus, negative, opposite, permute_poly

`permute_poly` checks Weyl invariance of a polynomial term by term;
`index_torus` is the index on the torus quotient itself, which the group
index of a model with no roots must equal; `opposite` flips the positivity
convention, on which a twisted index depends.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from abelianize.charclass import todd_series
from abelianize.quotient import QuotientModel, SplitBundle, all_points, integrate_points
from abelianize.ratpoly import Poly, check_permutation, permute_exponents
from abelianize.rootdata import RootData, Weight


def permute_poly(p: Poly, perm: Sequence[int]) -> Poly:
    """p with u_i replaced by u_{perm[i]}."""
    perm = check_permutation(perm, p.ring.k)
    return Poly._trusted(p.ring, {permute_exponents(e, perm): c for e, c in p.nums.items()}, p.den)


def index_torus(m: QuotientModel, V: SplitBundle) -> Fraction:
    """Index of the twisted Dolbeault operator on the torus quotient:
    the integral of ch(V) * Td(tangent), over all fixed points."""
    td = todd_series(m.ring.top_degree)
    return integrate_points(m, all_points(m.ring), (), td, m.tangent_bundle, V)


def negative(rd: RootData) -> tuple[Weight, ...]:
    """The negatives of the positive roots."""
    return tuple(tuple(-x for x in w) for w in rd.positive)


def opposite(rd: RootData) -> RootData:
    """Same data with the opposite positivity convention."""
    return RootData(rd.rank, rd.roots, negative(rd), rd.weyl_generators, rd.weyl_order)

"""Combinatorial ground truth for Grassmannian pairings and Betti numbers.

Schubert classes of G(k,n) are indexed by partitions inside a k x (n-k) box.
Multiplication by the Chern classes of the dual tautological bundle follows
the vertical-strip Pieri rule, so any monomial in those classes can be
evaluated by walking Pieri steps and reading off the full-box coefficient.

This module is kept independent of the polynomial engine on purpose: it uses
partitions and integer counters only, so it can serve as an oracle for the
ring-theoretic computations elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

Partition = tuple[int, ...]
SchubertCycle = dict[Partition, int]


def normalize_partition(parts: Sequence[int]) -> Partition:
    """Canonical form: weakly decreasing, trailing zeros stripped."""
    ps = list(parts)
    if any(p < 0 for p in ps):
        raise ValueError(f"negative part in {parts}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"{parts} is not weakly decreasing")
    while ps and ps[-1] == 0:
        ps.pop()
    return tuple(ps)


def partitions_in_box(rows: int, cols: int, size: int) -> Iterator[Partition]:
    """Partitions of `size` with at most `rows` parts, each at most `cols`."""

    def rec(remaining: int, max_part: int, slots: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for p in range(min(max_part, remaining), 0, -1):
            yield from rec(remaining - p, p, slots - 1, prefix + (p,))

    if size < 0:
        return
    yield from rec(size, cols, rows, ())


def _vertical_strip_additions(lam: Partition, size: int, rows: int, cols: int) -> Iterator[Partition]:
    """All partitions obtained from lam by adding a vertical strip of `size`
    boxes (at most one box per row) while staying inside the box."""
    padded = list(lam) + [0] * (rows - len(lam))

    def rec(row: int, remaining: int, prefix: tuple[int, ...]):
        if remaining > rows - row:
            return
        if row == rows:
            yield normalize_partition(prefix)
            return
        # skip this row
        yield from rec(row + 1, remaining, prefix + (padded[row],))
        # add one box here, keeping the result weakly decreasing and boxed
        if remaining > 0:
            new = padded[row] + 1
            upper = prefix[-1] if row > 0 else cols
            if new <= cols and new <= upper:
                yield from rec(row + 1, remaining - 1, prefix + (new,))

    yield from rec(0, size, ())


def pieri_e_multiply(cycle: SchubertCycle, i: int, box: tuple[int, int]) -> SchubertCycle:
    """Multiply a cycle by the i-th dual-tautological Chern class.

    Adds vertical strips of size i inside the box; partitions that escape the
    box drop out.
    """
    rows, cols = box
    if not 1 <= i <= rows:
        raise ValueError(f"Pieri index {i} out of range 1..{rows}")
    out: SchubertCycle = {}
    for lam, coeff in cycle.items():
        for mu in _vertical_strip_additions(lam, i, rows, cols):
            out[mu] = out.get(mu, 0) + coeff
    return {lam: c for lam, c in out.items() if c}


def oracle_chern_pairing(k: int, n: int, exponents: Sequence[int]) -> Fraction:
    """Pairing of a monomial in dual-tautological Chern classes on G(k,n),
    evaluated purely by Pieri chains."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    exps = list(exponents)
    if len(exps) != k:
        raise ValueError(f"expected {k} exponents, got {len(exps)}")
    if any(m < 0 for m in exps):
        raise ValueError(f"negative exponent in {exponents}")
    if sum((i + 1) * m for i, m in enumerate(exps)) != k * (n - k):
        return Fraction(0)
    box = (k, n - k)
    cycle: SchubertCycle = {(): 1}
    for i, m in enumerate(exps, start=1):
        for _ in range(m):
            cycle = pieri_e_multiply(cycle, i, box)
    full = normalize_partition(((n - k),) * k)
    return Fraction(cycle.get(full, 0))


def oracle_betti(k: int, n: int) -> list[int]:
    """Betti numbers of G(k,n) in u-degree d, as partition counts in the box."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    top = k * (n - k)
    return [sum(1 for _ in partitions_in_box(k, n - k, d)) for d in range(top + 1)]

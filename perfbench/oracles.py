"""Independent references for the benchmark's queries.

Nothing here imports the polynomial engine (`abelianize.ratpoly`) or the
formula modules built on it.  Pairings and Betti numbers come from the
package's Pieri oracle (`abelianize.schubert`), which is independent of the
engine by design; everything else is a closed form or an Atiyah-Bott
localization sum over the torus-fixed points of G(k,n), computed here with
exact rationals.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from abelianize.schubert import oracle_betti, oracle_chern_pairing


def degree_vectors(k: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors (m_1..m_k) with sum i*m_i == degree, ascending."""
    out = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == k:
            if remaining == 0:
                out.append(prefix)
            return
        for mi in range(remaining // (i + 1) + 1):
            rec(i + 1, remaining - (i + 1) * mi, prefix + (mi,))

    rec(0, degree, ())
    return sorted(out)


def euler(k: int, n: int) -> Fraction:
    return Fraction(comb(n, k))


def signature(k: int, n: int) -> Fraction:
    """Alternating Betti sum in even complex dimension, else 0."""
    if (k * (n - k)) % 2:
        return Fraction(0)
    return Fraction(sum((-1) ** d * b for d, b in enumerate(oracle_betti(k, n))))


def weyl_dimension(k: int, n: int, d: int) -> Fraction:
    """Euler characteristic of O(d) on G(k,n): the Weyl dimension polynomial
    of the GL_n highest weight (d^k, 0^(n-k))."""
    lam = [d] * k + [0] * (n - k)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return Fraction(num, den)


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of the q-binomial [n choose k]_q, from
    [n,k] = [n-1,k-1] + q^k [n-1,k]: the Betti numbers of G(k,n) without
    partitions or the Pieri oracle."""
    if k == 0 or k == n:
        return [1]
    a = gaussian_binomial(n - 1, k - 1)
    b = [0] * k + gaussian_binomial(n - 1, k)
    size = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)]


def pairing_table_csv(k: int, n: int) -> str:
    rows = [",".join(f"m_{i + 1}" for i in range(k)) + ",value"]
    for exps in degree_vectors(k, k * (n - k)):
        rows.append(",".join(map(str, exps)) + f",{oracle_chern_pairing(k, n, exps)}")
    return "\n".join(rows) + "\n"


def oracle_check_text(k: int, n: int) -> str:
    count = len(degree_vectors(k, k * (n - k)))
    return f"G({k},{n}): {count} pairings checked\ntotal: {count} pairings, ok\n"


def segre_pairing(k: int, n: int, exps: tuple[int, ...]) -> Fraction:
    """Integral over G(k,n) of (1 + e_1 + ... + e_k)^(-1) times the
    e-monomial with the given exponents, by expanding the geometric series
    in e-monomials and pairing each term with the Pieri oracle."""
    dim = k * (n - k)
    have = sum((i + 1) * m for i, m in enumerate(exps))
    total = Fraction(0)
    for extra in degree_vectors(k, dim - have) if dim >= have else []:
        size = sum(extra)
        multinomial = factorial(size)
        for m in extra:
            multinomial //= factorial(m)
        vec = tuple(a + b for a, b in zip(exps, extra))
        total += (-1) ** size * multinomial * oracle_chern_pairing(k, n, vec)
    return total


# -- Atiyah-Bott localization on G(k,n) -----------------------------------


def _series_log(f: list[Fraction]) -> list[Fraction]:
    """log f for f_0 == 1, from n f_n = sum_{j=1}^n j g_j f_{n-j}."""
    g = [Fraction(0)] * len(f)
    for n in range(1, len(f)):
        acc = n * f[n] - sum(j * g[j] * f[n - j] for j in range(1, n))
        g[n] = acc / n
    return g


def _series_exp_top(g: list[Fraction]) -> Fraction:
    """Last coefficient of exp(g) for g_0 == 0."""
    h = [Fraction(1)] + [Fraction(0)] * (len(g) - 1)
    for n in range(1, len(g)):
        h[n] = sum(j * g[j] * h[n - j] for j in range(1, n + 1)) / n
    return h[-1]


def characteristic_number(k: int, n: int, coeffs: list[Fraction]) -> Fraction:
    """Integral over G(k,n) of prod f(x) over the tangent Chern roots x, for
    the series f with the given coefficients (f_0 == 1).

    At the fixed point indexed by a k-subset I the tangent weights are
    t_j - t_i (i in I, j not in I).  The degree-dim part of prod f(w) is the
    top coefficient of exp(sum_j log(f)_j p_j), with p_j the j-th power sum
    of the weights, and the Bott formula divides it by prod w.
    """
    dim = k * (n - k)
    f = [Fraction(c) for c in coeffs[: dim + 1]]
    f += [Fraction(0)] * (dim + 1 - len(f))
    logf = _series_log(f)
    total = Fraction(0)
    for fixed in combinations(range(n), k):
        weights = [j - i for i in fixed for j in range(n) if j not in fixed]
        euler_class = 1
        for w in weights:
            euler_class *= w
        g = [logf[j] * sum(w**j for w in weights) for j in range(dim + 1)]
        total += _series_exp_top(g) / euler_class
    return total


# -- model documents --------------------------------------------------------


def unitary_roots(k: int) -> list[tuple[int, ...]]:
    """Unitary roots in the package's documented order: -1 at i, +1 at j."""
    roots = []
    for i in range(k):
        for j in range(k):
            if i != j:
                w = [0] * k
                w[i], w[j] = -1, 1
                roots.append(tuple(w))
    return roots


def config_dump_text(k: int, n: int, root_gens, action, tangent: list[int],
                     prefactor: str = "1", subgroup: list[int] | None = None) -> str:
    """The serialized form `config-dump` must print for a Grassmannian model
    with the given 1-based root-data generators and Weyl action, and the
    given tangent-summand order (indices into e_1..e_k, with k standing for
    the trivial summand)."""
    roots = unitary_roots(k)
    summands = []
    for i in tangent:
        if i == k:
            summands.append({"multiplicity": str(-k), "weight": "0"})
        else:
            weight = [str(int(j == i)) for j in range(k)]
            summands.append({"multiplicity": str(n), "weight": weight})
    sym_order = factorial(k)
    doc = {
        "orbifold_prefactor": str(Fraction(prefactor)),
        "ring": {"truncations": [str(n)] * k, "variables": str(k)},
        "roots": {
            "positive": [str(i) for i, w in enumerate(roots) if w.index(-1) < w.index(1)],
            "weights": [[str(x) for x in w] for w in roots],
            "weyl_generators": [[str(x) for x in g] for g in root_gens],
            "weyl_order": str(sym_order),
        },
        "schema": "1",
        "tangent_bundle": summands,
        "weyl_action": [[str(x) for x in g] for g in action],
    }
    if subgroup is not None:
        doc["subgroup_roots"] = {
            "indices": [str(i) for i in subgroup],
            "weyl_order": str(subgroup_order(roots, subgroup)),
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def subgroup_order(roots: list[tuple[int, ...]], indices: list[int]) -> int:
    """Weyl order of the Levi subgroup whose roots are the given unitary
    roots: the product of block factorials of the connected index classes."""
    k = len(roots[0])
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for idx in indices:
        w = roots[idx]
        parent[find(w.index(-1))] = find(w.index(1))
    sizes: dict[int, int] = {}
    for x in range(k):
        sizes[find(x)] = sizes.get(find(x), 0) + 1
    order = 1
    for s in sizes.values():
        order *= factorial(s)
    return order


def expand_e_monomial(k: int, n: int, exps: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """prod_i e_i^(m_i) in Q[u_1..u_k]/(u_j^n), as an exponent->coefficient map."""
    factors = []
    for i, m in enumerate(exps, start=1):
        e_i = {}
        for combo in combinations(range(k), i):
            e_i[tuple(int(j in combo) for j in range(k))] = 1
        factors.extend([e_i] * m)
    out = {(0,) * k: 1}
    for factor in factors:
        nxt: dict[tuple[int, ...], int] = {}
        for a, ca in out.items():
            for b, cb in factor.items():
                e = tuple(x + y for x, y in zip(a, b))
                if max(e) < n:
                    nxt[e] = nxt.get(e, 0) + ca * cb
        out = {e: c for e, c in nxt.items() if c}
    return out


def poly_text(terms: dict[tuple[int, ...], Fraction]) -> str:
    """Render an exponent->coefficient map in the CLI's polynomial grammar."""
    text = ""
    for e, c in sorted(terms.items()):
        c = Fraction(c)
        if not c:
            continue
        factors = [f"u{i + 1}^{x}" if x > 1 else f"u{i + 1}" for i, x in enumerate(e) if x]
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += "*".join([str(abs(c))] + factors)
    return text or "0"

"""Characteristic classes of split bundles and the derived invariants.

Multiplicative classes are given by a univariate series with constant term 1
(total Chern 1+x, Todd x/(1-exp(-x)), L-class x/tanh(x), or any custom
series); applied to a split bundle they become finite exact products in the
truncated ring.  On top of these sit the elliptic-operator index of a lifted
bundle and one characteristic-number formula, whose total-Chern and L-class
cases are the Euler characteristic and the signature, all evaluated on the
torus side as sums over fixed points.  Each sum names the Young subgroup
that fixes its integrand by its blocks, W's or `stabilizer_blocks`, and
`quotient` builds the points.  The two-term form of the index stays on
products, as an evaluation that shares no kernel with the point sums.

The named series and the log-derivatives x f'/f that the point sums read
come from one integer table of Bernoulli numbers, with no series division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat
from math import factorial, lcm
from typing import Callable, Sequence

from .ratpoly import Poly, Series, eval_series, exp_series
from .rootdata import root_euler_class, stabilizer_blocks
from .quotient import QuotientModel, SplitBundle, integrate_points, integrate_torus


# -- named multiplicative series ------------------------------------------


def _bernoulli(order: int) -> dict[int, tuple[int, int]]:
    """2^j B_j / j! = (-1)^(n-1) T_n / ((4^n - 1) (2n - 1)!) as integers (a, b)
    at even j = 2n <= order, T_n the tangent numbers (Knuth-Buckholtz)."""
    T = [factorial(n - 1) for n in range(1, order // 2 + 1)]
    for k in range(1, len(T)):
        for j in range(k, len(T)):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return {2 * n: ((-1) ** (n - 1) * t, (4**n - 1) * factorial(2 * n - 1)) for n, t in enumerate(T, 1)}


def _series(order: int, terms: dict[int, tuple[int, int]]) -> Series:
    """sum_j (a_j / b_j) x^j to the given order, from integers, no `Fraction`."""
    den = lcm(*(b for _, b in terms.values()))
    return Series.over([a * den // b for a, b in map(terms.get, range(order + 1), repeat((0, 1)))], den)


def total_chern_series(order: int) -> Series:
    """1 + x."""
    return Series([1, 1]).truncated(order)


def todd_series(order: int) -> Series:
    """x/(1 - exp(-x)) = 1 + x/2 + sum_j B_j x^j / j! over even j > 0."""
    bernoulli = _bernoulli(order).items()
    return _series(order, {0: (1, 1), 1: (1, 2), **{j: (a, b << j) for j, (a, b) in bernoulli}})


def l_class_series(order: int) -> Series:
    """x/tanh(x) = sum_j 2^j B_j x^j / j! over even j."""
    return _series(order, {0: (1, 1), **_bernoulli(order)})


def tanh_series(order: int) -> Series:
    """tanh(x) = sum_j 2^j (2^j - 1) B_j x^(j-1) / j! over even j > 0, which
    is x/(x/tanh x): the root factor of the L-class, a reference for x/f(x)."""
    bernoulli = _bernoulli(order + 1).items()
    return _series(order, {j - 1: (a * ((1 << j) - 1), b) for j, (a, b) in bernoulli})


def euler_factor_series(order: int) -> Series:
    """x/(1+x), the root factor of the total Chern class, a reference for
    x/f(x) built from the geometric series."""
    geom = Series([1, 1]).truncated(order).reciprocal()
    return Series.over([0, *geom.nums[:order]], geom.den)


def class_log(name: str, order: int) -> Series:
    """x f'/f = sum_j j l_j x^j, l = log f, of a class in `CLASS_SERIES`
    (Hirzebruch, *Topological Methods*, section 1): (-1)^(j-1) for 1 + x,
    l_1 = 1/2 and -B_j / j! at j > 1 for Todd, 2^j (2^j - 2) B_j / j! for
    the L-class."""
    if name == "total-chern":
        return _series(order, {j: ((-1) ** (j - 1), 1) for j in range(1, order + 1)})
    bernoulli = _bernoulli(order).items()  # B_j = 0 at odd j > 1
    if name == "todd":
        return _series(order, {1: (1, 2), **{j: (-a, b << j) for j, (a, b) in bernoulli}})
    if name == "l-class":
        return _series(order, {j: (a * ((1 << j) - 2), b) for j, (a, b) in bernoulli})
    raise ValueError(f"unknown class {name!r}")


#: Named multiplicative series usable in characteristic-number computations.
CLASS_SERIES: dict[str, Callable[[int], Series]] = {
    "total-chern": total_chern_series,
    "todd": todd_series,
    "l-class": l_class_series,
}


# -- classes of split bundles ----------------------------------------------


def mult_class(f: Series, V: SplitBundle) -> Poly:
    """Apply a multiplicative series to a split bundle.

    Each summand contributes f(root)^multiplicity, root being the Euler class
    of its weight, and is skipped where that is 1 (a trivial line): the series
    is raised to the power before it is substituted.  Negative multiplicities
    go through the series reciprocal, so virtual bundles are supported.
    """
    if f.constant_term != 1:
        raise ValueError("a multiplicative class series must have constant term 1")
    f = f.truncated(V.ring.top_degree)
    powers: dict[int, Series] = {}  # f^mult, once for each multiplicity
    out = V.ring.one()
    for w, mult in V.summands:
        if not any(w):
            continue
        if mult not in powers:
            powers[mult] = (f if mult > 0 else f.reciprocal()) ** abs(mult)
        out = out * eval_series(powers[mult], root_euler_class(V.ring, w))
    return out


def chern_character(V: SplitBundle) -> Poly:
    """Sum of multiplicity * exp(root) over the summands; additive over sums,
    multiplicative over tensor products of lines."""
    e = exp_series(V.ring.top_degree)
    out = V.ring.zero()
    for w, mult in V.summands:
        out = out + eval_series(e, root_euler_class(V.ring, w)) * mult
    return out


def exterior_power(V: SplitBundle, i: int) -> SplitBundle:
    """The i-th exterior power of a genuine split bundle: one line per
    i-subset of its lines, with the subset's weights summed."""
    if any(m < 0 for _, m in V.summands):
        raise ValueError("exterior powers need nonnegative multiplicities")
    lines = [w for w, mult in V.summands for _ in range(mult)]
    if i < 0 or i > len(lines):
        raise ValueError(f"exterior power index {i} out of range 0..{len(lines)}")
    zero = (0,) * V.ring.k  # the sum of the empty subset
    return SplitBundle(
        V.ring, [(tuple(map(sum, zip(zero, *combo))), 1) for combo in combinations(lines, i)]
    )


def lambda_alternating_ch(E: SplitBundle) -> Poly:
    """The alternating Chern character of the exterior algebra of E, via the
    product identity prod (1 - exp(root)) over the lines of E."""
    if any(m < 0 for _, m in E.summands):
        raise ValueError("the alternating exterior Chern character needs a genuine bundle")
    e = exp_series(E.ring.top_degree)
    out = one = E.ring.one()
    for w, mult in E.summands:
        out = out * (one - eval_series(e, root_euler_class(E.ring, w))) ** mult
    return out


# -- index of a lifted elliptic operator ------------------------------------


def _tangent_less(m: QuotientModel, weights: Sequence[tuple[int, ...]]) -> SplitBundle:
    """The tangent bundle less one line of each of the model's own weights."""
    return SplitBundle._trusted(m.ring, m.tangent_bundle.summands + tuple((w, -1) for w in weights))


def index_group(m: QuotientModel, V_lift: SplitBundle) -> Fraction:
    """Index on the nonabelian quotient of the operator twisted by a bundle
    with the given lift, computed on the torus side as the integral of
    ch(lift) * Td(tangent) * prod (1 - exp(e(alpha))) over positive roots,
    by a sum over fixed points.  It depends on the positivity choice unless W
    fixes the lift: on G(3,6), L(0,1,2) gives 70, and 0 with the opposite one.

    Where the roots form blocks, W = prod S_|b| fixes the other factors; if
    it fixes the lift too, by the Weyl denominator formula the last factor
    averages over W to prod x/Td(x) over all roots: the integral of ch(lift)
    * Td(tangent - roots) * e over |W|, one point per W-orbit.  Elsewhere
    1 - e^x = -x e^x / Td(x) makes the last factor prod (-alpha) *
    ch(L_2rho) / Td(E), E the positive-root bundle and L_2rho = det E, one
    point per orbit of the `stabilizer_blocks` that fix this integrand."""
    if V_lift.ring != m.ring:
        raise ValueError("bundle lives in the wrong ring")
    rd = m.root_data
    if rd.blocks is not None and rd.moved(V_lift.multiplicities()) is None:
        td, V = class_log("todd", m.quotient_dim), _tangent_less(m, rd.roots)
        return integrate_points(m, rd.blocks, rd.roots, td, V, V_lift) / rd.weyl_order
    positive = rd.positive
    E = SplitBundle._trusted(m.ring, tuple((w, 1) for w in positive))
    negated = [tuple(-x for x in w) for w in positive]
    td = class_log("todd", m.ring.top_degree - len(negated))
    V, twist = _tangent_less(m, positive), V_lift.tensor(exterior_power(E, E.rank))
    weights = (dict.fromkeys(negated, 1), V.multiplicities(), twist.multiplicities())
    return integrate_points(m, stabilizer_blocks(m.ring.truncations, *weights), negated, td, V, twist)


def index_group_two_term(m: QuotientModel, V_lift: SplitBundle) -> Fraction:
    """The same index as one torus-side index, twisting by the virtual bundle
    sum_i (-1)^i Lambda^i E of the positive-root bundle E: the even exterior
    powers less the odd ones, whose Chern character is prod (1 - exp(root))
    over E.  It is the integral of ch(lift) * Td(tangent) * that character
    as a product of `Poly` factors, so `index --check-two-term` compares the
    fixed-point sum with an evaluation on the other kernel."""
    if V_lift.ring != m.ring:
        raise ValueError("bundle lives in the wrong ring")
    td = mult_class(todd_series(m.ring.top_degree), m.tangent_bundle)
    alternating = lambda_alternating_ch(SplitBundle(m.ring, [(w, 1) for w in m.root_data.positive]))
    return integrate_torus(m, chern_character(V_lift), td, alternating)


# -- characteristic numbers --------------------------------------------------


def characteristic_number(m: QuotientModel, f: Series | str) -> Fraction:
    """Characteristic number of the nonabelian quotient for a multiplicative
    series f: the prefactored torus integral of f(tangent) times x/f(x) at
    each root, which is f(tangent - roots) * e, summed over the W-orbits of
    the roots' blocks, or over all points where they form none.  The series
    is read to the quotient dimension; a `CLASS_SERIES` name reads its
    `class_log`."""
    if isinstance(f, str):
        f = class_log(f, m.quotient_dim)
    elif f.constant_term != 1:
        raise ValueError("a multiplicative class series must have constant term 1")
    rd = m.root_data
    return m.prefactor() * integrate_points(m, rd.blocks, rd.roots, f, _tangent_less(m, rd.roots))


def euler_characteristic(m: QuotientModel) -> Fraction:
    """Euler characteristic of the nonabelian quotient: the characteristic
    number of the total Chern class."""
    return characteristic_number(m, "total-chern")


def signature(m: QuotientModel) -> Fraction:
    """Signature of the nonabelian quotient: the characteristic number of the
    L-class; zero in odd complex dimension."""
    if m.quotient_dim % 2 == 1:
        return Fraction(0)
    return characteristic_number(m, "l-class")

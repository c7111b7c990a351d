"""Characteristic classes of split bundles and the derived invariants.

Multiplicative classes are given by a univariate series with constant term 1
(total Chern 1+x, Todd x/(1-exp(-x)), L-class x/tanh(x), or any custom
series); applied to a split bundle they become finite exact products in the
truncated ring.  On top of these sit the elliptic-operator index of a lifted
bundle and one characteristic-number formula, whose total-Chern and L-class
cases are the Euler characteristic and the signature, all evaluated on the
torus side as sums over fixed points.  The two-term form of the index stays
on products, as an evaluation that shares no kernel with the point sums.

The named series are generated from the exponential series by exact
reciprocal/product recurrences rather than hard-coded tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .ratpoly import Poly, Series, eval_series, exp_series
from .rootdata import root_euler_class
from .quotient import QuotientModel, SplitBundle, all_points, orbit_points
from .quotient import integrate_points, integrate_torus


# -- named multiplicative series ------------------------------------------


def total_chern_series(order: int) -> Series:
    """1 + x."""
    return Series([1, 1]).truncated(order)


def todd_series(order: int) -> Series:
    """x/(1 - exp(-x)), as the reciprocal of (1 - exp(-x))/x."""
    e = exp_series(order + 1)
    # (1 - exp(-x))/x has coefficient (-1)^j / (j+1)! at x^j
    den = Series.over([(-1) ** j * e.nums[j + 1] for j in range(order + 1)], e.den)
    return den.reciprocal()


def _cosh_series(order: int) -> Series:
    e = exp_series(order)
    return Series.over([e.nums[j] if j % 2 == 0 else 0 for j in range(order + 1)], e.den)


def _sinh_over_x_series(order: int) -> Series:
    e = exp_series(order + 1)
    return Series.over([e.nums[j + 1] if j % 2 == 0 else 0 for j in range(order + 1)], e.den)


def l_class_series(order: int) -> Series:
    """x/tanh(x) = cosh(x) / (sinh(x)/x)."""
    return _cosh_series(order) * _sinh_over_x_series(order).reciprocal()


def tanh_series(order: int) -> Series:
    """tanh(x) = sinh(x)/cosh(x), which is x/(x/tanh x): the root factor of the
    L-class, a reference for x/f(x) built from sinh and cosh."""
    e = exp_series(order)
    sinh = Series.over([e.nums[j] if j % 2 == 1 else 0 for j in range(order + 1)], e.den)
    return sinh * _cosh_series(order).reciprocal()


def euler_factor_series(order: int) -> Series:
    """x/(1+x), the root factor of the total Chern class, a reference for
    x/f(x) built from the geometric series."""
    geom = Series([1, 1]).truncated(order).reciprocal()
    return Series.over([0, *geom.nums[:order]], geom.den)


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
    """The tangent bundle less one line of each weight."""
    return m.tangent_bundle + SplitBundle(m.ring, [(w, -1) for w in weights])


def index_group(m: QuotientModel, V_lift: SplitBundle) -> Fraction:
    """Index on the nonabelian quotient of the operator twisted by a bundle
    with the given lift, computed on the torus side as the integral of
    ch(lift) * Td(tangent) * prod (1 - exp(e(alpha))) over positive roots,
    by a sum over fixed points.  It depends on the positivity choice unless W
    fixes the lift: on G(3,6), L(0,1,2) gives 70, and 0 with the opposite one.

    Where `orbit_points` admits the model and the lift, W fixes the other
    factors, and by the Weyl denominator formula the last one averages over
    W to prod x/Td(x) over all roots: the integral of ch(lift) *
    Td(tangent - roots) * e over |W|.  Elsewhere, over all points,
    1 - e^x = -x e^x / Td(x) makes the last factor prod (-alpha) *
    ch(L_2rho) / Td(E), E the positive-root bundle and L_2rho = det E."""
    if V_lift.ring != m.ring:
        raise ValueError("bundle lives in the wrong ring")
    points, roots = orbit_points(m, V_lift), m.root_data.roots
    if points is not None:
        td, V = todd_series(m.quotient_dim), _tangent_less(m, roots)
        return integrate_points(m, points, roots, td, V, V_lift) / m.root_data.weyl_order
    positive = m.root_data.positive
    E = SplitBundle(m.ring, [(w, 1) for w in positive])
    negated = [tuple(-x for x in w) for w in positive]
    td = todd_series(m.ring.top_degree - len(negated))
    V = V_lift.tensor(exterior_power(E, E.rank))
    return integrate_points(m, all_points(m.ring), negated, td, _tangent_less(m, positive), V)


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


def characteristic_number(m: QuotientModel, f: Series) -> Fraction:
    """Characteristic number of the nonabelian quotient for a multiplicative
    series f: the prefactored torus integral of f(tangent) times x/f(x) at
    each root, which is f(tangent - roots) * e, summed over the Weyl orbits
    of `orbit_points` where it admits the model, else over all points.  The
    series is read to the quotient dimension."""
    if f.constant_term != 1:
        raise ValueError("a multiplicative class series must have constant term 1")
    roots, points = m.root_data.roots, orbit_points(m) or all_points(m.ring)
    return m.prefactor() * integrate_points(m, points, roots, f, _tangent_less(m, roots))


def euler_characteristic(m: QuotientModel) -> Fraction:
    """Euler characteristic of the nonabelian quotient: the characteristic
    number of the total Chern class."""
    return characteristic_number(m, total_chern_series(m.quotient_dim))


def signature(m: QuotientModel) -> Fraction:
    """Signature of the nonabelian quotient: the characteristic number of the
    L-class; zero in odd complex dimension."""
    if m.quotient_dim % 2 == 1:
        return Fraction(0)
    return characteristic_number(m, l_class_series(m.quotient_dim))

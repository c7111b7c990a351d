"""Characteristic classes of split bundles and the derived invariants.

Multiplicative classes are given by a univariate series with constant term 1
(total Chern 1+x, Todd x/(1-exp(-x)), L-class x/tanh(x), or any custom
series); applied to a split bundle they become finite exact products in the
truncated ring.  On top of these sit the elliptic-operator index of a lifted
bundle and one characteristic-number formula, whose total-Chern and L-class
cases are the Euler characteristic and the signature, all evaluated on the
torus side.

The named series are generated from the exponential series by exact
reciprocal/product recurrences rather than hard-coded tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable

from .ratpoly import Poly, Series, eval_series, exp_series
from .rootdata import root_euler_class
from .quotient import QuotientModel, SplitBundle, integrate_torus


# -- named multiplicative series ------------------------------------------


def total_chern_series(order: int) -> Series:
    """1 + x."""
    return Series([1, 1]).truncated(order)


def todd_series(order: int) -> Series:
    """x/(1 - exp(-x)), as the reciprocal of (1 - exp(-x))/x."""
    e = exp_series(order + 1)
    # (1 - exp(-x))/x has coefficient (-1)^j / (j+1)! at x^j
    den = Series([(-1) ** j * e.coeffs[j + 1] for j in range(order + 1)])
    return den.reciprocal()


def _cosh_series(order: int) -> Series:
    e = exp_series(order)
    return Series([e.coeffs[j] if j % 2 == 0 else 0 for j in range(order + 1)])


def _sinh_over_x_series(order: int) -> Series:
    e = exp_series(order + 1)
    return Series([e.coeffs[j + 1] if j % 2 == 0 else 0 for j in range(order + 1)])


def l_class_series(order: int) -> Series:
    """x/tanh(x) = cosh(x) / (sinh(x)/x)."""
    return _cosh_series(order) * _sinh_over_x_series(order).reciprocal()


def tanh_series(order: int) -> Series:
    """tanh(x) = sinh(x)/cosh(x), which is x/(x/tanh x): the root factor of the
    L-class, built independently of `root_factor_series`."""
    e = exp_series(order)
    sinh = Series([e.coeffs[j] if j % 2 == 1 else 0 for j in range(order + 1)])
    return sinh * _cosh_series(order).reciprocal()


def root_factor_series(f: Series, order: int) -> Series:
    """x/f(x) to the given order: the factor each root contributes to
    `characteristic_number`; f needs a nonzero constant term."""
    return Series((0, *f.truncated(order).reciprocal().coeffs[:order]))


def euler_factor_series(order: int) -> Series:
    """x/(1+x), the root factor of the total Chern class, built independently
    of `root_factor_series`."""
    geom = Series([1, 1]).truncated(order).reciprocal()
    return Series([0] + list(geom.coeffs[:order]))


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
    of its weight; negative multiplicities go through the series reciprocal,
    so virtual bundles are supported.
    """
    if f.constant_term != 1:
        raise ValueError("a multiplicative class series must have constant term 1")
    f = f.truncated(V.ring.top_degree)
    f_inv = None
    out = V.ring.one()
    for w, mult in V.summands:
        root = root_euler_class(V.ring, w)
        if mult > 0:
            out = out * eval_series(f, root) ** mult
        else:
            if f_inv is None:
                f_inv = f.reciprocal()
            out = out * eval_series(f_inv, root) ** (-mult)
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
    out = E.ring.one()
    one = E.ring.one()
    for w, mult in E.summands:
        out = out * (one - eval_series(e, root_euler_class(E.ring, w))) ** mult
    return out


# -- index of a lifted elliptic operator ------------------------------------


def _positive_bundle(m: QuotientModel) -> SplitBundle:
    """The lines of the positive roots."""
    return SplitBundle(m.ring, [(w, 1) for w in m.root_data.positive])


def index_torus(m: QuotientModel, V: SplitBundle) -> Fraction:
    """Index of the twisted Dolbeault operator on the torus quotient:
    the integral of ch(V) * Td(tangent)."""
    td = mult_class(todd_series(m.ring.top_degree), m.tangent_bundle)
    return integrate_torus(m, chern_character(V), td)


def index_group(m: QuotientModel, V_lift: SplitBundle) -> Fraction:
    """Index on the nonabelian quotient of the operator twisted by a bundle
    with the given lift, computed on the torus side as the integral of
    ch(lift) * Td(tangent) * prod (1 - exp(e(alpha))) over positive roots.

    The value is independent of the positivity choice of the model's root
    data.
    """
    if V_lift.ring != m.ring:
        raise ValueError("bundle lives in the wrong ring")
    E = _positive_bundle(m)
    td = mult_class(todd_series(m.ring.top_degree), m.tangent_bundle)
    return integrate_torus(m, chern_character(V_lift), td, lambda_alternating_ch(E))


def index_group_two_term(m: QuotientModel, V_lift: SplitBundle) -> Fraction:
    """The same index as one torus-side index, twisting by the virtual bundle
    sum_i (-1)^i Lambda^i E of the positive-root bundle E: the even exterior
    powers less the odd ones."""
    if V_lift.ring != m.ring:
        raise ValueError("bundle lives in the wrong ring")
    E = _positive_bundle(m)
    alternating = [
        (w, (-1) ** i * mult)
        for i in range(E.rank + 1)
        for w, mult in exterior_power(E, i).summands
    ]
    return index_torus(m, V_lift.tensor(SplitBundle(m.ring, alternating)))


# -- characteristic numbers --------------------------------------------------


def characteristic_number(m: QuotientModel, f: Series) -> Fraction:
    """Characteristic number of the nonabelian quotient for a multiplicative
    series f: the prefactored torus integral of f(tangent - E - E*) * e, with
    E the positive-root bundle, as f(tangent) * prod over roots of x/f(x)."""
    if f.constant_term != 1:
        raise ValueError("a multiplicative class series must have constant term 1")
    g = root_factor_series(f, m.ring.top_degree)
    roots = [eval_series(g, root_euler_class(m.ring, w)) for w in m.root_data.roots]
    return m.prefactor() * integrate_torus(m, mult_class(f, m.tangent_bundle), *roots)


def euler_characteristic(m: QuotientModel) -> Fraction:
    """Euler characteristic of the nonabelian quotient: the characteristic
    number of the total Chern class."""
    return characteristic_number(m, total_chern_series(m.ring.top_degree))


def signature(m: QuotientModel) -> Fraction:
    """Signature of the nonabelian quotient: the characteristic number of the
    L-class; zero in odd complex dimension."""
    if m.quotient_dim % 2 == 1:
        return Fraction(0)
    return characteristic_number(m, l_class_series(m.ring.top_degree))

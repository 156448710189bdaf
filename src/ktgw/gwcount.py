"""Assembly of the genus-one family curve counts.

A torus-representable degree-two class is moved to diagonal shape
[m, m, n, n] by a lattice automorphism.  For m = 0 the moduli components are
obstructed and contribute nothing.  For m != 0 the components are labelled
by (d, k, l) with d | gcd(m, n), k = 1..d, l = 1..|m|/d.  This module owns
the label rules: `moduli_component` refuses labels outside that range and
gives each label its one fully reduced homomorphism and its automorphism
order, and `moduli_components` lists them all once.  Each component carries
the evaluation-cycle class sgn(m) (m^2 + n^2) / gcd(m, n) (E134 + E234)
with weight 1 / |Aut|, and the weighted total collapses to the closed form

    (m^2 + n^2) sigma_2(gcd(m, n)) / gcd(m, n)^3 (a13 E134 + a23 E234).

Both routes are implemented and cross-checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .arith import aut_weight_sum, divisors, sigma
from .homs import HomDerivs, normalize_class
from .nilalg import H3_ZERO, H3Class, HomologyClass, h3_pushforward

__all__ = [
    "ModuliComponent",
    "GWResult",
    "moduli_component",
    "aut_size_smith",
    "component_count",
    "component_eval_class",
    "moduli_components",
    "gw_closed_form",
    "gw_enumerated",
]

# Most divisor pairs (f, d) of gcd(m, n) that `gw_enumerated` sums over,
# and the most bits of gcd(m, n), since each pair costs one gcd of its
# divisors: about 3.3 s at both limits (Intel Xeon, Python 3.11).
ENUMERATION_BUDGET = 4 * 10 ** 6
ENUMERATION_GCD_BITS = 1024
# Most components that `moduli_components` lists.
MODULI_BUDGET = 10 ** 4


def component_count(m: int, n: int) -> int:
    """Number |m| sigma_0(gcd(m, n)) of moduli components of (m, n), m != 0."""
    return abs(m) * sigma(0, math.gcd(m, n))


@dataclass(frozen=True)
class ModuliComponent:
    """One connected moduli component with its counting data.

    Built by `moduli_component` from its label (d, k, ell): hom is the
    label's fully reduced homomorphism, and aut_size its lattice index.  Its
    torus geometry is `geometry.solve_torus_data(hom)`, and its
    evaluation-cycle class, the same for every component of the class, is
    `component_eval_class(m, n)`.
    """

    d: int
    k: int
    ell: int
    hom: HomDerivs
    aut_size: int


def moduli_component(m: int, n: int, d: int, k: int,
                     ell: int) -> ModuliComponent:
    """The moduli component (d, k, l) of the class (m, n).

    Requires m != 0, d | gcd(m, n), 1 <= k <= d and 1 <= l <= |m|/d, and
    raises ValueError otherwise.  The label (d, k, l) names the torus

        dq h1 = dq h2 = -sgn(m) d,   dp h3 = |m|/d,   dp h4 = -n / (sgn(m) d),
        dq h3 = l,                   dq h4 = k - d/2,

    whose lattice index is the automorphism order gcd(gcd(m, n),
    (m k + n l)/d), with gcd(x, 0) = |x| and the second argument taken in
    absolute value.  For l < |m|/d that torus is already fully reduced.  For
    l = |m|/d the reparametrisation q -> q - p takes dq h3 to 0 and dq h4 to
    k - d/2 - dp h4, and conjugation by a lattice element adds multiples of
    dq h1 = -sgn(m) d to dq h4, so dq h4 only matters mod d.  The result is
    then dq h3 = 0, dq h4 = k' - d/2 with k' = ((k - dp h4 - 1) mod d) + 1.
    The stored closed entry is dq h4 + dq h1 dq h2 / 2 = k' + d (d - 1) / 2.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    g = math.gcd(m, n)
    if d < 1 or g % d != 0:
        raise ValueError(f"{d} does not divide gcd({m}, {n})")
    span = abs(m) // d
    if not 1 <= k <= d:
        raise ValueError(f"k = {k} is outside 1..{d}")
    if not 1 <= ell <= span:
        raise ValueError(f"l = {ell} is outside 1..{span}")
    sgn = 1 if m > 0 else -1
    dp4 = -n // (sgn * d)
    dq3, k_red = (0, (k - dp4 - 1) % d + 1) if ell == span else (ell, k)
    hom = HomDerivs((0, 0, span, dp4),
                    (-sgn * d, -sgn * d, dq3, k_red + d * (d - 1) // 2))
    return ModuliComponent(d, k, ell, hom,
                           math.gcd(g, (m * k + n * ell) // d))


def aut_size_smith(h: HomDerivs) -> int:
    """Automorphism order of a reduced homomorphism as a lattice index.

    The image of the induced map Z^2 -> Z^3 into the integralised centraliser
    has index gcd of the 2x2 minors of

        [ 0    g2 ]
        [ c1   c2 ]
        [ d1   d2 - g2 (g2 - 1) abar bbar / 2 ]

    where (a2, b2) = (dq h1, dq h2), g2 = gcd(a2, b2), abar = a2/g2,
    bbar = b2/g2, (c1, c2) = (dp h3, dq h3) and (d1, d2) is the dh4 row with
    its half-integer closure, the stored integers dp[3] and dq[3].  This is
    an oracle for `moduli_component`'s aut_size, independent of its closed
    k, l bookkeeping.  Refuses with ValueError a homomorphism that is not
    reduced or has dq h1 = 0.
    """
    if not h.is_reduced():
        raise ValueError("homomorphism must be reduced")
    if h.dq[0] == 0:
        raise ValueError("dq h1 must be nonzero")
    (_, _, c1, d1), (a2, b2, c2, z2) = h.dp, h.dq
    g2 = math.gcd(a2, b2)
    abar, bbar = a2 // g2, b2 // g2
    d2 = z2 - (g2 * (g2 - 1) // 2) * abar * bbar
    minor_12 = -g2 * c1
    minor_13 = -g2 * d1
    minor_23 = c1 * d2 - c2 * d1
    index = math.gcd(minor_12, minor_13, minor_23)
    if index == 0:
        raise ValueError("image has rank below two")
    return index


def component_eval_class(m: int, n: int) -> H3Class:
    """Evaluation-cycle class sgn(m) (m^2 + n^2)/gcd(m, n) (E134 + E234).

    The same class is carried by every component of the diagonal class with
    invariants (m, n).
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    g = math.gcd(m, n)
    coeff = Fraction((1 if m > 0 else -1) * (m * m + n * n), g)
    return H3Class(coeff, coeff, 0)


def moduli_components(m: int, n: int) -> List[ModuliComponent]:
    """All moduli components of the diagonal class with invariants (m, n).

    One per label (d, k, l), in lexicographic (d, l, k) order, |m|
    sigma_0(gcd(m, n)) in all.  Refuses m = 0, whose components are
    obstructed, and more than MODULI_BUDGET components, before building
    any homomorphism.
    """
    if m == 0:
        raise ValueError("moduli with m = 0 are obstructed and do not "
                         "contribute")
    components = component_count(m, n)
    if components > MODULI_BUDGET:
        raise ValueError(f"{components} moduli components exceed the "
                         f"moduli budget of {MODULI_BUDGET}")
    return [moduli_component(m, n, d, k, ell)
            for d in divisors(math.gcd(m, n))
            for ell in range(1, abs(m) // d + 1)
            for k in range(1, d + 1)]


@dataclass(frozen=True)
class GWResult:
    """Genus-one one-point family invariant of a degree-two class.

    m and n are the invariants of the class's diagonal shape [m, m, n, n].
    """

    m: int
    n: int
    gw: H3Class
    method: str


def gw_closed_form(A: HomologyClass) -> GWResult:
    """Closed-form invariant (m^2+n^2) sigma_2(g)/g^3 (a13 E134 + a23 E234).

    Here m, n are the gcds of the coordinate pairs and g = gcd(m, n).
    Classes with m = 0 (including A = 0) have obstructed moduli and count
    zero.
    """
    _, norm = normalize_class(A)
    m, n = norm.a13, norm.a14
    if m == 0:
        gw = H3_ZERO
    else:
        g = math.gcd(m, n)
        coeff = Fraction((m * m + n * n) * sigma(2, g), g ** 3)
        gw = H3Class(coeff * A.a13, coeff * A.a23, 0)
    return GWResult(m, n, gw, "closed")


def gw_enumerated(A: HomologyClass) -> GWResult:
    """Invariant as the weighted sum of evaluation classes over components.

    Moves A to diagonal shape [m, m, n, n], scales the evaluation class all
    components carry by `aut_weight_sum`, the exact sum of 1 / |Aut| over
    the component labels taken as sigma_0(g)^2 divisor pairs of
    g = gcd(m, n), and pushes the total back along the inverse of the
    normalizing matrix, its adjugate.  Refuses g with more than
    ENUMERATION_GCD_BITS bits, and more than ENUMERATION_BUDGET pairs,
    before summing any.  Must agree exactly with `gw_closed_form`.
    """
    M, norm = normalize_class(A)
    m, n = norm.a13, norm.a14
    if m == 0:
        gw = H3_ZERO
    else:
        g = math.gcd(m, n)
        if g.bit_length() > ENUMERATION_GCD_BITS:
            raise ValueError(f"gcd(m, n) has {g.bit_length()} bits, over the "
                             f"enumeration limit of {ENUMERATION_GCD_BITS}")
        pairs = sigma(0, g) ** 2
        if pairs > ENUMERATION_BUDGET:
            raise ValueError(f"{pairs} divisor pairs exceed the enumeration "
                             f"budget of {ENUMERATION_BUDGET}")
        total = component_eval_class(m, n).scale(aut_weight_sum(m, n))
        (a, b), (c, d) = M
        gw = h3_pushforward(((d, -b), (-c, a)), total)
    return GWResult(m, n, gw, "enumerated")

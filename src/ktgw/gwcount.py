"""Assembly of the genus-one family curve counts.

A torus-representable degree-two class is moved to diagonal shape
[m, m, n, n] by a lattice automorphism.  For m = 0 the moduli components are
obstructed and contribute nothing.  For m != 0 the components are labelled
by (d, k, l) with d | gcd(m, n), k = 1..d, l = 1..|m|/d.  This module owns
the label rule: `_label` gives each label its one fully reduced
homomorphism and its automorphism order.  `moduli_divisors` walks the
labels once, one divisor at a time: per divisor d are gcd(m, n), sgn(m),
the span |m|/d of l, the dp column, dq h1 = dq h2 and the closure
d (d - 1) / 2 of dq h4, formed once by `_divisor`; per label are dq h3,
dq h4, |Aut| and the checked homomorphism.  The `moduli` command and the
geometry and oracle `verify` sweeps read the walk; the oracle checks each
label's |Aut| against `aut_size_smith` of its homomorphism and counts the
labels and their weights against `component_count` and
`aut_weight_total`.  Each component carries the evaluation-cycle class
sgn(m) (m^2 + n^2) / gcd(m, n) (E134 + E234) with weight 1 / |Aut|, and the
weighted total collapses to the closed form

    (m^2 + n^2) sigma_2(gcd(m, n)) / gcd(m, n)^3 (a13 E134 + a23 E234).

Both routes are implemented and cross-checked exactly, on (m, n) as well as
on the invariant.  The closed route reads (m, n) from the class itself and
evaluates the divisor sum; the enumerated route finds (m, n) with the
normalizing matrix of `homs.normalize_class`, sums the component weights
over divisor pairs and pushes the total back along that matrix.  Each
keeps its exact values as integers, the enumerated route reading the
numerator and denominator of its evaluation class, and builds one
`nilalg.Rational` for each E134 and E234 coefficient it returns.
"""

from __future__ import annotations

import math

from .arith import aut_weight_total, divisors, sigma
from .homs import HomDerivs, normalize_class, require_plucker
from .nilalg import H3_ZERO, H3Class, HomologyClass, Rational, Record

__all__ = [
    "GWResult",
    "aut_size_smith",
    "component_count",
    "component_eval_class",
    "moduli_divisors",
    "gw_closed_form",
    "gw_enumerated",
]

# Most divisor pairs (f, d) of gcd(m, n) that `gw_enumerated` sums over,
# and the most bits of gcd(m, n), since each pair costs one gcd of its
# divisors: about 3.3 s at both limits (Intel Xeon, Python 3.11).
ENUMERATION_BUDGET = 4 * 10 ** 6
ENUMERATION_GCD_BITS = 1024
# Most components that `moduli_divisors` walks.
MODULI_BUDGET = 10 ** 4


def component_count(m: int, n: int) -> int:
    """Number |m| sigma_0(gcd(m, n)) of moduli components of (m, n), m != 0."""
    return abs(m) * sigma(0, math.gcd(m, n))


def _divisor(m: int, n: int, g: int, d: int) -> tuple:
    """What the labels (d, k, l) of (m, n) share, g = gcd(m, n): m, n, g,
    d, the span |m|/d of l, the dp column (0, 0, |m|/d, -n / (sgn(m) d)),
    dq h1 = dq h2 = -sgn(m) d and the closure d (d - 1) / 2 of dq h4."""
    sgn = 1 if m > 0 else -1
    span = abs(m) // d
    return (m, n, g, d, span, (0, 0, span, -n // (sgn * d)), -sgn * d,
            d * (d - 1) // 2)


def _label(divisor: tuple, k: int, ell: int) -> tuple:
    """(k, l, dq h3, dq h4, |Aut|, hom) of the component (d, k, l) of the
    divisor data of `_divisor`, 1 <= k <= d and 1 <= l <= |m|/d.

    hom is the fully reduced form of the torus with dq h3 = l and
    dq h4 = k - d/2, and |Aut| = gcd(gcd(m, n), (m k + n l)/d) its lattice
    index.  For l < |m|/d that torus is already fully reduced.  For
    l = |m|/d, q -> q - p takes dq h3 to 0 and dq h4 to k - d/2 - dp h4,
    which lattice conjugation moves by multiples of dq h1 = -sgn(m) d, to
    k' - d/2 with k' = ((k - dp h4 - 1) mod d) + 1.  The stored closed
    entry dq h4 + dq h1 dq h2 / 2 is k' + d (d - 1) / 2.  Building hom is
    the lattice check.  By its sign of dp h4, every component of (m, n)
    pairs to the class [m, m, -n, -n], not [m, m, n, n].
    """
    m, n, g, d, span, dp, dq1, closure = divisor
    dq3, k_red = (0, (k - dp[3] - 1) % d + 1) if ell == span else (ell, k)
    dq4 = k_red + closure
    return (k, ell, dq3, dq4, math.gcd(g, (m * k + n * ell) // d),
            HomDerivs(dp, (dq1, dq1, dq3, dq4)))


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
    an oracle for the |Aut| of each label of `moduli_divisors`, independent
    of its closed k, l bookkeeping.  Refuses with ValueError a homomorphism that is not
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
    coeff = Rational((1 if m > 0 else -1) * (m * m + n * n), g)
    return H3Class(coeff, coeff, 0)


def moduli_divisors(m: int, n: int) -> list[tuple[int, tuple, int,
                                                   list[tuple]]]:
    """All moduli components of the diagonal class with invariants (m, n),
    one divisor d of gcd(m, n) at a time, in increasing d.

    Each divisor gives (d, dp, dq h1, labels): the dp column and dq h1 =
    dq h2 that its components share, and one (k, l, dq h3, dq h4, |Aut|,
    hom) per label in lexicographic (l, k) order, hom the label's checked
    fully reduced homomorphism by `_label`.  |m| sigma_0(gcd(m, n)) labels
    in all.  Refuses m = 0, whose components are obstructed, and more than
    MODULI_BUDGET components, before building any homomorphism; |m| past
    the budget already proves that, so it is refused before gcd(m, n) is
    factored.
    """
    if m == 0:
        raise ValueError("moduli with m = 0 are obstructed and do not "
                         "contribute")
    if abs(m) > MODULI_BUDGET:
        raise ValueError(f"at least {abs(m)} moduli components exceed the "
                         f"moduli budget of {MODULI_BUDGET}")
    components = component_count(m, n)
    if components > MODULI_BUDGET:
        raise ValueError(f"{components} moduli components exceed the "
                         f"moduli budget of {MODULI_BUDGET}")
    g = math.gcd(m, n)
    walk = []
    for d in divisors(g):
        divisor = _divisor(m, n, g, d)
        walk.append((d, divisor[5], divisor[6], [
            _label(divisor, k, ell) for ell in range(1, divisor[4] + 1)
            for k in range(1, d + 1)]))
    return walk


class GWResult(Record):
    """Genus-one one-point family invariant of a degree-two class.

    m and n are the invariants of the class's diagonal shape [m, m, n, n].
    """

    fields = ("m", "n", "gw", "method")

    def __init__(self, m: int, n: int, gw: H3Class, method: str) -> None:
        self.__dict__.update(m=m, n=n, gw=gw, method=method)


def gw_closed_form(A: HomologyClass) -> GWResult:
    """Closed-form invariant (m^2+n^2) sigma_2(g)/g^3 (a13 E134 + a23 E234).

    Here m, n are the invariants of A's diagonal shape and g = gcd(m, n),
    read without the normalizing matrix: the Plücker relation makes
    (a14, a24) proportional to (a13, a23), so m = gcd(a13, a23) and
    n = m a14 / a13, or m a24 / a23 when a13 = 0.  Classes with m = 0
    (including A = 0) have n = gcd(a14, a24) and obstructed moduli, and
    count zero.
    """
    require_plucker(A)
    m = math.gcd(A.a13, A.a23)
    if m == 0:
        return GWResult(0, math.gcd(A.a14, A.a24), H3_ZERO, "closed")
    n = m * A.a14 // A.a13 if A.a13 else m * A.a24 // A.a23
    g = math.gcd(m, n)
    num, den = (m * m + n * n) * sigma(2, g), g ** 3
    gw = H3Class(Rational(num * A.a13, den), Rational(num * A.a23, den), 0)
    return GWResult(m, n, gw, "closed")


def gw_enumerated(A: HomologyClass) -> GWResult:
    """Invariant as the weighted sum of evaluation classes over components.

    Moves A to diagonal shape [m, m, n, n] by the matrix M of
    `normalize_class`.  Every component carries the evaluation class
    sgn(m) (m^2 + n^2) / g (E134 + E234) of `component_eval_class`,
    g = gcd(m, n), and the weights 1 / |Aut| add up to
    `aut_weight_total(m, n)` / g, summed over sigma_0(g)^2 divisor pairs of
    g.  The weighted total, t (E134 + E234) with t the product of the two,
    is kept as an integer numerator and denominator and pushed back along
    the inverse of M, its adjugate ((d, -b), (-c, a)), to the one returned
    class ((d - b) t, (a - c) t, 0).  Refuses g with more than
    ENUMERATION_GCD_BITS bits, and more than ENUMERATION_BUDGET pairs,
    before summing any.  Must agree exactly with `gw_closed_form`.
    """
    M, norm = normalize_class(A)
    m, n = norm.a13, norm.a14
    if m == 0:
        return GWResult(m, n, H3_ZERO, "enumerated")
    g = math.gcd(m, n)
    if g.bit_length() > ENUMERATION_GCD_BITS:
        raise ValueError(f"gcd(m, n) has {g.bit_length()} bits, over the "
                         f"enumeration limit of {ENUMERATION_GCD_BITS}")
    pairs = sigma(0, g) ** 2
    if pairs > ENUMERATION_BUDGET:
        raise ValueError(f"{pairs} divisor pairs exceed the enumeration "
                         f"budget of {ENUMERATION_BUDGET}")
    coeff = component_eval_class(m, n).e134
    num = coeff.numerator * aut_weight_total(m, n)
    den = coeff.denominator * g
    (a, b), (c, d) = M
    gw = H3Class(Rational((d - b) * num, den), Rational((a - c) * num, den),
                 0)
    return GWResult(m, n, gw, "enumerated")

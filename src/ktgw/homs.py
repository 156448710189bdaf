"""Lie algebra homomorphisms R^2 -> n as derivative matrices.

A homomorphism h is recorded by its two columns of partial derivatives
(d/dp h, d/dq h), each a Lie algebra element.  The homomorphism descends to a
closed torus in the quotient manifold when the first three rows are integers
and the fourth row closes up to the half-integer correction coming from the
exponential map; commutativity of the source forces the top 2x2 block to be
singular.

The torus's degree-two homology class is read off from the 2x2 minors of the
derivative matrix.  Right multiplication by SL(2,Z) reparametrises the torus
without moving the class, and every orbit with nonzero first invariant has a
unique fully reduced representative

    dp h1 = dp h2 = 0,  dp h3 > 0,  0 <= dq h3 < dp h3.

The moduli component labels, and the one fully reduced homomorphism of
each, live in `gwcount`.  `fully_reduce`, which reduces any homomorphism of
an orbit, lives in `tests/oracles.py` as the reference for those.
`normalize_class` moves a class to diagonal shape with one SL(2,Z) matrix
from extended Euclid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .nilalg import HomologyClass, LieAlgElem, Sl2zMatrix, h2_pushforward

__all__ = [
    "HomDerivs",
    "Sl2zMatrix",
    "validate",
    "homology_class",
    "plucker_holds",
    "normalize_class",
]

IDENTITY_2X2: Sl2zMatrix = ((1, 0), (0, 1))


@dataclass(frozen=True)
class HomDerivs:
    """Derivative matrix of a homomorphism: columns dp = d/dp h, dq = d/dq h."""

    dp: LieAlgElem
    dq: LieAlgElem

    def is_reduced(self) -> bool:
        return self.dp.c1 == 0 and self.dp.c2 == 0


def _is_int(v: Fraction) -> bool:
    return v.denominator == 1


def validate(h: HomDerivs) -> bool:
    """True iff h is a homomorphism whose exponential closes up in the lattice.

    Checks the commutativity constraint dp_h1 dq_h2 = dq_h1 dp_h2 and the
    integrality of dp h_i, dq h_i for i = 1, 2, 3 together with
    dp h4 + dp h1 dp h2 / 2 and dq h4 + dq h1 dq h2 / 2.
    """
    dp, dq = h.dp, h.dq
    for col in (dp, dq):
        if not (_is_int(col.c1) and _is_int(col.c2) and _is_int(col.c3)):
            return False
        # With c1 c2 an integer, c4 + c1 c2 / 2 is one exactly when c4 has
        # denominator 1 for even c1 c2 and 2 for odd.
        if col.c4.denominator != 1 + col.c1.numerator * col.c2.numerator % 2:
            return False
    return (dp.c1.numerator * dq.c2.numerator
            == dq.c1.numerator * dp.c2.numerator)


def homology_class(h: HomDerivs) -> HomologyClass:
    """Degree-two class of the torus: A_ij = dp h_i dq h_j - dq h_i dp h_j."""
    if not validate(h):
        raise ValueError("not a lattice-compatible homomorphism")
    dp, dq = h.dp, h.dq
    a13 = dp.c1 * dq.c3 - dq.c1 * dp.c3
    a23 = dp.c2 * dq.c3 - dq.c2 * dp.c3
    a14 = dp.c1 * dq.c4 - dq.c1 * dp.c4
    a24 = dp.c2 * dq.c4 - dq.c2 * dp.c4
    return HomologyClass(a13, a23, a14, a24)


def plucker_holds(A: HomologyClass) -> bool:
    """Necessary condition a13 a24 = a14 a23 for A to carry a torus."""
    return A.a13 * A.a24 == A.a14 * A.a23


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with a s + b t = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def normalize_class(A: HomologyClass) -> Tuple[Sl2zMatrix, HomologyClass]:
    """Move a torus-representable class to the diagonal shape [m, m, n, n].

    Returns (M, A') with A' = h2_pushforward(M, A), A'13 = A'23 =
    gcd(A13, A23) >= 0 and A'14 = A'24.  Let (u, v) = (A13, A23), or
    (A14, A24) when that pair is zero, and u s + v t = g = gcd(u, v) by
    extended Euclid.  Then M = ((s, t), (s - v/g, t + u/g)) has determinant 1
    and sends (u, v) to (g, g), and M is the identity when g = 0.  Its
    entries are at most 2 max(|u|, |v|) / g in absolute value.  The minor
    identity a13 a24 = a14 a23 makes the other pair proportional to (u, v),
    so M moves it to the diagonal too; classes violating it are rejected.
    """
    if not plucker_holds(A):
        raise ValueError("class not representable by tori (Plücker)")
    u, v = (A.a13, A.a23) if (A.a13, A.a23) != (0, 0) else (A.a14, A.a24)
    g, s, t = _xgcd(u, v)
    M = ((s, t), (s - v // g, t + u // g)) if g else IDENTITY_2X2
    out = h2_pushforward(M, A)
    if out.a13 != out.a23 or out.a14 != out.a24:
        raise AssertionError(f"normalization failed: {A} -> {out}")
    return M, out

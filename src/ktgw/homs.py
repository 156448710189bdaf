"""Lattice homomorphisms Z^2 -> Gamma as two columns of eight checked integers.

A torus comes from a Lie algebra homomorphism h: R^2 -> n with columns of
partial derivatives (d/dp h, d/dq h).  It closes up in the quotient
manifold when exp of each column lies in the lattice and the columns
commute, that is when h restricts to a homomorphism Z^2 -> Gamma.  So each
column is stored as the coordinates (y, x, log t, z) of its exp, four
integers: the closed column (h1, h2, h3, h4 + h1 h2 / 2).  The `HomDerivs`
constructor is the one lattice check, and `HomDerivs.lie` the one place
that undoes the half-integer closure.  Commutativity of the source forces
the top 2x2 block to be singular.

The torus's degree-two homology class is read off from the 2x2 minors of
the Lie derivative matrix.  Right multiplication by SL(2,Z) reparametrises
the torus without moving the class, and every orbit with nonzero first
invariant has a unique fully reduced representative

    dp h1 = dp h2 = 0,  dp h3 > 0,  0 <= dq h3 < dp h3.

The moduli component labels, and the one fully reduced homomorphism of
each, live in `gwcount`.  `fully_reduce`, which reduces any homomorphism of
an orbit, lives in `tests/oracles.py` as the reference for those.
`normalize_class` moves a class to diagonal shape with one SL(2,Z) matrix
from extended Euclid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .nilalg import HomologyClass, Sl2zMatrix, h2_pushforward

__all__ = [
    "HomDerivs",
    "homology_class",
    "plucker_holds",
    "normalize_class",
]

IDENTITY_2X2: Sl2zMatrix = ((1, 0), (0, 1))


# (h1, h2, h3, h4 + h1 h2 / 2) of a column, and its Lie coordinates.
Column = Tuple[int, int, int, int]
LieColumn = Tuple[int, int, int, Fraction]


@dataclass(frozen=True)
class HomDerivs:
    """Lattice homomorphism by its closed columns dp = d/dp h, dq = d/dq h.

    Each column is a tuple of four ints (h1, h2, h3, h4 + h1 h2 / 2), and
    the columns commute: dp h1 dq h2 = dq h1 dp h2.  Anything else raises
    ValueError, so every HomDerivs is lattice-compatible.
    """

    dp: Column
    dq: Column

    def __post_init__(self) -> None:
        dp, dq = self.dp, self.dq
        if not (all(type(col) is tuple and len(col) == 4
                    and all(type(v) is int for v in col) for col in (dp, dq))
                and dp[0] * dq[1] == dq[0] * dp[1]):
            raise ValueError("not a lattice-compatible homomorphism")

    def is_reduced(self) -> bool:
        return self.dp[0] == 0 and self.dp[1] == 0

    @functools.cached_property
    def lie(self) -> Tuple[LieColumn, LieColumn]:
        """Lie coordinates (h1, h2, h3, z - h1 h2 / 2) of dp and dq, cached:
        the fields are frozen, and dataclasses.replace builds a new record."""
        return tuple((h1, h2, h3, Fraction(2 * z - h1 * h2, 2))
                     for h1, h2, h3, z in (self.dp, self.dq))


def homology_class(h: HomDerivs) -> HomologyClass:
    """Degree-two class of the torus: A_ij = dp h_i dq h_j - dq h_i dp h_j."""
    (p1, p2, p3, p4), (q1, q2, q3, q4) = h.lie
    return HomologyClass(p1 * q3 - q1 * p3, p2 * q3 - q2 * p3,
                         p1 * q4 - q1 * p4, p2 * q4 - q2 * p4)


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

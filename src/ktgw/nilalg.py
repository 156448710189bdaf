"""Exact homology value types of the Kodaira-Thurston manifold.

The group N consists of real matrices

    [1 x z 0]
    [0 1 y 0]
    [0 0 1 0]      with t > 0,
    [0 0 0 t]

and the lattice Gamma is the subgroup with integer entries; the compact
quotient of N by Gamma is the Kodaira-Thurston manifold.  Lie algebra
coordinates are taken in the basis

    n1 = d/dy,   n2 = d/dx,   n3 = d/dt,   n4 = d/dz.

The group is two-step nilpotent: the only nonzero bracket points along n4,
and exp(X)exp(Y) = exp(X + Y + [X,Y]/2).  No Lie algebra or group element
is stored: a homomorphism is two lattice columns in `homs`, and the torus
map is written once, as its logarithm, in `geometry`.

The module hosts the two homology coefficient vectors that the lattice
automorphisms act on: degree-two classes as integer 4-vectors in the basis
E13, E23, E14, E24, and degree-three classes as rational coefficients of
E134, E234, E124.

A lattice automorphism acts on both coefficient vectors through one matrix
((a, b), (c, d)) in SL(2, Z), an `Sl2zMatrix`, which moves the column pairs
(a13, a23) and (a14, a24) and the pair (e134, e234) as column vectors.  The
matrix is written in the basis (n1, n2) = (d/dy, d/dx) of those pairs, so an
automorphism that moves the (x, y) plane by M acts here by J M J, with J the
swap ((0, 1), (1, 0)).  `sl2z_entries` is the one check that such a matrix
is well formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

Rat = Union[int, Fraction]

__all__ = [
    "HomologyClass",
    "H3Class",
    "H3_ZERO",
    "Sl2zMatrix",
    "sl2z_entries",
    "h2_pushforward",
    "h3_pushforward",
]


def _frac(value: Rat) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Homology coefficient vectors
# ---------------------------------------------------------------------------

# A lattice automorphism on homology: the matrix ((a, b), (c, d)).
Sl2zMatrix = Tuple[Tuple[int, int], Tuple[int, int]]


def sl2z_entries(M: Sl2zMatrix) -> Tuple[int, int, int, int]:
    """Entries (a, b, c, d) of M = ((a, b), (c, d)), checked to lie in SL(2, Z).

    Raises ValueError unless M is a pair of pairs of ints with a d - b c = 1.
    """
    try:
        (a, b), (c, d) = M
    except (TypeError, ValueError):
        raise ValueError(f"expected a 2x2 matrix, got {M!r}") from None
    if not all(type(e) is int for e in (a, b, c, d)):
        raise ValueError(f"matrix entries must be ints, got {M!r}")
    if a * d - b * c != 1:
        raise ValueError(f"matrix must have determinant 1, got {M!r}")
    return a, b, c, d


def _int(value) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


@dataclass(frozen=True)
class HomologyClass:
    """Degree-two class a13*E13 + a23*E23 + a14*E14 + a24*E24."""

    a13: int
    a23: int
    a14: int
    a24: int

    def __post_init__(self) -> None:
        for name in ("a13", "a23", "a14", "a24"):
            object.__setattr__(self, name, _int(getattr(self, name)))

    def coords(self) -> Tuple[int, int, int, int]:
        return (self.a13, self.a23, self.a14, self.a24)


@dataclass(frozen=True)
class H3Class:
    """Degree-three class with coefficients along E134, E234, E124."""

    e134: Fraction
    e234: Fraction
    e124: Fraction

    def __post_init__(self) -> None:
        for name in ("e134", "e234", "e124"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def coords(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.e134, self.e234, self.e124)

    def scale(self, r: Rat) -> "H3Class":
        r = _frac(r)
        return H3Class(r * self.e134, r * self.e234, r * self.e124)


H3_ZERO = H3Class(0, 0, 0)


def h2_pushforward(M: Sl2zMatrix, A: HomologyClass) -> HomologyClass:
    """Push a degree-two class along a lattice automorphism.

    M acts simultaneously on the column pairs (a13, a23) and (a14, a24).
    """
    a, b, c, d = sl2z_entries(M)
    return HomologyClass(a * A.a13 + b * A.a23, c * A.a13 + d * A.a23,
                         a * A.a14 + b * A.a24, c * A.a14 + d * A.a24)


def h3_pushforward(M: Sl2zMatrix, C: H3Class) -> H3Class:
    """Push a degree-three class with no E124 part along a lattice automorphism."""
    if C.e124 != 0:
        raise ValueError("pushforward is only defined for classes with zero "
                         "E124 component")
    a, b, c, d = sl2z_entries(M)
    return H3Class(a * C.e134 + b * C.e234, c * C.e134 + d * C.e234, 0)

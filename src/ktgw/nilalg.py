"""Exact arithmetic in the nilpotent Lie group behind the Kodaira-Thurston manifold.

The group N consists of real matrices

    [1 x z 0]
    [0 1 y 0]
    [0 0 1 0]      with t > 0,
    [0 0 0 t]

and the lattice Gamma is the subgroup with integer entries; the compact
quotient of N by Gamma is the Kodaira-Thurston manifold.  Group elements are
stored in coordinates (x, y, z, log t) and Lie algebra elements in the basis

    n1 = d/dy,   n2 = d/dx,   n3 = d/dt,   n4 = d/dz,

always with rational coordinates, so lattice membership and all algebraic
identities are decided exactly.  The group is two-step nilpotent: the only
nonzero bracket points along n4, and exp(X)exp(Y) = exp(X + Y + [X,Y]/2).

The module also hosts the two homology coefficient vectors that the lattice
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
    "LieAlgElem",
    "GroupElem",
    "HomologyClass",
    "H3Class",
    "H3_ZERO",
    "N1",
    "N2",
    "N3",
    "N4",
    "ZERO",
    "IDENTITY",
    "Sl2zMatrix",
    "bracket",
    "group_mul",
    "group_inv",
    "exp",
    "log",
    "bch_mul",
    "in_lattice",
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


@dataclass(frozen=True)
class LieAlgElem:
    """Lie algebra element c1*n1 + c2*n2 + c3*n3 + c4*n4."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def coords(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c1, self.c2, self.c3, self.c4)

    def is_zero(self) -> bool:
        return not any(self.coords())

    def __add__(self, other: "LieAlgElem") -> "LieAlgElem":
        return LieAlgElem(self.c1 + other.c1, self.c2 + other.c2,
                          self.c3 + other.c3, self.c4 + other.c4)

    def __sub__(self, other: "LieAlgElem") -> "LieAlgElem":
        return LieAlgElem(self.c1 - other.c1, self.c2 - other.c2,
                          self.c3 - other.c3, self.c4 - other.c4)

    def __neg__(self) -> "LieAlgElem":
        return LieAlgElem(-self.c1, -self.c2, -self.c3, -self.c4)

    def scale(self, r: Rat) -> "LieAlgElem":
        r = _frac(r)
        return LieAlgElem(r * self.c1, r * self.c2, r * self.c3, r * self.c4)

    def __rmul__(self, r: Rat) -> "LieAlgElem":
        return self.scale(r)


ZERO = LieAlgElem(0, 0, 0, 0)
N1 = LieAlgElem(1, 0, 0, 0)
N2 = LieAlgElem(0, 1, 0, 0)
N3 = LieAlgElem(0, 0, 1, 0)
N4 = LieAlgElem(0, 0, 0, 1)


@dataclass(frozen=True)
class GroupElem:
    """Group element with matrix entries x, y, z and logarithmic t-coordinate."""

    x: Fraction
    y: Fraction
    z: Fraction
    logt: Fraction

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "logt"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def coords(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z, self.logt)


IDENTITY = GroupElem(0, 0, 0, 0)


def bracket(X: LieAlgElem, Y: LieAlgElem) -> LieAlgElem:
    """Lie bracket [X, Y]; lands in the n4 direction."""
    return LieAlgElem(0, 0, 0, X.c2 * Y.c1 - Y.c2 * X.c1)


def group_mul(a: GroupElem, b: GroupElem) -> GroupElem:
    """Product in N: (x,y,z,s)(x',y',z',s') = (x+x', y+y', z+z'+x y', s+s')."""
    return GroupElem(a.x + b.x, a.y + b.y, a.z + b.z + a.x * b.y,
                     a.logt + b.logt)


def group_inv(a: GroupElem) -> GroupElem:
    return GroupElem(-a.x, -a.y, -a.z + a.x * a.y, -a.logt)


def exp(X: LieAlgElem) -> GroupElem:
    """Exponential map; the (1,3) matrix entry picks up the x*y/2 correction."""
    return GroupElem(X.c2, X.c1, X.c4 + X.c1 * X.c2 / 2, X.c3)


def log(g: GroupElem) -> LieAlgElem:
    """Inverse of exp, exact on rational coordinates."""
    return LieAlgElem(g.y, g.x, g.logt, g.z - g.x * g.y / 2)


def bch_mul(X: LieAlgElem, Y: LieAlgElem) -> LieAlgElem:
    """X + Y + [X,Y]/2, the full Baker-Campbell-Hausdorff series here."""
    return X + Y + bracket(X, Y).scale(Fraction(1, 2))


def in_lattice(g: GroupElem) -> bool:
    """True iff g lies in Gamma, i.e. x, y, z, log t are all integers."""
    return all(v.denominator == 1 for v in g.coords())


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

    def is_zero(self) -> bool:
        return not any(self.coords())


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

    def is_zero(self) -> bool:
        return not any(self.coords())

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.coords())

    def __add__(self, other: "H3Class") -> "H3Class":
        return H3Class(self.e134 + other.e134, self.e234 + other.e234,
                       self.e124 + other.e124)

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

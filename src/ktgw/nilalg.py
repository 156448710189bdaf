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
E13, E23, E14, E24, and degree-three classes as `Rational` coefficients of
E134, E234, E124, a zero one being the one shared Rational(0).

A lattice automorphism acts on both coefficient vectors through one matrix
((a, b), (c, d)) in SL(2, Z), an `Sl2zMatrix`, which moves the column pairs
(a13, a23) and (a14, a24) and the pair (e134, e234) as column vectors.  The
matrix is written in the basis (n1, n2) = (d/dy, d/dx) of those pairs, so an
automorphism that moves the (x, y) plane by M acts here by J M J, with J the
swap ((0, 1), (1, 0)).  `sl2z_entries` is the one check that such a matrix
is well formed.  `h2_pushforward` moves a degree-two class.  The one
degree-three class the library moves, `gwcount.gw_enumerated`'s weighted
total, is moved in integers inside that function, and its class-by-class
reference `h3_pushforward` lives in `tests/oracles.py`.

`Record` is the immutable value base of the package's records, here and in
`homs` and `gwcount`.  `Rational` holds each exact rational the package
returns, which it only reduces, compares and prints.
"""

from __future__ import annotations

import math

__all__ = [
    "Record",
    "Rational",
    "HomologyClass",
    "H3Class",
    "H3_ZERO",
    "Sl2zMatrix",
    "sl2z_entries",
    "h2_pushforward",
]


class Record:
    """Immutable value record over the attribute names in `fields`.

    A subclass's __init__ checks and coerces its arguments, then stores
    them with self.__dict__.update.  Equality and hashing are by the field
    values, and equality also by exact type, so no record equals a tuple or
    a record of another type.  The repr is Name(field=value, ...).
    """

    fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.fields))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.fields, self._values())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Rational(Record):
    """numerator / denominator in lowest terms, denominator > 0.  Equal to,
    and hashed as, an int of its value; printed as by fractions.Fraction."""

    fields = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1) -> None:
        if not denominator:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = math.gcd(numerator, denominator) * (1 if denominator > 0 else -1)
        self.__dict__.update(numerator=numerator // g,
                             denominator=denominator // g)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.denominator == 1 and self.numerator == other
        if type(other) is not type(self):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        return hash(self.numerator) ^ hash(self.denominator - 1)

    def __str__(self) -> str:
        text = str(self.numerator)
        return text if self.denominator == 1 else f"{text}/{self.denominator}"


# The one Rational that a zero coefficient becomes.
_ZERO = Rational(0)


def _rational(value: int | Rational) -> Rational:
    if isinstance(value, Rational):
        return value
    if isinstance(value, int):
        return Rational(value) if value else _ZERO
    raise TypeError(f"expected int or Rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Homology coefficient vectors
# ---------------------------------------------------------------------------

# A lattice automorphism on homology: the matrix ((a, b), (c, d)).
Sl2zMatrix = tuple[tuple[int, int], tuple[int, int]]


def sl2z_entries(M: Sl2zMatrix) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of M = ((a, b), (c, d)), checked to lie in SL(2, Z).

    Raises ValueError unless M is a pair of pairs of ints with a d - b c = 1.
    """
    try:
        (a, b), (c, d) = M
    except (TypeError, ValueError):
        raise ValueError(f"expected a 2x2 matrix, got {M!r}") from None
    if not type(a) is type(b) is type(c) is type(d) is int:
        raise ValueError(f"matrix entries must be ints, got {M!r}")
    if a * d - b * c != 1:
        raise ValueError(f"matrix must have determinant 1, got {M!r}")
    return a, b, c, d


def _int(value) -> int:
    if isinstance(value, int):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


class HomologyClass(Record):
    """Degree-two class a13*E13 + a23*E23 + a14*E14 + a24*E24."""

    fields = ("a13", "a23", "a14", "a24")

    def __init__(self, a13: int, a23: int, a14: int, a24: int) -> None:
        self.__dict__.update(a13=_int(a13), a23=_int(a23), a14=_int(a14),
                             a24=_int(a24))

    def coords(self) -> tuple[int, int, int, int]:
        return (self.a13, self.a23, self.a14, self.a24)


class H3Class(Record):
    """Degree-three class with coefficients along E134, E234, E124."""

    fields = ("e134", "e234", "e124")

    def __init__(self, e134: int | Rational, e234: int | Rational,
                 e124: int | Rational) -> None:
        self.__dict__.update(e134=_rational(e134), e234=_rational(e234),
                             e124=_rational(e124))

    def coords(self) -> tuple[Rational, Rational, Rational]:
        return (self.e134, self.e234, self.e124)


H3_ZERO = H3Class(0, 0, 0)


def h2_pushforward(M: Sl2zMatrix, A: HomologyClass) -> HomologyClass:
    """Push a degree-two class along a lattice automorphism.

    M acts simultaneously on the column pairs (a13, a23) and (a14, a24).
    """
    a, b, c, d = sl2z_entries(M)
    return HomologyClass(a * A.a13 + b * A.a23, c * A.a13 + d * A.a23,
                         a * A.a14 + b * A.a24, c * A.a14 + d * A.a24)

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

Lattice automorphisms are written as words in the generators s1, s2 and
their inverses, applied leftmost letter first.  A letter is a bare token or a
run (token, e) with an int e >= 1, so a shear by 10^9 is one letter.  Every
public word function reads letters through one validating normalizer and
acts by each run's closed form, so its cost is linear in the number of
letters, not in the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple, Union

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
    "S1",
    "S2",
    "S1_INV",
    "S2_INV",
    "GENERATORS",
    "Letter",
    "AutWord",
    "bracket",
    "group_mul",
    "group_inv",
    "exp",
    "log",
    "bch_mul",
    "in_lattice",
    "aut_apply",
    "invert_word",
    "word_matrix",
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
# Lattice automorphisms
#
# Two automorphisms of Gamma (extended to N) generate an SL(2,Z) worth of
# symmetries covering the standard action on the (x, y) plane:
#
#   phi1: (x, y, z, t) -> (-y, x, z - x y, t)        covers s1 = [[0,-1],[1,0]]
#   phi2: (x, y, z, t) -> (x + y, y, z + y(y+1)/2, t) covers s2 = [[1,1],[0,1]]
# ---------------------------------------------------------------------------

S1 = "s1"
S2 = "s2"
S1_INV = "s1_inv"
S2_INV = "s2_inv"
GENERATORS = (S1, S2, S1_INV, S2_INV)

# A word letter is a generator token or a run (token, e) with an int e >= 1;
# a bare token means (token, 1).
Letter = Union[str, Tuple[str, int]]
AutWord = Sequence[Letter]

_INVERSE_TOKEN = {S1: S1_INV, S1_INV: S1, S2: S2_INV, S2_INV: S2}

# Powers of the quarter turn s1, indexed by the exponent mod 4.
_TURNS = (
    ((1, 0), (0, 1)),
    ((0, -1), (1, 0)),
    ((-1, 0), (0, -1)),
    ((0, 1), (-1, 0)),
)


def _runs(word: AutWord) -> Iterator[Tuple[str, int]]:
    """Each letter of the word as a validated (token, e) run, leftmost first."""
    for letter in word:
        if isinstance(letter, str):
            token, e = letter, 1
        elif isinstance(letter, tuple) and len(letter) == 2:
            token, e = letter
        else:
            raise ValueError(f"malformed word letter {letter!r}")
        if not isinstance(token, str) or token not in _INVERSE_TOKEN:
            raise ValueError(f"unknown automorphism generator {token!r}")
        if type(e) is not int or e < 1:
            raise ValueError(f"run exponent must be an int >= 1, got {e!r}")
        yield token, e


def _run_matrix(token: str, e: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Closed form of token**e acting on the (x, y) plane."""
    if token == S2:
        return ((1, e), (0, 1))
    if token == S2_INV:
        return ((1, -e), (0, 1))
    return _TURNS[(e if token == S1 else -e) % 4]


def _run_apply(token: str, e: int, g: GroupElem) -> GroupElem:
    """Closed form of phi**e on a group element; phi1 has order 4 and phi2**e
    shifts x by e y and z by e y (y + 1) / 2, since it leaves y fixed."""
    if token in (S2, S2_INV):
        s = e if token == S2 else -e
        return GroupElem(g.x + s * g.y, g.y, g.z + s * g.y * (g.y + 1) / 2,
                         g.logt)
    for _ in range((e if token == S1 else -e) % 4):
        g = GroupElem(-g.y, g.x, g.z - g.x * g.y, g.logt)
    return g


def aut_apply(word: AutWord, g: GroupElem) -> GroupElem:
    """Apply a word of generator automorphisms to g, leftmost letter first."""
    for token, e in _runs(word):
        g = _run_apply(token, e, g)
    return g


def invert_word(word: AutWord) -> Tuple[Letter, ...]:
    """Inverse word: letters reversed, each token inverted, exponents kept."""
    return tuple(_INVERSE_TOKEN[token] if e == 1 else (_INVERSE_TOKEN[token], e)
                 for token, e in reversed(list(_runs(word))))


def word_matrix(word: AutWord) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """2x2 matrix M with M v = (word applied leftmost-first) v."""
    m = ((1, 0), (0, 1))
    for token, e in _runs(word):
        s = _run_matrix(token, e)
        m = (
            (s[0][0] * m[0][0] + s[0][1] * m[1][0],
             s[0][0] * m[0][1] + s[0][1] * m[1][1]),
            (s[1][0] * m[0][0] + s[1][1] * m[1][0],
             s[1][0] * m[0][1] + s[1][1] * m[1][1]),
        )
    return m


# ---------------------------------------------------------------------------
# Homology coefficient vectors
# ---------------------------------------------------------------------------


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


def h2_pushforward(word: AutWord, A: HomologyClass) -> HomologyClass:
    """Push a degree-two class along a word of lattice automorphisms.

    The word acts simultaneously on the column pairs (a13, a23) and
    (a14, a24) through its 2x2 matrix.
    """
    (a, b), (c, d) = word_matrix(word)
    return HomologyClass(a * A.a13 + b * A.a23, c * A.a13 + d * A.a23,
                         a * A.a14 + b * A.a24, c * A.a14 + d * A.a24)


def h3_pushforward(word: AutWord, C: H3Class) -> H3Class:
    """Push a degree-three class with no E124 part along an automorphism word."""
    if C.e124 != 0:
        raise ValueError("pushforward is only defined for classes with zero "
                         "E124 component")
    (a, b), (c, d) = word_matrix(word)
    return H3Class(a * C.e134 + b * C.e234, c * C.e134 + d * C.e234, 0)

"""Independent oracles and random data generators shared by the test suite.

The matrix oracles work directly on the 3x3 Heisenberg block (with the
multiplicative factor carried additively as log t), so they never touch the
coordinate formulas they are checking.  The pullback oracles integrate
general polynomial forms in (lam, p, q) with `Poly`, where the library
integrates constant forms in closed form.

The library does no arithmetic on its exact rationals, `nilalg.Rational`s,
so the oracles compute with Fractions and convert at the edges through
`fraction`, `rational` and `h3`.  `homology_class_of` and `replace` are
the two constructors that only tests use.

No library command builds a Lie algebra or group element, so those layers
live here:

* `LieAlgElem` stores a Lie algebra element by its rational coordinates
  in the basis n1, n2, n3, n4, and `lie_comb` forms linear combinations
  of them.
* `GroupElem` stores a group element as (x, y, z, log t); the lattice
  condition is integrality of all four coordinates.  The matrix oracles
  `group_mul_oracle` and `exp_oracle` and the automorphism lifts are
  written on it.
* `hom_from_lie` is the one converter from Lie columns to a `HomDerivs`:
  it stores exp_oracle of each column and leaves the lattice check to the
  `HomDerivs` constructor.  `lie` undoes the half-integer closure of the
  stored columns with Fractions, the reference for `homs.homology_class`
  and the `moduli` columns, which stay in integers; `lie_columns` wraps
  its columns as `LieAlgElem`s.
* `from_rows` builds a `HomDerivs` from four Lie rows (dp h_i, dq h_i).
* `homderivs_accepts` is the `HomDerivs` lattice check written over the
  set of entry types, the reference for the constructor's unrolled chain.
* `h3_scale` and `h3_pushforward` scale a degree-three class and push it
  along a lattice automorphism, one `H3Class` per step; chained as
  `h3_pushforward(adjugate(M), h3_scale(component_eval_class(m, n),
  aut_weight_sum(m, n)))` they are the reference for
  `gwcount.gw_enumerated`, which keeps the weighted total in integers up
  to its one returned class.
* `sl2z_act` reparametrises a homomorphism by right multiplication with an
  SL(2,Z) matrix, and `fully_reduce` moves any homomorphism of an orbit with
  nonzero first invariant to its fully reduced representative; applied to
  `raw_representative`, the torus that a label (d, k, l) counts, they are
  the reference for the canonical form of each label of
  `gwcount.moduli_divisors`.
* `ModuliComponent` is one label of that walk with its homomorphism and
  |Aut|: `walk_components` flattens the walk, and `label_component` builds
  one label of a class past the moduli budget by the walk's own rule,
  after the range checks that the walk needs no longer.  They give the
  tests their components; they check nothing about them.
* `cesaro_nested` takes each gcd of the left side of Cesaro's identity on
  its own; it is the reference for `arith.cesaro_check`, which reads them
  from one `gcd_tally`.
* `aut_weight_sum_labels` sums the reciprocal automorphism orders label by
  label, one gcd per component; it is the reference for `aut_weight_sum`,
  the Fraction `arith.aut_weight_total(m, n) / gcd(m, n)`, which sums over
  pairs of divisors.  `aut_weight_sum_closed` is its closed form.
* `hnf_matrices` enumerates the Hermite forms of the index-ell sublattices
  of Z^2; their number is the reference for `arith.sublattice_counts`,
  which sieves divisor sums without building a form.
* `is_prime_all_bases` runs all 13 Miller-Rabin bases at every size
  through `strong_probable_prime`, and `factorize_trial` tries each prime
  below 1000 in turn until its square passes the cofactor; they are the
  references for `arith._is_prime`, which runs only the bases the size of
  n needs, and `arith._factorize`, which finds the small primes dividing n
  by one gcd.
* `TorusSolution` is one solved torus: h, tau, theta and c0_n2, with
  tau2 > 0 and (cos, sin) on the unit circle.  `twistor_apply` is the full
  4x4 action of its twistor structure; the library applies it only to
  vectors with no n1 or n2 part.
* `solve_torus_fractions` solves the torus geometry through `lie` and
  Fractions; it is the bitwise reference for `geometry.solve_columns` and
  the per-label function of `geometry.label_solver`, which form every
  float from integers.
* `log_coordinates` writes the torus logarithm as exact affine
  coefficients in (p, q), for the curve-point tests and the residual.
* `cr_defect_exact` gives the Cauchy-Riemann defect at any (p, q) in
  Fractions, by matrix commutators; the tests hold it to one vector over
  the unit square, which is why `label_solver` reads the residual at one
  point.  `cr_residual_affine` rounds that residual at p = q = 0 from
  `log_coordinates`, building every integer afresh, and is the bitwise
  reference for the residual of `label_solver`; `cr_residual_commutator`
  forms it from the commutator alone.
* `bent_label_terms` plants a wrong tau1 or c0_n2 in the command path, in
  place of `geometry._label_terms`, for the perturbation tests.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ktgw.arith import (
    _MR_BASES,
    _MR_LIMIT,
    _SMALL_PRIMES,
    _SPLIT_LIMIT,
    _TRIAL_LIMIT,
    aut_weight_total,
    aut_weight_total_closed,
    divisors,
)
from ktgw.gwcount import _divisor, _label, moduli_divisors
from ktgw.homs import HomDerivs, _xgcd, homology_class
from ktgw.nilalg import (
    H3Class,
    HomologyClass,
    Rational,
    Record,
    Sl2zMatrix,
    sl2z_entries,
)

Rat = int | Fraction
Mat3 = Tuple[Tuple[Fraction, ...], ...]
Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]


# ---------------------------------------------------------------------------
# Library values through Fractions
# ---------------------------------------------------------------------------


def fraction(value: object) -> Fraction:
    """value, an int, a Fraction or a library `Rational`, as a Fraction."""
    if not isinstance(value, (int, Fraction, Rational)):
        raise TypeError(f"expected int or Fraction, got "
                        f"{type(value).__name__}")
    return Fraction(value.numerator, value.denominator)


def rational(value: object) -> Rational:
    """value, as `fraction` reads it, as a library `Rational`."""
    value = fraction(value)
    return Rational(value.numerator, value.denominator)


def h3(e134: object, e234: object, e124: object) -> H3Class:
    """The `H3Class` of three coefficients that `fraction` reads."""
    return H3Class(rational(e134), rational(e234), rational(e124))


def homology_class_of(*coords: Rat) -> HomologyClass:
    """The `HomologyClass` of four ints or integral Fractions, each read as
    an int; the constructor refuses any other entry with TypeError."""
    return HomologyClass(*(v.numerator if type(v) is Fraction
                           and v.denominator == 1 else v for v in coords))


def replace(rec: Record, **changes: object) -> Record:
    """A copy of rec with the given fields changed, built by its
    constructor, so that every check of the constructor runs again."""
    return type(rec)(**{name: getattr(rec, name) for name in rec.fields}
                     | changes)


@dataclass(frozen=True)
class LieAlgElem:
    """Lie algebra element c1*n1 + c2*n2 + c3*n3 + c4*n4."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4"):
            object.__setattr__(self, name, fraction(getattr(self, name)))

    def coords(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c1, self.c2, self.c3, self.c4)


@dataclass(frozen=True)
class GroupElem:
    """Group element with matrix entries x, y, z and logarithmic t-coordinate."""

    x: Fraction
    y: Fraction
    z: Fraction
    logt: Fraction

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "logt"):
            object.__setattr__(self, name, fraction(getattr(self, name)))

    def coords(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z, self.logt)


def lie_comb(*terms: Tuple[Rat, LieAlgElem]) -> LieAlgElem:
    """The linear combination r1 X1 + r2 X2 + ... of (r, X) pairs."""
    return LieAlgElem(*(sum(r * X.coords()[i] for r, X in terms)
                        for i in range(4)))


def lie_to_mat3(X: LieAlgElem) -> Mat3:
    """Heisenberg block of a Lie algebra element: x, y, z above the diagonal."""
    zero, one = Fraction(0), Fraction(1)
    return (
        (zero, X.c2, X.c4),
        (zero, zero, X.c1),
        (zero, zero, zero),
    )


def group_to_mat3(g: GroupElem) -> Mat3:
    zero, one = Fraction(0), Fraction(1)
    return (
        (one, g.x, g.z),
        (zero, one, g.y),
        (zero, zero, one),
    )


def mat3_mul(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat3_sub(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3)
    )


def mat3_commutator(a: Mat3, b: Mat3) -> Mat3:
    return mat3_sub(mat3_mul(a, b), mat3_mul(b, a))


def mat3_exp(x: Mat3) -> Mat3:
    """exp of a strictly upper triangular 3x3 matrix: I + X + X^2/2."""
    sq = mat3_mul(x, x)
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            val = x[i][j] + sq[i][j] / 2
            if i == j:
                val += 1
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


def commutator_oracle(X: LieAlgElem, Y: LieAlgElem) -> LieAlgElem:
    m = mat3_commutator(lie_to_mat3(X), lie_to_mat3(Y))
    return LieAlgElem(m[1][2], m[0][1], 0, m[0][2])


def group_mul_oracle(a: GroupElem, b: GroupElem) -> GroupElem:
    m = mat3_mul(group_to_mat3(a), group_to_mat3(b))
    return GroupElem(m[0][1], m[1][2], m[0][2], a.logt + b.logt)


def exp_oracle(X: LieAlgElem) -> GroupElem:
    m = mat3_exp(lie_to_mat3(X))
    return GroupElem(m[0][1], m[1][2], m[0][2], X.c3)


# ---------------------------------------------------------------------------
# Lattice automorphisms as words in generators
#
# Two automorphisms of Gamma (extended to N) generate an SL(2,Z) worth of
# symmetries covering the standard action on the (x, y) plane:
#
#   phi1: (x, y, z, t) -> (-y, x, z - x y, t)        covers s1 = [[0,-1],[1,0]]
#   phi2: (x, y, z, t) -> (x + y, y, z + y(y+1)/2, t) covers s2 = [[1,1],[0,1]]
#
# s1 and s2 act on (x, y).  The library's pushforward matrices act on the
# pairs (a13, a23), whose basis is (n1, n2) = (d/dy, d/dx), so a lift that
# moves (x, y) by M pushes classes forward by h2_pushforward(J M J, .), with
# J = [[0,1],[1,0]]: phi1 sends [1, 1, 0, 0] to [1, -1, 0, 0].
#
# A word is a sequence of generator tokens, applied leftmost first.
# ---------------------------------------------------------------------------

_LIFTS = {
    "s1": lambda g: GroupElem(-g.y, g.x, g.z - g.x * g.y, g.logt),
    "s2": lambda g: GroupElem(g.x + g.y, g.y, g.z + g.y * (g.y + 1) / 2,
                              g.logt),
    "s1_inv": lambda g: GroupElem(g.y, -g.x, g.z - g.x * g.y, g.logt),
    "s2_inv": lambda g: GroupElem(g.x - g.y, g.y, g.z - g.y * (g.y + 1) / 2,
                                  g.logt),
}
_MATRICES = {
    "s1": ((0, -1), (1, 0)),
    "s2": ((1, 1), (0, 1)),
    "s1_inv": ((0, 1), (-1, 0)),
    "s2_inv": ((1, -1), (0, 1)),
}
INVERSE = {"s1": "s1_inv", "s2": "s2_inv", "s1_inv": "s1", "s2_inv": "s2"}
GENERATORS = tuple(_LIFTS)


def _token(token: str) -> str:
    if token not in _LIFTS:
        raise ValueError(f"unknown automorphism generator {token!r}")
    return token


def aut_apply(word: Sequence[str], g: GroupElem) -> GroupElem:
    """Apply a word of generator automorphisms to g, leftmost token first."""
    for token in word:
        g = _LIFTS[_token(token)](g)
    return g


def invert_word(word: Sequence[str]) -> Tuple[str, ...]:
    return tuple(INVERSE[_token(token)] for token in reversed(word))


def mat2_mul(m: Mat2, s: Mat2) -> Mat2:
    return (
        (m[0][0] * s[0][0] + m[0][1] * s[1][0],
         m[0][0] * s[0][1] + m[0][1] * s[1][1]),
        (m[1][0] * s[0][0] + m[1][1] * s[1][0],
         m[1][0] * s[0][1] + m[1][1] * s[1][1]),
    )


def word_matrix(word: Sequence[str]) -> Mat2:
    """2x2 matrix M with M v = (word applied leftmost-first) v."""
    m = ((1, 0), (0, 1))
    for token in word:
        m = mat2_mul(_MATRICES[_token(token)], m)
    return m


def adjugate(M: Mat2) -> Mat2:
    """Inverse of a determinant-one 2x2 matrix."""
    (a, b), (c, d) = M
    return ((d, -b), (-c, a))


def h3_scale(C: H3Class, r: Rat) -> H3Class:
    """The degree-three class r C, through Fractions."""
    r = fraction(r)
    return h3(*(r * fraction(v) for v in C.coords()))


def h3_pushforward(M: Sl2zMatrix, C: H3Class) -> H3Class:
    """Push a degree-three class with no E124 part along a lattice automorphism."""
    if C.e124 != 0:
        raise ValueError("pushforward is only defined for classes with zero "
                         "E124 component")
    a, b, c, d = sl2z_entries(M)
    u, v = fraction(C.e134), fraction(C.e234)
    return h3(a * u + b * v, c * u + d * v, 0)


# ---------------------------------------------------------------------------
# Reparametrisations of homomorphisms
# ---------------------------------------------------------------------------


def hom_from_lie(dp: LieAlgElem, dq: LieAlgElem) -> HomDerivs:
    """The homomorphism with Lie columns dp and dq.

    Each stored column is the coordinates (y, x, log t, z) of exp_oracle of
    the Lie column.  A coordinate that is not an integer stays a Fraction,
    so the `HomDerivs` constructor refuses it, as it refuses columns that
    do not commute.
    """
    def closed(X: LieAlgElem) -> tuple:
        g = exp_oracle(X)
        return tuple(v.numerator if v.denominator == 1 else v
                     for v in (g.y, g.x, g.logt, g.z))
    return HomDerivs(closed(dp), closed(dq))


def homderivs_accepts(dp: object, dq: object) -> bool:
    """Whether `HomDerivs(dp, dq)` is a lattice homomorphism, by the set of
    entry types: two 4-tuples of exact ints whose columns commute.  The
    reference for the constructor's unrolled chain of type tests."""
    return (type(dp) is type(dq) is tuple and len(dp) == len(dq) == 4
            and set(map(type, dp + dq)) == {int}
            and dp[0] * dq[1] == dq[0] * dp[1])


def lie(h: HomDerivs) -> Tuple[Tuple[Rat, ...], Tuple[Rat, ...]]:
    """Lie coordinates (h1, h2, h3, z - h1 h2 / 2) of the columns dp and dq
    of h, each fourth entry a Fraction."""
    return tuple((h1, h2, h3, Fraction(2 * z - h1 * h2, 2))
                 for h1, h2, h3, z in (h.dp, h.dq))


def lie_columns(h: HomDerivs) -> Tuple[LieAlgElem, LieAlgElem]:
    """The Lie columns (dp, dq) of h, from `lie`."""
    dp, dq = lie(h)
    return LieAlgElem(*dp), LieAlgElem(*dq)


def from_rows(rows) -> HomDerivs:
    """Build a homomorphism from four Lie rows (dp h_i, dq h_i)."""
    if len(rows) != 4 or any(len(r) != 2 for r in rows):
        raise ValueError("expected four rows of two entries")
    dp = LieAlgElem(rows[0][0], rows[1][0], rows[2][0], rows[3][0])
    dq = LieAlgElem(rows[0][1], rows[1][1], rows[2][1], rows[3][1])
    return hom_from_lie(dp, dq)


def sl2z_act(h: HomDerivs, phi: Sl2zMatrix) -> HomDerivs:
    """Right multiplication of the Lie derivative matrix by phi in SL(2,Z)."""
    a, b, c, d = sl2z_entries(phi)
    dp, dq = lie_columns(h)
    return hom_from_lie(lie_comb((a, dp), (c, dq)), lie_comb((b, dp), (d, dq)))


def fully_reduce(h: HomDerivs) -> Tuple[Sl2zMatrix, HomDerivs]:
    """Canonical fully reduced representative of the reparametrisation orbit.

    Requires the class of h to have equal nonzero first two coordinates.
    Returns (phi, h') with h' = sl2z_act(h, phi), dp h1 = dp h2 = 0,
    dp h3 > 0 and 0 <= dq h3 < dp h3.
    """
    A = homology_class(h)
    if A.a13 != A.a23:
        raise ValueError("orbit is not in (m, m, n, n) position")
    if A.a13 == 0:
        raise ValueError("no fully reduced form when the first invariant "
                         "vanishes; only reduced forms exist")
    phi: Sl2zMatrix = ((1, 0), (0, 1))
    cur = h
    if not cur.is_reduced():
        # Clear the top block: the Euclidean step sends (dp h1, dq h1) to
        # (0, -gcd), and the proportional second row follows along.
        a, b = cur.dp[0], cur.dq[0]
        g, s, t = _xgcd(a, b)
        step = ((-b // g, -s), (a // g, -t))
        phi = mat2_mul(phi, step)
        cur = sl2z_act(cur, step)
    if cur.dp[2] < 0:
        step = ((-1, 0), (0, -1))
        phi = mat2_mul(phi, step)
        cur = sl2z_act(cur, step)
    shift = cur.dq[2] // cur.dp[2]
    if shift != 0:
        step = ((1, -shift), (0, 1))
        phi = mat2_mul(phi, step)
        cur = sl2z_act(cur, step)
    return phi, cur


def raw_representative(m: int, n: int, d: int, k: int,
                       ell: int) -> HomDerivs:
    """The torus that the label (d, k, l) of (m, n) counts, with dq h3 = l
    and dq h4 = k - d/2, before any reduction."""
    sgn = 1 if m > 0 else -1
    return from_rows([(0, -sgn * d), (0, -sgn * d), (abs(m) // d, ell),
                      (Fraction(-n, sgn * d), Fraction(2 * k - d, 2))])


# ---------------------------------------------------------------------------
# The labels of the walk, one record each
# ---------------------------------------------------------------------------


class ModuliComponent(Record):
    """The label (d, k, ell) of a class with its homomorphism hom and
    automorphism order aut_size, as the walk gives them."""

    fields = ("d", "k", "ell", "hom", "aut_size")

    def __init__(self, d: int, k: int, ell: int, hom: HomDerivs,
                 aut_size: int) -> None:
        self.__dict__.update(d=d, k=k, ell=ell, hom=hom, aut_size=aut_size)


def walk_components(m: int, n: int) -> List[ModuliComponent]:
    """The labels of `gwcount.moduli_divisors(m, n)` as one list, in
    lexicographic (d, l, k) order, with the walk's refusals."""
    return [ModuliComponent(d, k, ell, hom, aut_size)
            for d, _, _, labels in moduli_divisors(m, n)
            for k, ell, _, _, aut_size, hom in labels]


def label_component(m: int, n: int, d: int, k: int,
                    ell: int) -> ModuliComponent:
    """The label (d, k, l) of (m, n) by the walk's rule, `gwcount._divisor`
    and `_label`, which reach classes past the moduli budget.

    Refuses m = 0 and a label outside d | gcd(m, n), 1 <= k <= d and
    1 <= l <= |m|/d, which `_label` does not check, with ValueError.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    g = math.gcd(m, n)
    if d < 1 or g % d != 0:
        raise ValueError(f"{d} does not divide gcd({m}, {n})")
    divisor = _divisor(m, n, g, d)
    span = abs(m) // d
    if not 1 <= k <= d:
        raise ValueError(f"k = {k} is outside 1..{d}")
    if not 1 <= ell <= span:
        raise ValueError(f"l = {ell} is outside 1..{span}")
    _, _, _, _, aut_size, hom = _label(divisor, k, ell)
    return ModuliComponent(d, k, ell, hom, aut_size)


# ---------------------------------------------------------------------------
# Cesaro's identity, one gcd at a time
# ---------------------------------------------------------------------------


def cesaro_nested(f, n: int) -> Tuple[int, int, bool]:
    """(lhs, rhs, lhs == rhs) of Cesaro's identity for f at n, with each
    gcd(i, d) of lhs taken on its own."""
    divs = divisors(n)
    lhs = sum(f(math.gcd(i, d)) for d in divs for i in range(1, d + 1))
    rhs = sum(f(n // d) * d for d in divs)
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# Reciprocal automorphism weights, label by label
# ---------------------------------------------------------------------------


def aut_weight_sum(m: int, n: int) -> Fraction:
    """Total reciprocal automorphism weight of the genus-one components:
    `arith.aut_weight_total(m, n)` / gcd(m, n), by Moebius pairs."""
    return Fraction(aut_weight_total(m, n), math.gcd(m, n))


def aut_weight_sum_closed(m: int, n: int) -> Fraction:
    """Closed form |m| * sigma_2(gcd(m, n)) / gcd(m, n)^2 of aut_weight_sum,
    `arith.aut_weight_total_closed(m, n)` / gcd(m, n)."""
    return Fraction(aut_weight_total_closed(m, n), math.gcd(m, n))


def aut_weight_sum_labels(m: int, n: int) -> Fraction:
    """Sum of 1 / gcd(gcd(m, n), (m k + n l) / d) over every label (d, k, l).

    Visits d | gcd(m, n), k = 1..d and l = 1..|m|/d one by one, |m|
    sigma_0(gcd(m, n)) labels with one gcd each.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    g = math.gcd(m, n)
    # Every gcd below divides g, so accumulate numerators over denominator g.
    acc = 0
    for d in divisors(g):
        md = m // d
        nd = n // d
        span = abs(m) // d
        for k in range(1, d + 1):
            val = md * k + nd
            for _ in range(span):
                acc += g // math.gcd(g, val)
                val += nd
    return Fraction(acc, g)


def hnf_matrices(ell: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Hermite-form matrices [[d, b], [0, ell/d]] with d | ell and 0 <= b < d.

    These are exactly the index-ell sublattices of Z^2 up to right
    unimodular reparametrisation.
    """
    if ell < 1:
        raise ValueError(f"sublattice index must be >= 1, got {ell}")
    for d in divisors(ell):
        q = ell // d
        for b in range(d):
            yield ((d, b), (0, q))


# ---------------------------------------------------------------------------
# Factoring with every Miller-Rabin base and every small prime
# ---------------------------------------------------------------------------


def strong_probable_prime(n: int, bases: Sequence[int]) -> bool:
    """True when no base in bases is a Miller-Rabin witness for odd n."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_all_bases(n: int) -> bool:
    """Deterministic Miller-Rabin with all 13 bases at every size.

    A witness proves n composite at any size; a prime verdict is proven only
    below _MR_LIMIT, so above it a would-be prime is refused.
    """
    if not strong_probable_prime(n, _MR_BASES):
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot prove {n} prime: it exceeds the "
                         f"deterministic Miller-Rabin bound {_MR_LIMIT}")
    return True


def factorize_trial(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs.

    Tries each prime below _TRIAL_LIMIT in turn until its square passes what
    is left of n, then splits the cofactor as `arith._factorize` does, with
    `is_prime_all_bases` and the same refusals.
    """
    fact: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            fact[p] = fact.get(p, 0) + 1
            n //= p
    # From here on n has no prime factor below d.
    d = _TRIAL_LIMIT + 1
    while n > 1:
        if n < d * d or is_prime_all_bases(n):
            fact[n] = fact.get(n, 0) + 1
            break
        for d in range(d, _SPLIT_LIMIT + 1, 2):
            if n % d == 0:
                break
        else:
            raise ValueError(f"cannot split {n}: it is composite with no "
                             f"prime factor up to {_SPLIT_LIMIT}")
        while n % d == 0:
            fact[d] = fact.get(d, 0) + 1
            n //= d
    return tuple(fact.items())


# ---------------------------------------------------------------------------
# Exact polynomials in (lam, p, q) and their differential forms
# ---------------------------------------------------------------------------

Monomial = Tuple[int, int, int]


class Poly:
    """Polynomial in the variables (lam, p, q) with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None) -> None:
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(0, 0, 0): Fraction(value)})

    @classmethod
    def var(cls, index: int) -> "Poly":
        mono = [0, 0, 0]
        mono[index] = 1
        return cls({tuple(mono): Fraction(1)})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) - coeff
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({mono: -coeff for mono, coeff in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return Poly(terms)

    def scale(self, value) -> "Poly":
        value = Fraction(value)
        return Poly({m: value * c for m, c in self.terms.items()})

    def diff(self, index: int) -> "Poly":
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                lowered = list(mono)
                lowered[index] = e - 1
                terms[tuple(lowered)] = coeff * e
        return Poly(terms)

    def integrate_box(self, lam_hi: Fraction) -> Fraction:
        """Integral over [0, lam_hi] x [0, 1] x [0, 1]."""
        total = Fraction(0)
        for (i, j, k), coeff in self.terms.items():
            total += coeff * lam_hi ** (i + 1) / ((i + 1) * (j + 1) * (k + 1))
        return total

    def eval(self, lam, p, q):
        total = 0
        for (i, j, k), coeff in self.terms.items():
            total += coeff * lam ** i * p ** j * q ** k
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"


OneForm = Tuple[Poly, Poly, Poly]


def differential(f: Poly) -> OneForm:
    return (f.diff(0), f.diff(1), f.diff(2))


def form_sub(a: OneForm, b: OneForm) -> OneForm:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def form_scale(f: Poly, a: OneForm) -> OneForm:
    return (f * a[0], f * a[1], f * a[2])


def wedge3(a: OneForm, b: OneForm, c: OneForm) -> Poly:
    """Coefficient of d lam ^ dp ^ dq in a ^ b ^ c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def random_fraction(rng: random.Random, span: int = 40, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def in_lowest_terms(v: object) -> bool:
    """Whether v is a library `Rational` with a positive denominator coprime
    to its numerator, as its constructor leaves every value."""
    return (type(v) is Rational and v.denominator > 0
            and math.gcd(v.numerator, v.denominator) == 1)


def random_lie(rng: random.Random, span: int = 40, den: int = 8) -> LieAlgElem:
    return LieAlgElem(*(random_fraction(rng, span, den) for _ in range(4)))


def random_group(rng: random.Random, span: int = 40, den: int = 8) -> GroupElem:
    return GroupElem(*(random_fraction(rng, span, den) for _ in range(4)))


def random_lattice_group(rng: random.Random, span: int = 12) -> GroupElem:
    return GroupElem(*(rng.randint(-span, span) for _ in range(4)))


def random_word(rng: random.Random, max_len: int = 6) -> Tuple[str, ...]:
    return tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, max_len)))


def random_sl2z(rng: random.Random, steps: int = 5) -> Mat2:
    gens = [((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1))]
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, steps)):
        m = mat2_mul(m, rng.choice(gens))
    return m


def random_plucker_class(rng: random.Random, span: int = 6) -> HomologyClass:
    """Random class of the representable shape [m a, m b, n a, n b]."""
    while True:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        if math.gcd(a, b) == 1:
            break
    m = rng.randint(-span, span)
    n = rng.randint(-span, span)
    return HomologyClass(m * a, m * b, n * a, n * b)


# ---------------------------------------------------------------------------
# Smith form oracle
# ---------------------------------------------------------------------------


def smith_diagonal(rows: Sequence[Sequence[int]]) -> List[int]:
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns the absolute diagonal entries (no divisibility normalisation;
    products of leading entries still equal the determinantal divisors'
    products for full-rank corners).
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    t = 0
    while t < min(nrows, ncols):
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (pivot is None
                                     or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            changed = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(ncols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        changed = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(nrows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(nrows):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        changed = True
            if not changed:
                break
        t += 1
    return [abs(m[i][i]) for i in range(min(nrows, ncols))]


def smith_matrix_rows(h: HomDerivs) -> List[List[int]]:
    """The 3x2 integer matrix whose minor gcd is the automorphism order."""
    (_, _, c1, d1), (a2, b2, c2, d2) = h.dp, h.dq
    g2 = math.gcd(a2, b2)
    abar, bbar = a2 // g2, b2 // g2
    return [
        [0, g2],
        [c1, c2],
        [d1, d2 - (g2 * (g2 - 1) // 2) * abar * bbar],
    ]


# ---------------------------------------------------------------------------
# Cauchy-Riemann residual
# ---------------------------------------------------------------------------


class TorusSolution(Record):
    """A reduced homomorphism together with its forced geometric data.

    tau = tau1 + i tau2 is the modulus, in the upper half-plane.  The
    twistor structure is the rotation [[cos, -sin], [sin, cos]], which
    carries the central directions (n3, n4) to (n1, n2); the complementary
    block is forced to be minus its inverse, which makes the induced 4x4 map
    square to -Id.  The translation constant is c0_n2 n2.
    """

    fields = ("h", "tau1", "tau2", "cos_theta", "sin_theta", "c0_n2")

    def __init__(self, h: HomDerivs, tau1: float, tau2: float,
                 cos_theta: float, sin_theta: float, c0_n2: Rational) -> None:
        if not tau2 > 0:
            raise ValueError("tau2 must be positive")
        if abs(cos_theta ** 2 + sin_theta ** 2 - 1.0) > 1e-12:
            raise ValueError("(cos, sin) must lie on the unit circle")
        self.__dict__.update(h=h, tau1=tau1, tau2=tau2, cos_theta=cos_theta,
                             sin_theta=sin_theta, c0_n2=c0_n2)

    def theta(self) -> float:
        return math.atan2(self.sin_theta, self.cos_theta)


def solve_torus_fractions(h: HomDerivs) -> TorusSolution:
    """The torus geometry of h through Fractions, the bitwise reference for
    `geometry.solve_columns` and the per-label function of
    `geometry.label_solver`.

    tau2 is the norm ratio |(dq h1, dq h2)| / |(dp h3, dp h4)|, tau1 is
    float(Fraction(dq h3, dp h3)), the rotation is the unique one carrying
    (dp h3, dp h4) to (dq h1, dq h2) / tau2, and c0_n2 is
    (dq h4 - tau1 dp h4) / dq h1 in exact Lie coordinates.
    """
    if not h.is_reduced():
        raise ValueError("homomorphism must be reduced (dp h1 = dp h2 = 0)")
    if h.dp[2] == 0:
        raise ValueError("dp h3 = 0: modulus is undetermined and the "
                         "component is obstructed")
    if h.dq[0] == 0:
        raise ValueError("dq h1 must be nonzero")
    # h is reduced, so dp is its own Lie column.
    _, _, c, dd = h.dp
    _, (a, b, dq3, dq4) = lie(h)
    try:
        norm_a = math.sqrt(float(a * a + b * b))
        norm_z = math.sqrt(float(c * c + dd * dd))
    except OverflowError:
        raise ValueError("a column of the homomorphism is too long for "
                         "a floating tau and theta") from None
    tau2 = norm_a / norm_z
    tau1_exact = Fraction(dq3, c)
    den = norm_a * norm_z
    cos_theta = float(c * a + dd * b) / den
    sin_theta = float(c * b - dd * a) / den
    return TorusSolution(h, float(tau1_exact), tau2, cos_theta, sin_theta,
                         rational((dq4 - tau1_exact * dd) / a))


Affine = Tuple[Rat, Rat, Rat]


def log_coordinates(h: HomDerivs,
                    c0_n2: object) -> Tuple[Affine, Affine, Affine, Affine]:
    """log(torus) = h + C + [h, C]/2 as exact (const, p, q) coefficients.

    C = c0_n2 n2, with c0_n2 read by `fraction`.  The map is affine in
    (p, q).  h is reduced (dp h1 = dp h2 = 0), so w1 and w2 have no p term,
    and [h, C] is -q dq h1 c0_n2 n4.
    """
    (_, _, p3, p4), (a, b, q3, q4) = lie(h)
    c0_n2 = fraction(c0_n2)
    return (
        (0, 0, a),
        (c0_n2, 0, b),
        (0, p3, q3),
        (0, p4, q4 - a * c0_n2 / 2),
    )


def solution_lie(s: TorusSolution) -> Tuple[LieAlgElem, ...]:
    """Lie columns dp, dq of a solved torus and its translation constant C."""
    dp, dq = lie_columns(s.h)
    return dp, dq, LieAlgElem(0, s.c0_n2, 0, 0)


def twistor_apply(s: TorusSolution,
                  v: Tuple[float, float, float, float]) -> Tuple[float, ...]:
    """The twistor structure of s on Lie algebra coordinates (c1, c2, c3, c4).

    The rotation [[cos, -sin], [sin, cos]] carries (n3, n4) to (n1, n2), and
    the complementary block is minus its inverse, so the map squares to -Id.
    """
    c, si = s.cos_theta, s.sin_theta
    return (
        c * v[2] - si * v[3],
        si * v[2] + c * v[3],
        -c * v[0] - si * v[1],
        si * v[0] - c * v[1],
    )


def _log_derivatives(s: TorusSolution) -> Tuple[LieAlgElem, ...]:
    """C and the derivatives dp + [dp, C]/2 and dq + [dq, C]/2 of the torus
    logarithm w = C + X + [X, C]/2, X = p dp + q dq, from the matrix
    commutator, so that no coefficient of `log_coordinates` is used."""
    dp, dq, c0 = solution_lie(s)
    half = Fraction(1, 2)
    return (c0, lie_comb((1, dp), (half, commutator_oracle(dp, c0))),
            lie_comb((1, dq), (half, commutator_oracle(dq, c0))))


def cr_defect_exact(s: TorusSolution) -> Callable[[Fraction, Fraction],
                                                  Tuple[Fraction, ...]]:
    """The Cauchy-Riemann defect psi(du_a - [w, du_a]/2) - du_b + [w, du_b]/2
    of s, in exact arithmetic, as a function of the point (p, q).

    tau1, tau2, cos and sin are read as the Fractions of their floats.
    du_a = dw/dp and du_b = (dw/dq - tau1 dw/dp) / tau2 come from
    `_log_derivatives`, and w = C + p dw/dp + q dw/dq is the torus
    logarithm at (p, q).  The bracket is bilinear, so each matrix
    commutator is taken once, with C, dw/dp and dw/dq in turn, and the
    defect at (p, q) is its part at p = q = 0 plus p and q times the
    parts those commutators give; nothing assumes which terms vanish.  The
    tests hold it to one vector at every (p, q), the reason
    `geometry.label_solver` reads the residual at one point.
    """
    c0, du_a, dw_dq = _log_derivatives(s)
    tau1, tau2 = Fraction(s.tau1), Fraction(s.tau2)
    du_b = lie_comb((1 / tau2, dw_dq), (-tau1 / tau2, du_a))
    exact = replace(s, cos_theta=Fraction(s.cos_theta),
                    sin_theta=Fraction(s.sin_theta))
    half = Fraction(1, 2)

    def part(w: LieAlgElem, base: int) -> LieAlgElem:
        # The defect's part that is linear in w, plus base times its part
        # that reads no w.
        u = lie_comb((base, du_a), (-half, commutator_oracle(w, du_a)))
        v = lie_comb((base, du_b), (-half, commutator_oracle(w, du_b)))
        return lie_comb((1, LieAlgElem(*twistor_apply(exact, u.coords()))),
                        (-1, v))

    at_origin, along_p, along_q = (
        part(w, base).coords()
        for w, base in ((c0, 1), (du_a, 0), (dw_dq, 0)))
    return lambda p, q: tuple(x + p * y + q * z for x, y, z in zip(
        at_origin, along_p, along_q))


def cr_residual_commutator(s: TorusSolution) -> float:
    """Cauchy-Riemann residual at p = q = 0 from the matrix commutator.

    The reference for the residual of `geometry.label_solver`.  It reads no
    coefficient of `log_coordinates`: w = C at p = q = 0 and its
    derivatives come from `_log_derivatives`, each rounded once, and the
    defect psi(du_a - [w, du_a]/2) - du_b + [w, du_b]/2 is formed in
    floats as `label_solver` specifies it.
    """
    c0, dw_dp, dw_dq = _log_derivatives(s)
    tau1, tau2 = s.tau1, s.tau2
    dpv = [float(c) for c in dw_dp.coords()]
    dqv = [float(c) for c in dw_dq.coords()]
    dbv = [(dqv[k] - tau1 * dpv[k]) / tau2 for k in range(4)]
    wv = [float(c) for c in c0.coords()]
    u = (dpv[0], dpv[1], dpv[2],
         dpv[3] - (wv[1] * dpv[0] - dpv[1] * wv[0]) / 2)
    v = (dbv[0], dbv[1], dbv[2],
         dbv[3] - (wv[1] * dbv[0] - dbv[1] * wv[0]) / 2)
    pu = twistor_apply(s, u)
    return math.sqrt(sum((pu[k] - v[k]) ** 2 for k in range(4)))


def cr_residual_affine(s: TorusSolution) -> float:
    """Cauchy-Riemann residual at p = q = 0 from `log_coordinates`.

    The bitwise reference for the residual of `geometry.label_solver`,
    which forms the coefficients of `log_coordinates` from the integers of
    h and c0_n2 and takes one sqrt of the three squares that read only
    the shared data plus the n4 square.
    This one rounds each coefficient of `log_coordinates` from scratch;
    `cr_residual_commutator` is the reference that reads none of them.
    """
    w = log_coordinates(s.h, s.c0_n2)
    tau1, tau2 = s.tau1, s.tau2
    du_a = [float(dp) for _, dp, _ in w]
    du_b = [(float(dq) - tau1 * dpv) / tau2
            for (_, _, dq), dpv in zip(w, du_a)]
    pu = twistor_apply(s, du_a)
    w1, w2 = float(w[0][0]), float(w[1][0])
    v4 = du_b[3] - (w2 * du_b[0] - du_b[1] * w1) / 2
    return math.sqrt(sum((*((pu[k] - du_b[k]) ** 2 for k in range(3)),
                          (pu[3] - v4) ** 2)))


def bent_label_terms(terms, dtau1: float = 0.0, dc0: Rat = 0):
    """`geometry._label_terms` with dtau1 added to each tau1 and dc0 to
    each c0_n2, for planting a wrong torus in the command path."""
    def bent(*args):
        tau1, num, den = terms(*args)
        c0 = Fraction(num, den) + dc0
        return tau1 + dtau1, c0.numerator, c0.denominator
    return bent


# ---------------------------------------------------------------------------
# Symplectic area by pullback integration
# ---------------------------------------------------------------------------


def area_pullback(s: TorusSolution) -> float:
    """Area of a torus by exact pullback of the twistor symplectic form.

    Integrates the pullback of dt ^ (cos dx + sin dy) + g ^ (-sin dx + cos dy)
    (g = dz - x dy) over the unit square at lambda = 0; only the final
    cos/sin combination is floating point.
    """
    dp, dq, _ = solution_lie(s)
    lam, p, q = Poly.var(0), Poly.var(1), Poly.var(2)
    a, b = dq.c1, dq.c2
    y = q.scale(a)
    x = q.scale(b) + Poly.const(fraction(s.c0_n2))
    z = (lam.scale(-dp.c3) + p.scale(dp.c4) + q.scale(dq.c4)
         + (q * q).scale(a * b / 2))
    t = lam.scale(dp.c4) + p.scale(dp.c3) + q.scale(dq.c3)
    dx, dy, dz, dt = (differential(f) for f in (x, y, z, t))
    gamma = form_sub(dz, form_scale(x, dy))

    def wedge_pq(u, v) -> Poly:
        return u[1] * v[2] - u[2] * v[1]

    def integrate_slice(poly: Poly) -> Fraction:
        total = Fraction(0)
        for (i, j, k), coeff in poly.terms.items():
            if i == 0:
                total += coeff / ((j + 1) * (k + 1))
        return total

    i_t_dx = integrate_slice(wedge_pq(dt, dx))
    i_t_dy = integrate_slice(wedge_pq(dt, dy))
    i_g_dx = integrate_slice(wedge_pq(gamma, dx))
    i_g_dy = integrate_slice(wedge_pq(gamma, dy))
    c, si = s.cos_theta, s.sin_theta
    return c * float(i_t_dx + i_g_dy) + si * float(i_t_dy - i_g_dx)


# ---------------------------------------------------------------------------
# Evaluation-cycle class by polynomial pullback
# ---------------------------------------------------------------------------


def eval_class_pullback(s: TorusSolution) -> H3Class:
    """Class of the evaluation cycle by general polynomial pullback.

    The reference for `geometry.eval_class_integrate`.  The torus logarithm
    is w = C + X + [X, C]/2 with X = p dp + q dq, its derivatives taken from
    the matrix commutator by `_log_derivatives`.  The evaluation map
    exp(w) exp(lam (dp_h4 n3 - dp_h3 n4)) has coordinates x = w2, y = w1,
    z = w4 + w1 w2 / 2 - lam dp_h3 and log t = w3 + lam dp_h4 as polynomials
    in (lam, p, q); the forms dy^dt^g, dx^dt^g and dy^dx^g (g = dz - x dy)
    are wedged as polynomials and integrated monomial by monomial over
    [0, 1 / gcd(dp h3, dp h4)] x [0, 1]^2, assuming nothing about which
    terms vanish.
    """
    dp = lie_columns(s.h)[0]
    c0, dw_dp, dw_dq = _log_derivatives(s)
    lam, p, q = Poly.var(0), Poly.var(1), Poly.var(2)
    w1, w2, w3, w4 = (Poly.const(c) + p.scale(x) + q.scale(y)
                      for c, x, y in zip(c0.coords(), dw_dp.coords(),
                                         dw_dq.coords()))
    x, y = w2, w1
    z = w4 + (w1 * w2).scale(Fraction(1, 2)) - lam.scale(dp.c3)
    t = w3 + lam.scale(dp.c4)
    dx, dy, dz, dt = (differential(f) for f in (x, y, z, t))
    gamma = form_sub(dz, form_scale(x, dy))
    period = Fraction(1, math.gcd(*s.h.dp[2:]))
    raw_134 = wedge3(dy, dt, gamma).integrate_box(period)
    raw_234 = wedge3(dx, dt, gamma).integrate_box(period)
    raw_124 = wedge3(dy, dx, gamma).integrate_box(period)
    return h3(-raw_134, -raw_234, -raw_124)

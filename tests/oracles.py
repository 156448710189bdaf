"""Independent oracles and random data generators shared by the test suite.

The matrix oracles work directly on the 3x3 Heisenberg block (with the
multiplicative factor carried additively as log t), so they never touch the
coordinate formulas they are checking.  The pullback oracles integrate
general polynomial forms in (lam, p, q) with `Poly`, where the library
integrates constant forms in closed form.

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
* `sl2z_act` reparametrises a homomorphism by right multiplication with an
  SL(2,Z) matrix, and `fully_reduce` moves any homomorphism of an orbit with
  nonzero first invariant to its fully reduced representative; they are
  the reference for `gwcount.moduli_component`'s canonical form.
* `aut_weight_sum_labels` sums the reciprocal automorphism orders label by
  label, one gcd per component; it is the reference for
  `arith.aut_weight_sum`, which sums over pairs of divisors.
* `hnf_matrices` enumerates the Hermite forms of the index-ell sublattices
  of Z^2; their number is the reference for `arith.sublattice_counts`,
  which sieves divisor sums without building a form.
* `is_prime_all_bases` runs all 13 Miller-Rabin bases at every size
  through `strong_probable_prime`, and `factorize_trial` tries each prime
  below 1000 in turn until its square passes the cofactor; they are the
  references for `arith._is_prime`, which runs only the bases the size of
  n needs, and `arith._factorize`, which finds the small primes dividing n
  by one gcd.
* `twistor_apply` is the full 4x4 action of a solved torus's twistor
  structure; the library applies it only to vectors with no n1 or n2 part.
* `solve_torus_fractions` solves the torus geometry through `lie` and
  Fractions; it is the bitwise reference for
  `geometry.solve_torus_data`, which forms every float from integers.
* `log_coordinates` writes the torus logarithm as exact affine
  coefficients in (p, q), for the curve-point tests and the residual rows.
* `cr_residual_rows` rounds each row of the Cauchy-Riemann residual from
  `log_coordinates` with `_affine_float`, building every integer afresh;
  it is the bitwise reference for `geometry.cr_residual`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ktgw.arith import (
    _MR_BASES,
    _MR_LIMIT,
    _SMALL_PRIMES,
    _SPLIT_LIMIT,
    _TRIAL_LIMIT,
    divisors,
)
from ktgw.geometry import TorusSolution
from ktgw.homs import HomDerivs, _xgcd, homology_class
from ktgw.nilalg import (
    H3Class,
    HomologyClass,
    Rat,
    Sl2zMatrix,
    _frac,
    sl2z_entries,
)

Mat3 = Tuple[Tuple[Fraction, ...], ...]
Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]


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


# ---------------------------------------------------------------------------
# Reciprocal automorphism weights, label by label
# ---------------------------------------------------------------------------


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
    """Whether v is a plain Fraction with a positive denominator coprime to
    its numerator, as Fraction arithmetic leaves every result."""
    return (type(v) is Fraction and v.denominator > 0
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
# Cauchy-Riemann residual on the full grid
# ---------------------------------------------------------------------------


def solve_torus_fractions(h: HomDerivs) -> TorusSolution:
    """`geometry.solve_torus_data` through Fractions, the bitwise reference.

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
                         (dq4 - tau1_exact * dd) / a)


Affine = Tuple[Rat, Rat, Rat]


def log_coordinates(h: HomDerivs,
                    c0_n2: Fraction) -> Tuple[Affine, Affine, Affine, Affine]:
    """log(torus) = h + C + [h, C]/2 as exact (const, p, q) coefficients.

    C = c0_n2 n2.  The map is affine in (p, q).  h is reduced
    (dp h1 = dp h2 = 0), so w1 and w2 have no p term, and [h, C] is
    -q dq h1 c0_n2 n4.
    """
    (_, _, p3, p4), (a, b, q3, q4) = lie(h)
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


def cr_residual_grid(s: TorusSolution, grid: int = 8) -> float:
    """Cauchy-Riemann residual over every point of a grid x grid square.

    The reference for `geometry.cr_residual`.  The torus logarithm is
    w = C + X + [X, C]/2 with X = p dp + q dq; its derivatives
    dp + [dp, C]/2 and dq + [dq, C]/2 come from the matrix commutator, so no
    coefficient of `log_coordinates` is used.  w is evaluated
    exactly at each grid point and rounded once, and the defect
    psi(du_a - [w, du_a]/2) - du_b + [w, du_b]/2 is formed in floats as
    `cr_residual` specifies it.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    dp, dq, c0 = solution_lie(s)
    half = Fraction(1, 2)
    dw_dp = lie_comb((1, dp), (half, commutator_oracle(dp, c0)))
    dw_dq = lie_comb((1, dq), (half, commutator_oracle(dq, c0)))
    # (const, p, q) coefficients of w1 and w2, the only parts the defect reads.
    w12 = list(zip(c0.coords(), dw_dp.coords(), dw_dq.coords()))[:2]
    tau1, tau2 = s.tau1, s.tau2
    dpv = [float(c) for c in dw_dp.coords()]
    dqv = [float(c) for c in dw_dq.coords()]
    dbv = [(dqv[k] - tau1 * dpv[k]) / tau2 for k in range(4)]
    worst = 0.0
    for i in range(grid):
        p = Fraction(i / (grid - 1))
        for j in range(grid):
            q = Fraction(j / (grid - 1))
            wv = [float(c + p * x + q * y) for c, x, y in w12]
            u = (dpv[0], dpv[1], dpv[2],
                 dpv[3] - (wv[1] * dpv[0] - dpv[1] * wv[0]) / 2)
            v = (dbv[0], dbv[1], dbv[2],
                 dbv[3] - (wv[1] * dbv[0] - dbv[1] * wv[0]) / 2)
            pu = twistor_apply(s, u)
            defect = math.sqrt(sum((pu[k] - v[k]) ** 2 for k in range(4)))
            worst = max(worst, defect)
    return worst


def _affine_float(const: Rat, slope: Rat, q: float) -> float:
    """float(const + slope q), correctly rounded, by one integer division."""
    num, den = q.as_integer_ratio()
    return ((const.numerator * slope.denominator * den
             + slope.numerator * const.denominator * num)
            / (const.denominator * slope.denominator * den))


def cr_residual_rows(s: TorusSolution, grid: int = 8) -> float:
    """Cauchy-Riemann residual, one row per grid q, each row from scratch.

    The bitwise reference for `geometry.cr_residual`, which forms the
    coefficients of `log_coordinates` from the integers of h and c0_n2,
    squares only the varying n4 component of each row, and takes one sqrt.
    This one reads `log_coordinates` and rounds each row from scratch;
    `cr_residual_grid` is the reference that reads no coefficient of it.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    w = log_coordinates(s.h, s.c0_n2)
    tau1, tau2 = s.tau1, s.tau2
    du_a = [float(dp) for _, dp, _ in w]
    du_b = [(float(dq) - tau1 * dpv) / tau2
            for (_, _, dq), dpv in zip(w, du_a)]
    pu = twistor_apply(s, du_a)
    fixed = [(pu[k] - du_b[k]) ** 2 for k in range(3)]
    (c1, _, a), (c2, _, b) = w[0], w[1]
    worst = 0.0
    for j in range(grid):
        q = j / (grid - 1)
        w1, w2 = _affine_float(c1, a, q), _affine_float(c2, b, q)
        v4 = du_b[3] - (w2 * du_b[0] - du_b[1] * w1) / 2
        defect = math.sqrt(sum((*fixed, (pu[3] - v4) ** 2)))
        worst = max(worst, defect)
    return worst


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
    x = q.scale(b) + Poly.const(s.c0_n2)
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
    the matrix commutator as in `cr_residual_grid`.  The evaluation map
    exp(w) exp(lam (dp_h4 n3 - dp_h3 n4)) has coordinates x = w2, y = w1,
    z = w4 + w1 w2 / 2 - lam dp_h3 and log t = w3 + lam dp_h4 as polynomials
    in (lam, p, q); the forms dy^dt^g, dx^dt^g and dy^dx^g (g = dz - x dy)
    are wedged as polynomials and integrated monomial by monomial over
    [0, 1 / gcd(dp h3, dp h4)] x [0, 1]^2, assuming nothing about which
    terms vanish.
    """
    dp, dq, c0 = solution_lie(s)
    half = Fraction(1, 2)
    dw_dp = lie_comb((1, dp), (half, commutator_oracle(dp, c0)))
    dw_dq = lie_comb((1, dq), (half, commutator_oracle(dq, c0)))
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
    return H3Class(-raw_134, -raw_234, -raw_124)

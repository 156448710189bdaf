"""Divisor sums and the exact gcd identities behind the torus counts.

Everything here is pure integer arithmetic.  The two headline items are a
divisor sieve counting the finite-index sublattices of Z^2 (it never
factors, so it checks sigma_1) and g = gcd(m, n) times the sum of
reciprocal automorphism orders over the component labels, an integer,
evaluated as a sum over pairs of divisors of g, together with its closed
form |m| sigma_2(g) / g.  `cesaro_check` evaluates both sides of Cesaro's
divisor identity, reading the gcds of its left side from one `gcd_tally`,
so that a sweep over many n counts each gcd once.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Callable
from functools import lru_cache
from itertools import repeat

__all__ = [
    "divisors",
    "sigma",
    "sublattice_counts",
    "aut_weight_total",
    "aut_weight_total_closed",
    "CesaroCheck",
    "gcd_tally",
    "cesaro_check",
]


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p, is_prime in enumerate(sieve) if is_prime)


# Trial division covers every prime below this bound; one gcd with their
# product finds which of them divide n.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# Miller-Rabin with these bases is exact below _MR_LIMIT (Sorenson and
# Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# (bound, k): the first k bases are exact below bound, the least strong
# pseudoprime to all k of them (Jaeschke 1993; Sorenson and Webster 2015).
_MR_TIERS = (
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
# A composite cofactor is split by trial division up to this bound only; one
# with no prime factor below it is refused, so a scan tries at most 5 * 10^6
# odd candidates.
_SPLIT_LIMIT = 10 ** 7


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n with no prime factor below _TRIAL_LIMIT.

    A witness proves n composite at any size; a prime verdict is proven only
    below _MR_LIMIT, so above it a would-be prime is refused.  Only as many
    bases run as _MR_TIERS needs for the size of n; all of them from the last
    tier bound on.
    """
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _MR_TIERS:
        if n < bound:
            break
    else:
        k = len(_MR_BASES)
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot prove {n} prime: it exceeds the "
                         f"deterministic Miller-Rabin bound {_MR_LIMIT}")
    return True


@lru_cache(maxsize=1024)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs.

    Trial division by the primes below _TRIAL_LIMIT that one gcd with their
    product finds to divide n, then Miller-Rabin on what is left.  A
    composite cofactor is split by trial division on from _TRIAL_LIMIT up to
    _SPLIT_LIMIT.  Raises ValueError when a cofactor is a probable prime
    above _MR_LIMIT, or a composite with no prime factor up to _SPLIT_LIMIT.
    Cached, so that the closed form, the budget check and the weight sum of
    one class split its gcd once.
    """
    fact: dict[int, int] = {}
    # common is the product of the small primes not yet divided out.  Past
    # it none is left; past the square root of n, n is 1 or a prime.
    common = math.gcd(n, _SMALL_PRODUCT)
    stop = min(common, math.isqrt(n))
    for p in _SMALL_PRIMES:
        if p > stop:
            break
        if common % p == 0:
            while n % p == 0:
                fact[p] = fact.get(p, 0) + 1
                n //= p
            common //= p
            stop = min(common, math.isqrt(n))
    # From here on n has no prime factor below d.
    d = _TRIAL_LIMIT + 1
    while n > 1:
        if n < d * d or _is_prime(n):
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


@lru_cache(maxsize=1024)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order.

    Built from the prime factorization of n: trial division by the primes
    below _TRIAL_LIMIT, then deterministic Miller-Rabin (exact below
    _MR_LIMIT), with further trial division up to _SPLIT_LIMIT to split a
    composite cofactor.  Raises ValueError for n < 1, for a prime factor of
    at least _MR_LIMIT and for a composite cofactor with no prime factor up
    to _SPLIT_LIMIT.
    """
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in _factorize(n):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d**k over d | n, for k in {0,1,2}.

    Evaluated as a product over the prime factorization of n, with the same
    refusals as `divisors`.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"sigma supports k in {{0, 1, 2}}, got {k}")
    if n < 1:
        raise ValueError(f"sigma requires n >= 1, got {n}")
    out = 1
    for p, e in _factorize(n):
        out *= e + 1 if k == 0 else (p ** (k * (e + 1)) - 1) // (p ** k - 1)
    return out


def sublattice_counts(lmax: int) -> list[int]:
    """counts[ell] for ell = 0..lmax: the sum of the divisors of ell
    (sigma_1), by a sieve.  It counts the index-ell sublattices of Z^2, the
    Hermite forms [[d, b], [0, ell/d]] with 0 <= b < d, and never factors."""
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    counts = [0] * (lmax + 1)
    for d in range(1, lmax + 1):
        for ell in range(d, lmax + 1, d):
            counts[ell] += d
    return counts


def _moebius_weights(g: int) -> list[tuple[int, int]]:
    """Pairs (f, g w(f)) over the divisors f of g >= 1, in no fixed order.

    w is multiplicative with w(p^a) = (1 - p) / p^a, so that 1 / x is the
    sum of w(f) over f | x (Pillai 1933), and g w(f) = (g / f) times the
    product of (1 - p) over the primes p | f is an integer.
    """
    pairs = [(1, g)]
    for p, e in _factorize(g):
        pairs += [(f * p ** a, gw // p ** a * (1 - p))
                  for f, gw in pairs for a in range(1, e + 1)]
    return pairs


@lru_cache(maxsize=64)
def _weight_terms(g: int) -> tuple[tuple[int, int], ...]:
    """Pairs (f, c_f) over f | g, c_f = g w(f) sum_{e | g} gcd(f, e), where
    e = g/d runs over the divisors of g as d does; cached, as a sweep row or
    a deck revisits few g.  sigma_0(g) <= 2000 under
    `gwcount.ENUMERATION_BUDGET`: at most about 1 MB an entry, 64 MB in all."""
    weights = _moebius_weights(g)
    divs = [f for f, _ in weights]
    return tuple((f, gw * sum(map(math.gcd, repeat(f), divs)))
                 for f, gw in weights)


def aut_weight_total(m: int, n: int) -> int:
    """g times the total reciprocal automorphism weight of the genus-one
    components, g = gcd(m, n): an integer, since every order divides g.

    Evaluates, exactly,

        g * sum over d | g, k = 1..d, l = 1..|m|/d of
            1 / gcd(g, (m k + n l) / d)

    with the conventions gcd(x, 0) = |x| and gcd of absolute values.  The
    summand is the reciprocal of the automorphism order of the torus
    component labelled (d, k, l) in the class with invariants (m, n).

    1 / gcd(g, v) is the sum of w(f) over f | gcd(g, v), and the labels of
    d with f | (m k + n l) / d number exactly C(d, f) = |m| gcd(f, g/d) / f,
    since k and l each run over whole periods of the congruence.  So the sum
    costs sigma_0(g)^2 pairs (f, d), not |m| sigma_0(g) labels.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    span, total = abs(m), 0
    # A plain loop: for the few terms of a small g it costs about half of
    # a generator's or a map's set-up.
    for f, c in _weight_terms(math.gcd(m, n)):
        total += c * (span // f)
    return total


@lru_cache(maxsize=1024)
def _sigma_2(g: int) -> int:
    """sigma_2(g), cached: a `verify identities` sweep meets each g many
    times."""
    return sigma(2, g)


def aut_weight_total_closed(m: int, n: int) -> int:
    """Closed form |m| / g * sigma_2(g) of aut_weight_total, g = gcd(m, n)."""
    if m == 0:
        raise ValueError("m must be nonzero")
    g = math.gcd(m, n)
    return abs(m) // g * _sigma_2(g)


CesaroCheck = namedtuple("CesaroCheck", ("lhs", "rhs", "equal"))


def gcd_tally(max_d: int) -> list[tuple[tuple[int, int], ...]]:
    """tally[d] for d = 0..max_d: one pair (v, c) per value v of gcd(i, d)
    over i = 1..d, c the number of such i; tally[0] is empty.  Counted from
    the gcds themselves, never from the Euler phi of d / v."""
    tally = [()]
    for d in range(1, max_d + 1):
        tally.append(tuple(
            Counter(map(math.gcd, range(1, d + 1), repeat(d))).items()))
    return tally


def cesaro_check(f: Callable[[int], int], n: int,
                 tally: list[tuple[tuple[int, int], ...]]) -> CesaroCheck:
    """Evaluate both sides of Cesaro's divisor identity for an arithmetic f.

    lhs = sum over d | n of sum_{i=1..d} f(gcd(i, d));
    rhs = sum over d | n of f(n / d) * d.

    lhs reads each d's gcd counts from tally, a `gcd_tally` that reaches n,
    instead of taking d gcds, so a sweep over many n and f counts each gcd
    once.
    """
    if n < 1:
        raise ValueError(f"cesaro_check requires n >= 1, got {n}")
    divs = divisors(n)
    lhs = sum(f(v) * c for d in divs for v, c in tally[d])
    rhs = sum(f(n // d) * d for d in divs)
    return CesaroCheck(lhs, rhs, lhs == rhs)

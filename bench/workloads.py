"""Seeded operation decks for the three benchmark workloads.

A workload is an endless stream of *decks*.  A deck is a shuffled, fixed
stratified design: every deck holds one operation from each size stratum, so
two seeds give the same mix of sizes and differ only in the draws inside each
stratum.  That keeps run-to-run spread small without letting any input repeat.

Every operation carries the answer the benchmark expects.  The answers are
computed here, from factorizations the generator chose itself, with no call
into ``ktgw``: the checks stay independent of the code they measure.

Why each workload exists (the one-line reasons are in BENCHMARK.json):

* ``closed-large`` -- ``gw --method closed`` on classes whose normalizing word
  has 10^4 to 3*10^5 tokens and whose ``g`` reaches 10^12 with one large
  prime factor.  Time goes to the unary automorphism word
  (``homs.normalize_class`` -> ``nilalg.h2_pushforward``) and to trial
  division in ``arith.divisors``; no component is enumerated.
* ``enumerate-mid`` -- ``gw --method both`` on classes with ``|m|`` in
  50..1500 and ``g`` with 1 to 24 divisors.  Time goes to the
  ``|m| sigma_0(g)`` components and their Fraction-weighted sum; words are at
  most 12 tokens and divisors trivial.
* ``certify-small`` -- ``moduli`` on ``|m|, |n| <= 12`` mixed with small
  ``verify`` sweeps.  Time goes to the per-component geometry, above all the
  Cauchy-Riemann residual; it also runs exact pullback integration, the
  Smith oracle and large JSON rendering.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

# ---------------------------------------------------------------------------
# Number theory, independent of ktgw
# ---------------------------------------------------------------------------

Factorization = Dict[int, int]

# Deterministic Miller-Rabin for n < 3.3 * 10^24 (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize_small(n: int) -> Factorization:
    """Factorization of a small positive integer by trial division."""
    fact: Factorization = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fact[p] = fact.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        fact[n] = fact.get(n, 0) + 1
    return fact


def sigma_k(fact: Factorization, k: int) -> int:
    """sigma_k of the integer with the given factorization."""
    out = 1
    for p, e in fact.items():
        out *= (e + 1) if k == 0 else (p ** (k * (e + 1)) - 1) // (p ** k - 1)
    return out


def divisors_of(fact: Factorization) -> List[int]:
    divs = [1]
    for p, e in fact.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def component_count(m: int, n: int) -> int:
    """|m| sigma_0(gcd(m, n)): the number of moduli components of (m, n)."""
    return abs(m) * sigma_k(factorize_small(math.gcd(m, n)), 0)


def closed_invariant(s: int, t: int, g_fact: Factorization) -> Fraction:
    """(m^2 + n^2) sigma_2(g) / g^3 for m = |s|, n = +-t, g = gcd(s, t)."""
    g = math.prod(p ** e for p, e in g_fact.items())
    return Fraction((s * s + t * t) * sigma_k(g_fact, 2), g ** 3)


# The generators of SL(2, Z) acting on homology, as in the ktgw CLI's words.
_SL2_GENERATORS = (
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
)


def _random_sl2(rng: random.Random, max_tokens: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Product of up to max_tokens random generators."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, max_tokens)):
        (a, b), (c, d) = rng.choice(_SL2_GENERATORS)
        m = ((a * m[0][0] + b * m[1][0], a * m[0][1] + b * m[1][1]),
             (c * m[0][0] + d * m[1][0], c * m[0][1] + d * m[1][1]))
    return m


def _cell_draw(rng: random.Random, lo: float, hi: float, cell: int, cells: int) -> float:
    """Log-uniform draw from the middle half of the cell-th of `cells` equal
    log-slices of [lo, hi].  Staying off the slice edges keeps every deck's
    size mix close to the design while no two draws coincide."""
    u = (cell + 0.25 + 0.5 * rng.random()) / cells
    return lo * (hi / lo) ** u


def _signed(rng: random.Random, v: int) -> int:
    return v if rng.random() < 0.5 else -v


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """One CLI invocation, the answer it must give, and the check that reads
    its exit code and stdout against that answer (None when they agree, or
    a message)."""

    argv: Tuple[str, ...]
    check: Callable[[dict, int, str], Optional[str]]
    expect: dict


def _frac(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _check_gw(expect: dict, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    payload = json.loads(out)
    results = payload["results"]
    if len(results) != expect["results"]:
        return f"{len(results)} results"
    for r in results:
        if int(r["m"]) != expect["m"] or int(r["n"]) != expect["n"]:
            return f"{r['method']}: m, n = {r['m']}, {r['n']}"
        gw = r["gw"]
        got = (_frac(gw["e134"]), _frac(gw["e234"]), _frac(gw["e124"]))
        if got != (expect["e134"], expect["e234"], 0):
            return f"{r['method']}: gw = {got}"
    if expect["results"] == 2 and payload.get("agrees") is not True:
        return "routes do not agree"
    return None


def _check_refused(expect: dict, rc: int, out: str) -> Optional[str]:
    if rc != 2 or out:
        return f"exit {rc} with {len(out)} bytes of output, expected a refusal"
    return None


def _check_moduli(expect: dict, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    m, n, g = expect["m"], expect["n"], expect["g"]
    comps = json.loads(out)["components"]
    if len(comps) != expect["count"]:
        return f"{len(comps)} components, expected {expect['count']}"
    labels = {(d, k, l) for d in expect["divisors"]
              for k in range(1, d + 1) for l in range(1, abs(m) // d + 1)}
    ev = expect["eval"]
    for c in comps:
        d, k, l = int(c["d"]), int(c["k"]), int(c["l"])
        labels.discard((d, k, l))
        if int(c["aut_size"]) != math.gcd(g, (m * k + n * l) // d):
            return f"aut_size {c['aut_size']} at (d,k,l)=({d},{k},{l})"
        e = c["eval_class"]
        if (_frac(e["e134"]), _frac(e["e234"]), _frac(e["e124"])) != (ev, ev, 0):
            return f"eval_class at (d,k,l)=({d},{k},{l})"
        if not c["cr_residual"]["value"] < 1e-9:
            return f"cr_residual {c['cr_residual']['value']} at ({d},{k},{l})"
    if labels:
        return f"{len(labels)} labels missing"
    return None


_SWEEP_LINE = re.compile(r"^(\S+): (\d+) checks, (\d+) failures \[(ok|FAIL)\]$")


def _check_verify(expect: dict, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    seen = {}
    for line in out.splitlines():
        match = _SWEEP_LINE.match(line)
        if match is None:
            return f"unparsed line {line!r}"
        if int(match.group(3)) != 0:
            return f"{match.group(1)}: {match.group(3)} failures"
        seen[match.group(1)] = int(match.group(2))
    if seen != expect["checks"]:
        return f"sweeps {seen}, expected {expect['checks']}"
    return None


def _gw_op(A: Tuple[int, int, int, int], method: str, expect: dict) -> Op:
    argv = ("gw", *map(str, A), "--method", method, "--format", "json")
    return Op(argv, _check_gw, dict(expect, results=2 if method == "both" else 1))


# ---------------------------------------------------------------------------
# closed-large
# ---------------------------------------------------------------------------

TOKEN_RANGE = (1e4, 3e5)
LOG10_G_RANGE = (6.0, 12.0)
TOKEN_CELLS = 8
G_CELLS = 4


def _euclid_tokens(v1: int, v2: int) -> int:
    """Length of the word that floor-division Euclid writes for the column
    (v1, v2): one token per unit of each quotient plus one per step."""
    tokens = 0
    while v2:
        q = v1 // v2
        tokens += abs(q) + 1
        v1, v2 = -v2, v1 - q * v2
    return tokens


def _coprime_pair(rng: random.Random, tokens: float) -> Tuple[int, int]:
    """Coprime signed (p, q) whose Euclidean word length is within 2% of `tokens`.

    Mixed signs lengthen the word by up to about 3x over the quotient sum of
    |p| / |q|, so the quotients are rescaled until the word length fits.
    """
    while True:
        weights = [rng.expovariate(1.0) for _ in range(rng.randint(2, 6))]
        total = sum(weights)
        swap, sign_p, sign_q = (rng.random() < 0.5 for _ in range(3))
        scale = tokens
        for _ in range(4):
            quotients = [max(1, round(scale * w / total)) for w in weights]
            p_prev, p = 1, quotients[0]
            q_prev, q = 0, 1
            for a in quotients[1:]:
                p_prev, p = p, a * p + p_prev
                q_prev, q = q, a * q + q_prev
            if swap:
                p, q = q, p
            p, q = (-p if sign_p else p), (-q if sign_q else q)
            length = _euclid_tokens(p, q)
            if abs(length - tokens) <= 0.02 * tokens:
                return p, q
            scale *= tokens / length


def _large_g(rng: random.Random, target: float, seen: set) -> Tuple[int, Factorization]:
    """g near target: a smooth part of at most 1000 times one large prime."""
    while True:
        fact: Factorization = {}
        smooth = 1
        for _ in range(rng.randint(0, 3)):
            p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
            if smooth * p <= 1000:
                smooth *= p
                fact[p] = fact.get(p, 0) + 1
        big = int(target * (1 + 0.01 * rng.random()) // smooth) | 1
        while not is_prime(big):
            big += 2
        fact[big] = 1
        g = smooth * big
        if g not in seen:
            seen.add(g)
            return g, fact


def _small_coprime(rng: random.Random) -> Tuple[int, int]:
    while True:
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        if math.gcd(a, b) == 1:
            return _signed(rng, a), _signed(rng, b)


def closed_large(rng: random.Random) -> Iterator[List[Op]]:
    """Decks of 32 valid classes, one per (word length, g) cell, plus one
    m = 0 class and two Plucker-violating classes (about 5% of the ops)."""
    seen_g: set = set()
    g_lo, g_hi = (10 ** e for e in LOG10_G_RANGE)
    cells = [("gw", i, j) for i in range(TOKEN_CELLS) for j in range(G_CELLS)]
    for index in itertools.count():
        deck = []
        extra = [(kind, (index + shift) % TOKEN_CELLS, (index + shift) % G_CELLS)
                 for shift, kind in enumerate(("m0", "refused", "refused"))]
        for kind, tok_cell, g_cell in cells + extra:
            p, q = _coprime_pair(rng, _cell_draw(rng, *TOKEN_RANGE, tok_cell, TOKEN_CELLS))
            g, g_fact = _large_g(rng, _cell_draw(rng, g_lo, g_hi, g_cell, G_CELLS), seen_g)
            s1, t1 = _small_coprime(rng)
            s, t = g * s1, g * t1
            if kind == "m0":
                # m = 0: the moduli are obstructed and the invariant is zero.
                A = (0, 0, t * p, t * q)
                deck.append(_gw_op(A, "closed", {"m": 0, "n": abs(t), "e134": 0, "e234": 0}))
                continue
            A = (s * p, s * q, t * p, t * q)
            if kind == "refused":
                # a13 a24 - a14 a23 = s p != 0: no torus represents it.
                deck.append(Op(("gw", *map(str, A[:3]), str(A[3] + 1),
                                "--method", "closed", "--format", "json"), _check_refused, {}))
                continue
            coeff = closed_invariant(s, t, g_fact)
            deck.append(_gw_op(A, "closed", {
                "m": abs(s), "n": t if s > 0 else -t,
                "e134": coeff * A[0], "e234": coeff * A[1]}))
        rng.shuffle(deck)
        yield deck


# ---------------------------------------------------------------------------
# enumerate-mid
# ---------------------------------------------------------------------------

M_RANGE = (50, 1500)
M_CELLS = 8
SIGMA0_CELLS = ((1, 1), (2, 3), (4, 7), (8, 24))
# The largest cell is one class family, |m| = 1200 and g = 600 with
# sigma_0(g) = 24 (28800 components), so every run reaches the same peak
# memory; n and the word still vary.
CORNER = (1200, 600)


def _mid_m_g(rng: random.Random, m_cell: int, s0_cell: Tuple[int, int]) -> Tuple[int, int]:
    """(m, g) with m in the cell and g | m with sigma_0(g) in range.

    Among the divisors whose sigma_0 lies in range, g is the one closest to
    the range's geometric middle, so the component count |m| sigma_0(g) of a
    cell varies little from deck to deck.
    """
    lo, hi = s0_cell
    target = math.log(lo * hi) / 2
    for _ in range(10000):
        m = round(_cell_draw(rng, *M_RANGE, m_cell, M_CELLS))
        candidates = [(abs(math.log(s0) - target), rng.random(), g)
                      for g in divisors_of(factorize_small(m))
                      for s0 in [sigma_k(factorize_small(g), 0)] if lo <= s0 <= hi]
        if candidates:
            return m, min(candidates)[2]
    raise RuntimeError(f"no m in cell {m_cell} with sigma_0(g) in {s0_cell}")


def enumerate_mid(rng: random.Random) -> Iterator[List[Op]]:
    """Decks of 32 classes, one per (|m|, sigma_0(g)) cell."""
    seen: set = set()
    while True:
        deck = []
        for m_cell in range(M_CELLS):
            for s0_cell in SIGMA0_CELLS:
                corner = m_cell == M_CELLS - 1 and s0_cell == SIGMA0_CELLS[-1]
                while True:
                    m, g = CORNER if corner else _mid_m_g(rng, m_cell, s0_cell)
                    n1 = rng.randint(1, 30)
                    if math.gcd(n1, m // g) != 1:
                        continue
                    n = _signed(rng, g * n1)
                    (a, b), (c, d) = _random_sl2(rng, 12)
                    A = (m * (a + b), m * (c + d), n * (a + b), n * (c + d))
                    if A not in seen:
                        seen.add(A)
                        break
                coeff = closed_invariant(m, n, factorize_small(g))
                deck.append(_gw_op(A, "both", {
                    "m": m, "n": n, "e134": coeff * A[0], "e234": coeff * A[1]}))
        rng.shuffle(deck)
        yield deck


# ---------------------------------------------------------------------------
# certify-small
# ---------------------------------------------------------------------------

SMALL_MAX = 12
SMALL_STRATA = 15
ORACLE_MAX = 6
IDENTITIES_MAX = (5, 60)


def _moduli_op(m: int, n: int) -> Op:
    g = math.gcd(m, n)
    g_fact = factorize_small(g)
    sign = 1 if m > 0 else -1
    return Op(("moduli", str(m), str(n), "--format", "json"), _check_moduli, {
        "m": m, "n": n, "g": g, "divisors": divisors_of(g_fact),
        "count": abs(m) * sigma_k(g_fact, 0),
        "eval": Fraction(sign * (m * m + n * n), g)})


def _sweep_classes(k: int) -> List[Tuple[int, int]]:
    return [(m, n) for m in range(-k, k + 1) if m for n in range(-k, k + 1)]


def _verify_op(suite: str, k: int) -> Op:
    if suite == "identities":
        checks = {"identities/weight-sum": k * (k + 1),
                  "identities/hnf-sigma1": k, "identities/cesaro": 3 * k}
    else:
        classes = _sweep_classes(k)
        comps = sum(component_count(m, n) for m, n in classes)
        if suite == "oracle":
            checks = {"oracle/closed-vs-enumerated": len(classes),
                      "oracle/aut-formula-vs-smith": comps,
                      "oracle/component-count": len(classes)}
        else:
            checks = {"geometry/cr-residual": comps,
                      "geometry/area-positivity": comps,
                      "geometry/eval-cycle": comps}
    return Op(("verify", suite, "--max", str(k)), _check_verify, {"checks": checks})


def certify_small(rng: random.Random) -> Iterator[List[Op]]:
    """Decks of one moduli class from each of 15 cost strata plus one oracle,
    one identities and one geometry sweep.  Ends after 40 decks, when the
    600 classes with 1 <= |m| <= 12, |n| <= 12 run out, so no class repeats.

    The geometry sweep stays at --max 1: at --max 2 it costs as much as the
    largest moduli class, and two such ops in a deck of 18 would put the
    90th percentile on the gap below them."""
    classes = _sweep_classes(SMALL_MAX)
    rng.shuffle(classes)
    classes.sort(key=lambda mn: component_count(*mn))
    size = len(classes) // SMALL_STRATA
    strata = [classes[i * size:(i + 1) * size] for i in range(SMALL_STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    oracle_ks: List[int] = []
    for index in range(size):
        if not oracle_ks:
            oracle_ks = list(range(1, ORACLE_MAX + 1))
            rng.shuffle(oracle_ks)
        deck = [_moduli_op(*stratum[index]) for stratum in strata]
        deck.append(_verify_op("oracle", oracle_ks.pop()))
        deck.append(_verify_op("identities", rng.randint(*IDENTITIES_MAX)))
        deck.append(_verify_op("geometry", 1))
        rng.shuffle(deck)
        yield deck


WORKLOADS: Dict[str, Callable[[random.Random], Iterator[List[Op]]]] = {
    "closed-large": closed_large,
    "enumerate-mid": enumerate_mid,
    "certify-small": certify_small,
}

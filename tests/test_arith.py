import math
import random
import time
from fractions import Fraction

import pytest

import ktgw.arith as arith
from ktgw.arith import (
    _moebius_weights,
    aut_weight_total,
    aut_weight_total_closed,
    cesaro_check,
    divisors,
    gcd_tally,
    sigma,
    sublattice_counts,
)
from ktgw.cli import IDENTITIES_MAX
from ktgw.gwcount import gw_enumerated
from ktgw.nilalg import HomologyClass
from oracles import (
    aut_weight_sum,
    aut_weight_sum_closed,
    aut_weight_sum_labels,
    cesaro_nested,
    factorize_trial,
    hnf_matrices,
    is_prime_all_bases,
    strong_probable_prime,
)


def brute_divisors(limit):
    """Divisor lists of 0..limit by sieving multiples."""
    divs = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            divs[multiple].append(d)
    return divs


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == (1,)
        assert divisors(6) == (1, 2, 3, 6)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_strictly_increasing_and_complete(self):
        brute = brute_divisors(3000)
        for n in range(1, 3001):
            divs = divisors(n)
            assert list(divs) == sorted(set(divs))
            assert divs == tuple(brute[n])

    @pytest.mark.parametrize("bad", [0, -1, -12])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            divisors(bad)


class TestSigma:
    def test_examples(self):
        assert sigma(1, 6) == 12
        assert sigma(2, 2) == 5
        assert sigma(0, 1) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sigma(1, 0)
        with pytest.raises(ValueError):
            sigma(3, 5)

    def test_matches_brute_force(self):
        brute = brute_divisors(3000)
        for n in range(1, 3001):
            for k in (0, 1, 2):
                assert sigma(k, n) == sum(d ** k for d in brute[n])

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(7)
        for k in (0, 1, 2):
            done = 0
            while done < 60:
                a, b = rng.randint(1, 80), rng.randint(1, 80)
                if math.gcd(a, b) != 1:
                    continue
                assert sigma(k, a * b) == sigma(k, a) * sigma(k, b)
                done += 1


class TestFactoring:
    @pytest.mark.parametrize("n, fact", [
        # Strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 23.
        (3215031751, {151: 1, 751: 1, 28351: 1}),
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
        (1000003 ** 2, {1000003: 2}),
        (1000003 * 1000033, {1000003: 1, 1000033: 1}),
        (1000003 * (10 ** 9 + 7), {1000003: 1, 10 ** 9 + 7: 1}),
    ])
    def test_hard_composites(self, n, fact):
        expected = [1]
        for p, e in fact.items():
            expected = [d * p ** i for d in expected for i in range(e + 1)]
        assert divisors(n) == tuple(sorted(expected))
        for k in (0, 1, 2):
            assert sigma(k, n) == sum(d ** k for d in expected)

    @pytest.mark.parametrize("p", [998244353, 469762049, 167772161])
    def test_primes_reaching_minus_one_by_squaring(self, p):
        # Base 2 reaches p - 1 only after squaring 2^d, d the odd part of
        # p - 1 (998244353 = 119 * 2^23 + 1, 469762049 = 7 * 2^26 + 1,
        # 167772161 = 5 * 2^25 + 1): the squaring loop's early exit.
        d = p - 1
        while d % 2 == 0:
            d //= 2
        assert pow(2, d, p) not in (1, p - 1)
        assert arith._is_prime(p)
        assert sigma(0, p) == 2

    def test_refuses_prime_above_deterministic_bound(self):
        with pytest.raises(ValueError):
            sigma(2, 2 ** 89 - 1)
        with pytest.raises(ValueError):
            divisors(2 ** 89 - 1)
        # Composite, so trial division splits it, leaving the same prime.
        with pytest.raises(ValueError):
            sigma(2, 1000003 * (2 ** 89 - 1))

    def test_refuses_composite_past_split_limit(self):
        # Both factors lie above the 10^7 trial-division limit.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(100000007 * 100000037)):
            sigma(2, 100000007 * 100000037)
        assert time.perf_counter() - start < 1.0


def verdict(f, n):
    """f(n), or the message of the ValueError that f raises for n."""
    try:
        return f(n)
    except ValueError as exc:
        return str(exc)


def no_small_factor(rng, lo, hi):
    """An odd n in [lo, hi) with no prime factor below the trial limit."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if math.gcd(n, arith._SMALL_PRODUCT) == 1 and lo <= n < hi:
            return n


TIER_BOUNDS = [bound for bound, _ in arith._MR_TIERS]


class TestMillerRabinBySize:
    @pytest.mark.parametrize("bound, k", arith._MR_TIERS)
    def test_tier_bound_is_composite(self, bound, k):
        # Each bound is a strong pseudoprime to the first k bases, so it must
        # fall in the next tier, which runs more of them.
        assert strong_probable_prime(bound, arith._MR_BASES[:k])
        assert is_prime_all_bases(bound) is False
        assert arith._is_prime(bound) is False

    @pytest.mark.parametrize("bound", TIER_BOUNDS + [arith._MR_LIMIT])
    def test_largest_prime_below_bound(self, bound):
        # From the largest odd number below the bound, search at most 1000
        # odd numbers (the widest gap here takes 84), so that no bound,
        # even or far from a prime, can make the search hang.
        start = bound - 1 if bound % 2 == 0 else bound - 2
        p = next((p for p in range(start, start - 2000, -2)
                  if is_prime_all_bases(p)), None)
        assert p is not None, f"no prime among 1000 odd numbers below {bound}"
        assert arith._is_prime(p) is True

    @pytest.mark.parametrize("n", [
        # Squares of the Wieferich primes: strong pseudoprimes to base 2.
        1093 ** 2, 3511 ** 2,
        # Primes past the Miller-Rabin bound are refused.
        2 ** 89 - 1, 2 ** 107 - 1,
    ])
    def test_pseudoprimes_and_refusals(self, n):
        assert verdict(arith._is_prime, n) == verdict(is_prime_all_bases, n)

    @pytest.mark.parametrize("lo, hi", list(zip(
        [1009] + TIER_BOUNDS, TIER_BOUNDS + [10 ** 26])))
    def test_matches_all_bases_in_each_tier(self, lo, hi):
        # The last range straddles _MR_LIMIT, so it also samples refusals.
        rng = random.Random(lo)
        primes = 0
        for _ in range(300):
            n = no_small_factor(rng, lo, hi)
            expected = verdict(is_prime_all_bases, n)
            assert verdict(arith._is_prime, n) == expected, n
            primes += expected is True
        assert primes > 0


class TestTrialDivisionByGcd:
    def test_matches_trial_loop_below_2e5(self):
        factorize = arith._factorize.__wrapped__
        for n in range(1, 2 * 10 ** 5):
            assert factorize(n) == factorize_trial(n), n

    def test_matches_trial_loop_on_smooth_times_prime(self):
        # The closed-route shape: a smooth part up to 1000 times one prime
        # between 10^6 and 10^12.
        rng = random.Random(24)
        factorize = arith._factorize.__wrapped__
        for _ in range(400):
            smooth = 1
            for _ in range(rng.randint(0, 4)):
                p = rng.choice(arith._SMALL_PRIMES)
                if smooth * p <= 1000:
                    smooth *= p
            big = rng.randrange(10 ** 6, 10 ** 12) | 1
            while not is_prime_all_bases(big):
                big += 2
            g = smooth * big
            assert factorize(g) == factorize_trial(g), g

    @pytest.mark.parametrize("p", [983, 991, 997, 1009, 1013])
    def test_matches_trial_loop_on_prime_powers(self, p):
        factorize = arith._factorize.__wrapped__
        for e in range(1, 9):
            for n in (p ** e, 2 * p ** e, 2 ** 40 * p ** e, 997 * p ** e,
                      p ** e * 1009):
                assert factorize(n) == factorize_trial(n), n

    @pytest.mark.parametrize("n, visited", [
        (10 ** 12 + 39, 1),        # no small prime divides n: stop at 2
        (2 * 3 * 1000003, 3),      # 2 and 3 divide n: stop at 5
        (997, 12),                 # stop at 37, the first prime past sqrt(n)
        (2 ** 40 * 997, 12),       # past sqrt(997) once 2^40 is divided out
        (991 * 997, 168),          # every small prime
    ])
    def test_scan_stops_past_gcd_or_square_root(self, monkeypatch, n,
                                                visited):
        seen = []

        class Visits:
            def __iter__(self):
                for p in arith._primes_below(arith._TRIAL_LIMIT):
                    seen.append(p)
                    yield p

        monkeypatch.setattr(arith, "_SMALL_PRIMES", Visits())
        assert arith._factorize.__wrapped__(n) == factorize_trial(n)
        assert len(seen) == visited

    @pytest.mark.parametrize("n", [
        2 ** 89 - 1,
        1000003 * (2 ** 89 - 1),
        6 * 997 ** 3 * (2 ** 89 - 1),
        100000007 * 100000037,
    ])
    def test_same_refusal(self, n):
        factorize = arith._factorize.__wrapped__
        message = verdict(factorize_trial, n)
        assert isinstance(message, str)
        assert verdict(factorize, n) == message


class TestSublatticeCount:
    def test_examples(self):
        counts = sublattice_counts(6)
        assert counts[1] == 1
        assert counts[6] == 12
        assert counts[4] == 7

    def test_matrices_are_hermite_of_right_index(self):
        for ell in (1, 4, 6, 9, 12, 30):
            mats = list(hnf_matrices(ell))
            assert len(set(mats)) == len(mats)
            for (d, b), (c, q) in mats:
                assert c == 0 and 0 <= b < d
                assert d * q == ell
        counts = sublattice_counts(300)
        for ell in range(1, 301):
            assert counts[ell] == len(list(hnf_matrices(ell)))

    def test_matches_sigma1(self):
        counts = sublattice_counts(200)
        for ell in range(1, 201):
            assert counts[ell] == sigma(1, ell)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sublattice_counts(0)


# Values of gcd(m, n) with few and with many divisors, prime powers among them.
WEIGHT_GCDS = (1, 2, 6, 12, 97, 360, 720, 1024, 5040)


class TestWeightSum:
    def test_examples(self):
        assert aut_weight_sum(1, 1) == 1
        assert aut_weight_sum(2, 2) == Fraction(5, 2)
        assert aut_weight_sum(2, 0) == Fraction(5, 2)

    def test_closed_form_examples(self):
        assert aut_weight_sum_closed(2, 2) == Fraction(5, 2)
        assert aut_weight_sum_closed(1, 1) == 1
        assert aut_weight_sum_closed(6, 4) == Fraction(15, 2)

    def test_matches_naive_summation(self):
        for m in [v for v in range(-30, 31) if v]:
            for n in range(-30, 31):
                assert aut_weight_sum(m, n) == aut_weight_sum_labels(m, n)

    def test_matches_label_loop_on_random_classes(self):
        rng = random.Random(12)
        for _ in range(300):
            g = rng.choice(WEIGHT_GCDS)
            # |m| = g keeps the label loop short, and gcd(m, g t) = g.
            m, n = g * rng.choice((-1, 1)), g * rng.randint(-6, 6)
            assert aut_weight_sum(m, n) == aut_weight_sum_labels(m, n)

    def test_label_count_per_divisor_pair(self):
        # The labels (k, l) of d with f | (m k + n l) / d number
        # |m| gcd(f, g/d) / f, the count aut_weight_sum sums.
        for m in [v for v in range(-12, 13) if v]:
            for n in range(-12, 13):
                g = math.gcd(m, n)
                for d in divisors(g):
                    for f in divisors(g):
                        box = sum(1 for k in range(1, d + 1)
                                  for ell in range(1, abs(m) // d + 1)
                                  if (m * k + n * ell) // d % f == 0)
                        assert box == abs(m) * math.gcd(f, g // d) // f

    def test_moebius_weights_sum_to_reciprocals(self):
        # g w(f) summed over f | x is g / x for every x | g.
        for g in WEIGHT_GCDS + (2 ** 61 - 1, 10 ** 12):
            weights = _moebius_weights(g)
            assert sorted(f for f, _ in weights) == list(divisors(g))
            for x in divisors(g):
                assert sum(gw for f, gw in weights if x % f == 0) == g // x

    def test_does_not_use_sigma(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("aut_weight_sum must not call sigma")

        monkeypatch.setattr(arith, "sigma", refuse)
        monkeypatch.setattr(arith, "aut_weight_total_closed", refuse)
        arith._weight_terms.cache_clear()
        assert aut_weight_sum(720, 1080) == aut_weight_sum_labels(720, 1080)

    def test_identity_sweep(self):
        for m in range(1, 61):
            for n in range(0, 61):
                assert aut_weight_sum(m, n) == aut_weight_sum_closed(m, n)

    def test_sign_symmetry(self):
        rng = random.Random(11)
        for _ in range(120):
            m = rng.choice([v for v in range(-50, 51) if v])
            n = rng.randint(-50, 50)
            base = aut_weight_sum(m, n)
            assert aut_weight_sum(-m, n) == base
            assert aut_weight_sum(m, -n) == base

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            aut_weight_sum(0, 3)
        with pytest.raises(ValueError):
            aut_weight_sum_closed(0, 3)


class TestWeightTotal:
    """The integer totals g times each side of the weight-sum identity."""

    def test_matches_label_loop(self):
        for m in [v for v in range(-30, 31) if v]:
            for n in range(-30, 31):
                g = math.gcd(m, n)
                assert (aut_weight_total(m, n)
                        == g * aut_weight_sum_labels(m, n))

    def test_closed_matches_fraction(self):
        for m in [v for v in range(-40, 41) if v]:
            for n in range(-40, 41):
                total = aut_weight_total_closed(m, n)
                assert type(total) is int
                assert total == math.gcd(m, n) * aut_weight_sum_closed(m, n)

    def test_rejects_zero_m(self):
        for total in (aut_weight_total, aut_weight_total_closed):
            with pytest.raises(ValueError, match="m must be nonzero"):
                total(0, 3)


class TestWeightSumCache:
    """`aut_weight_sum` caches what depends on gcd(m, n) alone, in a
    bounded cache that no refused class fills."""

    def test_cold_and_warm_match_labels(self):
        for m in [v for v in range(-30, 31) if v]:
            for n in range(-30, 31):
                expected = aut_weight_sum_labels(m, n)
                arith._weight_terms.cache_clear()
                assert aut_weight_sum(m, n) == expected
                assert arith._weight_terms.cache_info().currsize == 1
                assert aut_weight_sum(m, n) == expected
                assert arith._weight_terms.cache_info().hits == 1

    def test_cache_is_bounded(self):
        maxsize = arith._weight_terms.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256
        arith._weight_terms.cache_clear()
        for g in range(1, 2 * maxsize + 2):
            assert aut_weight_sum(g, 0) == aut_weight_sum_closed(g, 0)
        assert arith._weight_terms.cache_info().currsize == maxsize

    def test_enumeration_refusal_leaves_cache_empty(self):
        # 963761198400 has 6720 divisors: 45158400 pairs, over the budget.
        g = 963761198400
        arith._weight_terms.cache_clear()
        with pytest.raises(ValueError, match="enumeration budget"):
            gw_enumerated(HomologyClass(g, g, 0, 0))
        assert arith._weight_terms.cache_info().currsize == 0


class TestCesaro:
    def test_examples(self):
        tally = gcd_tally(6)
        assert cesaro_check(lambda v: v, 4, tally) == (12, 12, True)
        assert cesaro_check(lambda v: v, 1, tally) == (1, 1, True)
        assert cesaro_check(lambda v: v * v, 6, tally) == (72, 72, True)

    def test_sweep_three_functions(self):
        funcs = (lambda v: 1, lambda v: v, lambda v: v * v)
        tally = gcd_tally(400)
        for f in funcs:
            for n in range(1, 401):
                assert cesaro_check(f, n, tally).equal

    def test_matches_nested_loop(self):
        funcs = (lambda v: 1, lambda v: v, lambda v: v * v, lambda v: v % 3)
        tally = gcd_tally(60)
        for f in funcs:
            for n in range(1, 61):
                assert cesaro_check(f, n, tally) == cesaro_nested(f, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cesaro_check(lambda v: v, 0, gcd_tally(1))

    def test_tally_counts_each_gcd(self):
        # Each d's pairs (v, c) are its gcd values, each counted once per i.
        tally = gcd_tally(60)
        assert tally[0] == ()
        assert tally[6] == ((1, 2), (2, 2), (3, 1), (6, 1))
        for d in range(1, 61):
            counts = {}
            for i in range(1, d + 1):
                v = math.gcd(i, d)
                counts[v] = counts.get(v, 0) + 1
            assert dict(tally[d]) == counts
            assert len(tally[d]) == len(counts)

    def test_tally_matches_direct_count(self):
        # The three functions of the verify sweep, at every n it can reach,
        # against the left side with each gcd taken on its own.
        tally = gcd_tally(IDENTITIES_MAX)
        assert len(tally) == IDENTITIES_MAX + 1
        for f in (lambda v: 1, lambda v: v, lambda v: v * v):
            for n in range(1, IDENTITIES_MAX + 1):
                assert cesaro_check(f, n, tally) == cesaro_nested(f, n)

    def test_tally_count_reaches_lhs(self):
        # One i too many with gcd(i, 6) = 2 adds f(2) to the left side of
        # each multiple of 6, and nothing to the right side.
        tally = gcd_tally(12)
        tally[6] = ((1, 2), (2, 3), (3, 1), (6, 1))
        for n, off in [(5, False), (6, True), (12, True)]:
            lhs, rhs, equal = cesaro_check(lambda v: v * v, n, tally)
            assert (lhs - rhs, equal) == ((4, False) if off else (0, True))

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ktgw import gwcount
from ktgw.arith import divisors, sigma
from ktgw.gwcount import (
    aut_size_smith,
    component_count,
    component_eval_class,
    gw_closed_form,
    gw_enumerated,
    moduli_divisors,
)
from ktgw.homs import HomDerivs, normalize_class
from ktgw.nilalg import H3_ZERO, H3Class, HomologyClass, h2_pushforward
from oracles import (
    LieAlgElem,
    adjugate,
    aut_weight_sum,
    aut_weight_sum_closed,
    fraction,
    from_rows,
    fully_reduce,
    h3,
    h3_pushforward,
    h3_scale,
    hom_from_lie,
    in_lowest_terms,
    label_component,
    lie,
    random_plucker_class,
    random_word,
    raw_representative,
    smith_diagonal,
    smith_matrix_rows,
    walk_components,
    word_matrix,
)


class TestAutSizeFormula:
    def test_examples(self):
        assert label_component(2, 0, 2, 1, 1).aut_size == 1
        assert label_component(2, 0, 2, 2, 1).aut_size == 2
        assert label_component(1, 1, 1, 1, 1).aut_size == 1

    def test_rejects_bad_divisor(self):
        # The range checks of the oracle that builds single labels.
        with pytest.raises(ValueError):
            label_component(2, 0, 3, 1, 1)
        with pytest.raises(ValueError):
            label_component(0, 2, 1, 1, 1)

    def test_positive_and_divides_gcd(self):
        for m in [v for v in range(-8, 9) if v]:
            for n in range(-8, 9):
                g = math.gcd(m, n)
                for comp in walk_components(m, n):
                    aut = comp.aut_size
                    assert aut >= 1 and g % aut == 0


class TestAutSizeSmith:
    def test_simple_component(self):
        entry = walk_components(1, 0)[0]
        assert aut_size_smith(entry.hom) == 1

    def test_two_zero_component(self):
        entries = walk_components(2, 0)
        by_label = {(e.d, e.k, e.ell): e for e in entries}
        assert aut_size_smith(by_label[(2, 2, 1)].hom) == 2
        assert aut_size_smith(by_label[(2, 1, 1)].hom) == 1

    def test_matches_formula_on_sum_representatives(self):
        for m in [v for v in range(-6, 7) if v]:
            for n in range(-6, 7):
                for entry in walk_components(m, n):
                    assert aut_size_smith(entry.hom) == entry.aut_size

    def test_matches_elementary_divisor_product(self):
        rng = random.Random(41)
        pool = []
        for m, n in [(2, 2), (4, 2), (6, 4), (-3, 3), (5, 0), (6, -6)]:
            pool.extend(e.hom for e in walk_components(m, n))
        for hom in rng.sample(pool, 40):
            diag = smith_diagonal(smith_matrix_rows(hom))
            assert diag[0] * diag[1] == aut_size_smith(hom)

    def test_rejects_non_reduced(self):
        # dp h4 + dp h1 dp h2 / 2 = 1/2: refused before aut_size_smith.
        with pytest.raises(ValueError,
                           match="not a lattice-compatible homomorphism"):
            from_rows([(1, 0), (1, 0), (0, 1), (0, 0)])
        # A lattice-compatible homomorphism with dp h1 = dp h2 = 1.
        bad = from_rows([(1, 0), (1, 0), (0, 1), (Fraction(1, 2), 0)])
        with pytest.raises(ValueError, match="must be reduced"):
            aut_size_smith(bad)

    def test_rejects_degenerate(self):
        # Reduced homomorphisms whose lattice index is undefined: dq h1 = 0,
        # or an image of rank below two, where every 2x2 minor vanishes.
        with pytest.raises(ValueError, match="dq h1 must be nonzero"):
            aut_size_smith(HomDerivs((0, 0, 1, 0), (0, 0, 0, 0)))
        with pytest.raises(ValueError, match="image has rank below two"):
            aut_size_smith(HomDerivs((0, 0, 0, 0), (1, 1, 0, 0)))

    def test_rejects_non_lattice(self):
        # Non-integral rows are refused when the homomorphism is built, so
        # aut_size_smith never sees one.
        half = Fraction(1, 2)
        closed = LieAlgElem(-1, -1, 0, half)
        for dp, dq in [(LieAlgElem(0, 0, 3 * half, 1), closed),
                       (LieAlgElem(0, 0, 2, Fraction(1, 3)), closed),
                       (LieAlgElem(0, 0, 2, 1),
                        LieAlgElem(-half, -half, 0, Fraction(1, 8)))]:
            with pytest.raises(ValueError,
                               match="not a lattice-compatible homomorphism"):
                hom_from_lie(dp, dq)


class TestComponentEvalClass:
    def test_examples(self):
        assert component_eval_class(1, 0) == H3Class(1, 1, 0)
        assert component_eval_class(2, 0) == H3Class(2, 2, 0)
        assert component_eval_class(2, 2) == H3Class(4, 4, 0)

    def test_sign_follows_m(self):
        assert component_eval_class(-2, 2) == H3Class(-4, -4, 0)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            component_eval_class(0, 1)


class TestModuliComponents:
    def test_component_count(self):
        for m in [v for v in range(-8, 9) if v]:
            for n in range(-8, 9):
                comps = walk_components(m, n)
                assert len(comps) == abs(m) * sigma(0, math.gcd(m, n))
                assert component_count(m, n) == len(comps)

    def test_aut_size_is_lattice_index_of_listed_hom(self):
        for m in [v for v in range(-8, 9) if v]:
            for n in range(-8, 9):
                for comp in walk_components(m, n):
                    assert comp.aut_size == aut_size_smith(comp.hom), \
                        (m, n, comp.d, comp.k, comp.ell)

    def test_weight_total_both_ways(self):
        # The Smith indices check the fused sum that `gw_enumerated` scales
        # by.
        for m in [v for v in range(-6, 7) if v]:
            for n in range(-6, 7):
                comps = walk_components(m, n)
                labelled = sum(Fraction(1, c.aut_size) for c in comps)
                intrinsic = sum(Fraction(1, aut_size_smith(c.hom))
                                for c in comps)
                assert labelled == aut_weight_sum(m, n)
                assert intrinsic == aut_weight_sum(m, n)
                assert labelled == aut_weight_sum_closed(m, n)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError, match="moduli with m = 0 are "
                                             "obstructed"):
            walk_components(0, 1)

    def test_moduli_budget(self, monkeypatch):
        # [2, 2, 0, 0] has 4 components, [3, 3, 0, 0] has 6; the refusal
        # comes before any homomorphism is built.
        monkeypatch.setattr(gwcount, "MODULI_BUDGET", 4)
        assert len(walk_components(2, 0)) == 4

        def refuse(*args):
            raise AssertionError("over-budget moduli must build nothing")

        # The walk builds every label through _label.
        monkeypatch.setattr(gwcount, "_label", refuse)
        with pytest.raises(AssertionError, match="must build nothing"):
            moduli_divisors(2, 0)
        with pytest.raises(ValueError, match="moduli budget"):
            moduli_divisors(3, 0)

    @pytest.mark.parametrize("classes", [
        [(m, n) for m in range(-30, 31) if m for n in range(-30, 31)],
        [(360, 360), (-360, 0), (9973, 1)],
    ])
    def test_listing_matches_checked_labels(self, classes):
        # The walk lists each label once, in (d, l, k) order.  Each label's
        # hom has the Lie columns of the torus it counts, dq h3 = l and
        # dq h4 = k - d/2; at l = |m|/d, those of its reparametrisation
        # q -> q - p, with dq h4 up to the multiples of d that lattice
        # conjugation adds.  Its |Aut| is the product of the Smith
        # diagonal, and its shared dp, dq h1 and its dq h3, dq h4 are those
        # of its hom.  The first and last label of each divisor of the
        # classes past |m| = 30 also go through `fully_reduce`, whose
        # Fraction arithmetic is too slow for every label; test_homs takes
        # every label of |m|, |n| <= 8 through it.
        for m, n in classes:
            walk = moduli_divisors(m, n)
            assert [(d, ell, k) for d, _, _, labels in walk
                    for k, ell, *_ in labels] == [
                (d, ell, k) for d in divisors(math.gcd(m, n))
                for ell in range(1, abs(m) // d + 1)
                for k in range(1, d + 1)], (m, n)
            sgn = 1 if m > 0 else -1
            for d, dp, a, labels in walk:
                span = abs(m) // d
                raw_dp = (0, 0, span, Fraction(-n, sgn * d))
                for k, ell, q3, z, aut_size, hom in labels:
                    where = (m, n, d, k, ell)
                    assert (hom.dp, hom.dq) == (dp, (a, a, q3, z)), where
                    raw_dq = (-sgn * d, -sgn * d, ell, Fraction(2 * k - d, 2))
                    if ell == span:
                        raw_dq = tuple(x - y for x, y in zip(raw_dq, raw_dp))
                    lie_dp, lie_dq = lie(hom)
                    assert (lie_dp, lie_dq[:3]) == (raw_dp, raw_dq[:3]), where
                    assert (lie_dq[3] - raw_dq[3]) % d == 0, where
                    diag = smith_diagonal(smith_matrix_rows(hom))
                    assert diag[0] * diag[1] == aut_size, where
                if abs(m) <= 30:
                    continue
                for k, ell, _, _, _, hom in (labels[0], labels[-1]):
                    _, red = fully_reduce(raw_representative(m, n, d, k,
                                                             ell))
                    assert (red.dp, red.dq[:3]) == (hom.dp, hom.dq[:3])
                    assert (red.dq[3] - hom.dq[3]) % d == 0


class TestClosedForm:
    def test_examples(self):
        assert gw_closed_form(HomologyClass(1, 1, 0, 0)).gw == H3Class(1, 1, 0)
        assert gw_closed_form(HomologyClass(2, 2, 2, 2)).gw == \
            H3Class(10, 10, 0)
        assert gw_closed_form(HomologyClass(0, 0, 1, 0)).gw == H3_ZERO

    def test_rejects_plucker_violation(self):
        with pytest.raises(ValueError):
            gw_closed_form(HomologyClass(1, 0, 0, 1))

    def test_integer_valued(self):
        rng = random.Random(42)
        for _ in range(300):
            A = random_plucker_class(rng)
            gw = gw_closed_form(A).gw
            assert all(v.denominator == 1 for v in gw.coords())

    @given(p=st.integers(-2 ** 200, 2 ** 200), k=st.integers(1, 720),
           s=st.integers(-60, 60), t=st.integers(-60, 60))
    def test_matches_fraction_arithmetic(self, p, k, s, t):
        # [s p, s q, t p, t q] meets the Plücker relation; q = p + k keeps
        # gcd(p, q) a divisor of k, so gcd(m, n) factors at once.
        q = p + k
        A = HomologyClass(s * p, s * q, t * p, t * q)
        r = gw_closed_form(A)
        assume(r.m != 0)
        g = math.gcd(r.m, r.n)
        coeff = Fraction((r.m ** 2 + r.n ** 2) * sigma(2, g), g ** 3)
        assert tuple(map(fraction, r.gw.coords())) == (coeff * A.a13,
                                                       coeff * A.a23, 0)
        assert all(map(in_lowest_terms, r.gw.coords()))


class TestEnumerated:
    def test_examples(self):
        assert gw_enumerated(HomologyClass(2, 2, 0, 0)).gw == H3Class(5, 5, 0)
        assert gw_enumerated(HomologyClass(1, 1, 0, 0)).gw == H3Class(1, 1, 0)
        result = gw_enumerated(HomologyClass(2, 4, 1, 2))
        assert result.gw == H3Class(10, 20, 0)
        assert result.gw == gw_closed_form(HomologyClass(2, 4, 1, 2)).gw

    def test_zero_cases(self):
        for A in (HomologyClass(0, 0, 3, 0), HomologyClass(0, 0, 0, 0),
                  HomologyClass(0, 0, -2, -2)):
            assert gw_enumerated(A).gw == H3_ZERO
            assert gw_closed_form(A).gw == H3_ZERO

    def test_matches_closed_form_on_diagonal_classes(self):
        for m in [v for v in range(-6, 7) if v]:
            for n in range(-6, 7):
                A = HomologyClass(m, m, n, n)
                assert gw_enumerated(A).gw == gw_closed_form(A).gw

    def test_matches_closed_form_on_random_classes(self):
        rng = random.Random(43)
        for _ in range(200):
            A = random_plucker_class(rng)
            assert gw_enumerated(A).gw == gw_closed_form(A).gw

    def test_rejects_plucker_violation(self):
        with pytest.raises(ValueError):
            gw_enumerated(HomologyClass(2, 0, 0, 3))

    def test_builds_no_representatives(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("gw_enumerated must not build components")

        monkeypatch.setattr(gwcount, "_label", refuse)
        assert gw_enumerated(HomologyClass(6, 6, 4, 4)).gw == \
            gw_closed_form(HomologyClass(6, 6, 4, 4)).gw

    def test_component_budget(self, monkeypatch):
        # [2, 2, 0, 0] has sigma_0(2)^2 = 4 divisor pairs, [6, 6, 0, 0] 16.
        monkeypatch.setattr(gwcount, "ENUMERATION_BUDGET", 4)
        assert gw_enumerated(HomologyClass(2, 2, 0, 0)).gw == H3Class(5, 5, 0)
        with pytest.raises(ValueError, match="budget"):
            gw_enumerated(HomologyClass(6, 6, 0, 0))
        assert gw_enumerated(HomologyClass(0, 0, 5, 5)).gw == H3_ZERO

    def test_gcd_bits_limit_before_factoring(self, monkeypatch):
        # gcd(7, 0) has 3 bits and gcd(8, 0) has 4.
        monkeypatch.setattr(gwcount, "ENUMERATION_GCD_BITS", 3)
        assert gw_enumerated(HomologyClass(7, 7, 0, 0)).gw == \
            gw_closed_form(HomologyClass(7, 7, 0, 0)).gw

        def refuse(k, n):
            raise AssertionError("an oversized gcd must not be factored")

        monkeypatch.setattr(gwcount, "sigma", refuse)
        with pytest.raises(ValueError, match="enumeration limit of 3"):
            gw_enumerated(HomologyClass(8, 8, 0, 0))


def large_class(rng, bits=70):
    """[s p, s q, t p, t q] with coprime p, q of up to `bits` bits, whose
    g = gcd(s, t) is a product of primes below 20 times a small cofactor."""
    p, q = rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits)
    g = math.gcd(p, q) or 1
    g0 = math.prod(rng.choice((2, 3, 5, 7, 11, 13, 17, 19))
                   for _ in range(rng.randint(0, 8)))
    s = g0 * rng.choice((-1, 1)) * rng.randint(1, 1000)
    t = g0 * rng.randint(-1000, 1000)
    return HomologyClass(s * p // g, s * q // g, t * p // g, t * q // g)


def invariants_examples(rng):
    """Plücker classes with entries up to 10^12: random ones, ones with
    a13 = 0, ones with m = 0, the zero class, and the CI step's class for
    each branch."""
    span = 10 ** 6
    for _ in range(400):
        p, q, s, t = (rng.randint(-span, span) for _ in range(4))
        yield HomologyClass(s * p, s * q, t * p, t * q)
        yield HomologyClass(0, s * q, 0, t * q)
        yield HomologyClass(0, 0, t * p, t * q)
    for A in [(0, 0, 0, 0), (0, 0, 6, -4), (0, 5, 0, -15), (-6, 4, 9, -6),
              (0, -7, 0, 0), (10 ** 12, 0, -10 ** 12, 0)]:
        yield HomologyClass(*A)


class TestClosedInvariants:
    """The closed route reads (m, n) from the class itself; the matrix of
    `normalize_class` is the reference."""

    def test_matches_normalize_class(self):
        rng = random.Random(46)
        seen = {"random": 0, "a13 = 0": 0, "m = 0": 0}
        for A in invariants_examples(rng):
            _, norm = normalize_class(A)
            result = gw_closed_form(A)
            assert (result.m, result.n) == (norm.a13, norm.a14), A
            if (A.a13, A.a23) == (0, 0):
                seen["m = 0"] += 1
            else:
                seen["a13 = 0" if A.a13 == 0 else "random"] += 1
        assert min(seen.values()) >= 300

    def test_plucker_refusal_first(self, monkeypatch):
        def refuse(k, n):
            raise AssertionError("a refused class must not be factored")

        monkeypatch.setattr(gwcount, "sigma", refuse)
        for A in [(1, 0, 0, 1), (2, 4, 1, 3), (0, 1, 1, 0)]:
            with pytest.raises(ValueError, match=r"^class not representable "
                                                 r"by tori \(Plücker\)$"):
                gw_closed_form(HomologyClass(*A))


def oracle_chain(A):
    """`gw_enumerated`'s invariant as the chain of one class per step:
    the evaluation class scaled by the weight sum, pushed along the adjugate
    of the normalizing matrix."""
    M, norm = normalize_class(A)
    m, n = norm.a13, norm.a14
    if m == 0:
        return H3_ZERO
    total = h3_scale(component_eval_class(m, n), aut_weight_sum(m, n))
    return h3_pushforward(adjugate(M), total)


class TestEnumeratedOracleChain:
    def test_small_classes(self):
        rng = random.Random(47)
        for m in range(-30, 31):
            for n in range(-30, 31):
                M = word_matrix(random_word(rng))
                A = h2_pushforward(M, HomologyClass(m, m, n, n))
                result = gw_enumerated(A)
                assert result.gw == oracle_chain(A), (m, n, A)
                assert all(map(in_lowest_terms, result.gw.coords()))

    def test_random_large_classes(self):
        rng = random.Random(48)
        for _ in range(300):
            A = large_class(rng)
            result = gw_enumerated(A)
            _, norm = normalize_class(A)
            assert (result.m, result.n) == (norm.a13, norm.a14)
            assert result.gw == oracle_chain(A), A
            assert all(map(in_lowest_terms, result.gw.coords()))


class TestEquivariance:
    def test_closed_form_commutes_with_pushforward(self):
        rng = random.Random(44)
        for _ in range(100):
            A = random_plucker_class(rng)
            M = word_matrix(random_word(rng))
            lhs = gw_closed_form(h2_pushforward(M, A)).gw
            rhs = h3_pushforward(M, gw_closed_form(A).gw)
            assert lhs == rhs

    def test_enumerated_commutes_with_pushforward(self):
        rng = random.Random(45)
        for _ in range(40):
            A = random_plucker_class(rng)
            M = word_matrix(random_word(rng))
            lhs = gw_enumerated(h2_pushforward(M, A)).gw
            rhs = h3_pushforward(M, gw_enumerated(A).gw)
            assert lhs == rhs


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# Just above 10^6, so trial division splits a product of two of them fast.
MEDIUM_PRIMES = (1000003, 1000033, 1000037, 1000039)
LARGE_PRIME = 2 ** 61 - 1


class TestClosedFormKnownFactorization:
    """The closed form on classes whose g is built from chosen primes, against
    the formula evaluated from that known factorization."""

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(SMALL_PRIMES), max_size=5),
           st.lists(st.sampled_from(MEDIUM_PRIMES), max_size=2),
           st.booleans(),
           st.integers(-40, 40), st.integers(-40, 40),
           st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
    def test_matches_factorization_oracle(self, small, medium, large, s1, t1,
                                          p, q):
        assume(s1 != 0 and math.gcd(s1, t1) == 1 and math.gcd(p, q) == 1)
        primes = small + medium + ([LARGE_PRIME] if large else [])
        g = math.prod(primes)
        sigma2 = 1
        for prime in set(primes):
            e = primes.count(prime)
            sigma2 *= (prime ** (2 * (e + 1)) - 1) // (prime ** 2 - 1)
        s, t = g * s1, g * t1
        A = HomologyClass(s * p, s * q, t * p, t * q)
        result = gw_closed_form(A)
        assert result.m == abs(s)
        assert abs(result.n) == abs(t)
        coeff = Fraction((s * s + t * t) * sigma2, g ** 3)
        assert result.gw == h3(coeff * A.a13, coeff * A.a23, 0)

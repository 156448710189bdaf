import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ktgw import gwcount
from ktgw.arith import aut_weight_sum, aut_weight_sum_closed, sigma
from ktgw.gwcount import (
    aut_size_smith,
    component_count,
    component_eval_class,
    gw_closed_form,
    gw_enumerated,
    moduli_component,
    moduli_components,
)
from ktgw.nilalg import (
    H3_ZERO,
    H3Class,
    HomologyClass,
    h2_pushforward,
    h3_pushforward,
)
from oracles import (
    LieAlgElem,
    from_rows,
    hom_from_lie,
    random_plucker_class,
    random_word,
    smith_diagonal,
    smith_matrix_rows,
    word_matrix,
)


class TestAutSizeFormula:
    def test_examples(self):
        assert moduli_component(2, 0, 2, 1, 1).aut_size == 1
        assert moduli_component(2, 0, 2, 2, 1).aut_size == 2
        assert moduli_component(1, 1, 1, 1, 1).aut_size == 1

    def test_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            moduli_component(2, 0, 3, 1, 1)
        with pytest.raises(ValueError):
            moduli_component(0, 2, 1, 1, 1)

    def test_positive_and_divides_gcd(self):
        for m in [v for v in range(-8, 9) if v]:
            for n in range(-8, 9):
                g = math.gcd(m, n)
                for comp in moduli_components(m, n):
                    aut = comp.aut_size
                    assert aut >= 1 and g % aut == 0


class TestAutSizeSmith:
    def test_simple_component(self):
        entry = moduli_components(1, 0)[0]
        assert aut_size_smith(entry.hom) == 1

    def test_two_zero_component(self):
        entries = moduli_components(2, 0)
        by_label = {(e.d, e.k, e.ell): e for e in entries}
        assert aut_size_smith(by_label[(2, 2, 1)].hom) == 2
        assert aut_size_smith(by_label[(2, 1, 1)].hom) == 1

    def test_matches_formula_on_sum_representatives(self):
        for m in [v for v in range(-6, 7) if v]:
            for n in range(-6, 7):
                for entry in moduli_components(m, n):
                    assert aut_size_smith(entry.hom) == entry.aut_size

    def test_matches_elementary_divisor_product(self):
        rng = random.Random(41)
        pool = []
        for m, n in [(2, 2), (4, 2), (6, 4), (-3, 3), (5, 0), (6, -6)]:
            pool.extend(e.hom for e in moduli_components(m, n))
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
                comps = moduli_components(m, n)
                assert len(comps) == abs(m) * sigma(0, math.gcd(m, n))
                assert component_count(m, n) == len(comps)

    def test_aut_size_is_lattice_index_of_listed_hom(self):
        for m in [v for v in range(-8, 9) if v]:
            for n in range(-8, 9):
                for comp in moduli_components(m, n):
                    assert comp.aut_size == aut_size_smith(comp.hom), \
                        (m, n, comp.d, comp.k, comp.ell)

    def test_weight_total_both_ways(self):
        # The Smith indices check the fused sum that `gw_enumerated` scales
        # by.
        for m in [v for v in range(-6, 7) if v]:
            for n in range(-6, 7):
                comps = moduli_components(m, n)
                labelled = sum(Fraction(1, c.aut_size) for c in comps)
                intrinsic = sum(Fraction(1, aut_size_smith(c.hom))
                                for c in comps)
                assert labelled == aut_weight_sum(m, n)
                assert intrinsic == aut_weight_sum(m, n)
                assert labelled == aut_weight_sum_closed(m, n)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError, match="moduli with m = 0 are "
                                             "obstructed"):
            moduli_components(0, 1)

    def test_moduli_budget(self, monkeypatch):
        # [2, 2, 0, 0] has 4 components, [3, 3, 0, 0] has 6; the refusal
        # comes before any homomorphism is built.
        monkeypatch.setattr(gwcount, "MODULI_BUDGET", 4)
        assert len(moduli_components(2, 0)) == 4

        def refuse(m, n, d, k, ell):
            raise AssertionError("over-budget moduli must build nothing")

        monkeypatch.setattr(gwcount, "moduli_component", refuse)
        with pytest.raises(ValueError, match="moduli budget"):
            moduli_components(3, 0)


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
        def refuse(m, n, d, k, ell):
            raise AssertionError("gw_enumerated must not build components")

        monkeypatch.setattr(gwcount, "moduli_component", refuse)
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
        assert result.gw == H3Class(coeff * A.a13, coeff * A.a23, 0)

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktgw.arith import sigma
from ktgw.gwcount import moduli_component, moduli_components
from ktgw.homs import HomDerivs, homology_class, normalize_class, plucker_holds
from ktgw.nilalg import HomologyClass, h2_pushforward
from oracles import (
    adjugate,
    exp_oracle,
    from_rows,
    fully_reduce,
    lie_columns,
    random_plucker_class,
    random_sl2z,
    sl2z_act,
)

IDENTITY = ((1, 0), (0, 1))


def rows(*entries):
    return from_rows(entries)


REDUCED_110 = rows((0, -1), (0, -1), (1, 0), (0, Fraction(1, 2)))


NOT_LATTICE = "not a lattice-compatible homomorphism"


class TestValidate:
    """The `HomDerivs` constructor is the one lattice check."""

    def test_examples(self):
        assert REDUCED_110 == HomDerivs((0, 0, 1, 0), (-1, -1, 0, 1))
        with pytest.raises(ValueError, match=NOT_LATTICE):
            rows((1, 0), (0, 1), (0, 0), (0, 0))
        assert rows((0, 0), (0, 0), (0, 0), (0, 0)) == \
            HomDerivs((0, 0, 0, 0), (0, 0, 0, 0))

    def test_integrality_violations(self):
        with pytest.raises(ValueError, match=NOT_LATTICE):
            rows((0, Fraction(1, 3)), (0, 0), (0, 0), (0, 0))
        # dq h4 + dq h1 dq h2 / 2 = 1/2 here, not an integer.
        with pytest.raises(ValueError, match=NOT_LATTICE):
            rows((0, -1), (0, -1), (1, 0), (0, 0))

    def test_half_integer_fourth_row_allowed(self):
        h = rows((0, -1), (0, -1), (2, 1), (0, Fraction(3, 2)))
        assert h.dq == (-1, -1, 1, 2)
        assert h.lie[1] == (-1, -1, 1, Fraction(3, 2))

    def test_lie_is_cached_per_record(self):
        h = REDUCED_110
        assert h.lie is h.lie
        # replace builds a fresh record, so its Lie columns are its own.
        moved = dataclasses.replace(h, dq=(-1, -1, 1, 2))
        assert moved.lie == (h.lie[0], (-1, -1, 1, Fraction(3, 2)))
        assert h.lie[1] == (-1, -1, 0, Fraction(1, 2))

    def test_constructor_refuses_non_int_entries_and_shapes(self):
        good = (0, 0, 1, 0)
        for bad in [(0, 0, Fraction(1), 0), (0, 0, 1.0, 0), (0, 0, True, 0),
                    (0, 0, 1), (0, 0, 1, 0, 0), [0, 0, 1, 0]]:
            for dp, dq in [(bad, good), (good, bad)]:
                with pytest.raises(ValueError, match=NOT_LATTICE):
                    HomDerivs(dp, dq)

    def test_constructor_refuses_non_commuting_columns(self):
        with pytest.raises(ValueError, match=NOT_LATTICE):
            HomDerivs((1, 0, 0, 0), (0, 1, 0, 0))
        with pytest.raises(ValueError, match=NOT_LATTICE):
            HomDerivs((2, 3, 0, 0), (4, 5, 0, 0))
        assert HomDerivs((2, 3, 0, 0), (4, 6, 0, 0)).dq == (4, 6, 0, 0)

    def test_lie_view_matches_exp_oracle(self):
        # exp of each Lie column has the stored integers as coordinates
        # (y, x, log t, z).
        rng = random.Random(20)
        for _ in range(300):
            # Top blocks proportional to one (u, v), so the columns commute.
            u, v = rng.randint(-9, 9), rng.randint(-9, 9)
            h = HomDerivs(*((s * u, s * v, rng.randint(-50, 50),
                             rng.randint(-50, 50))
                            for s in (rng.randint(-5, 5), rng.randint(-5, 5))))
            for col, X in zip((h.dp, h.dq), lie_columns(h)):
                g = exp_oracle(X)
                assert (g.y, g.x, g.logt, g.z) == col


class TestHomologyClass:
    def test_examples(self):
        assert homology_class(REDUCED_110) == HomologyClass(1, 1, 0, 0)
        zero = rows((0, 0), (0, 0), (0, 0), (0, 0))
        assert homology_class(zero) == HomologyClass(0, 0, 0, 0)

    def test_enumerated_instances_are_diagonal(self):
        # n enters the normal form through dp h4 = -n / (sgn(m) d), which
        # pairs to a14 = a24 = -n; the n = 0 classes land on [m, m, 0, 0].
        for m, n in [(2, 2), (1, 1), (3, -3), (-2, 2), (4, 0)]:
            for entry in moduli_components(m, n):
                assert homology_class(entry.hom) == \
                    HomologyClass(m, m, -n, -n)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            homology_class(rows((1, 0), (0, 1), (0, 0), (0, 0)))

    def test_class_entries_are_integers_on_random_orbit(self):
        rng = random.Random(21)
        for entry in moduli_components(4, 2):
            for _ in range(20):
                moved = sl2z_act(entry.hom, random_sl2z(rng))
                A = homology_class(moved)
                assert all(isinstance(v, int) for v in A.coords())


class TestPlucker:
    def test_examples(self):
        assert plucker_holds(HomologyClass(1, 1, 0, 0))
        assert plucker_holds(HomologyClass(2, 4, 1, 2))
        assert not plucker_holds(HomologyClass(1, 0, 0, 1))

    def test_classes_of_homomorphisms_satisfy_plucker(self):
        rng = random.Random(22)
        for m, n in [(1, 0), (2, 2), (3, 1), (-2, 4)]:
            for entry in moduli_components(m, n):
                for _ in range(10):
                    moved = sl2z_act(entry.hom, random_sl2z(rng))
                    assert plucker_holds(homology_class(moved))


class TestSl2zAction:
    def test_identity(self):
        assert sl2z_act(REDUCED_110, IDENTITY) == REDUCED_110

    def test_class_invariance(self):
        rng = random.Random(23)
        for entry in moduli_components(6, 4):
            A = homology_class(entry.hom)
            for _ in range(15):
                phi = random_sl2z(rng)
                assert homology_class(sl2z_act(entry.hom, phi)) == A

    def test_preserves_validity(self):
        rng = random.Random(24)
        for entry in moduli_components(4, 2):
            for _ in range(15):
                # sl2z_act builds a HomDerivs, which refuses a non-lattice
                # result; the inverse matrix brings the original back.
                phi = random_sl2z(rng)
                moved = sl2z_act(entry.hom, phi)
                assert sl2z_act(moved, adjugate(phi)) == entry.hom

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            sl2z_act(REDUCED_110, ((1, 0), (0, -1)))
        with pytest.raises(ValueError):
            sl2z_act(REDUCED_110, ((2, 0), (0, 1)))


class TestFullyReduce:
    def test_fixed_point(self):
        phi, out = fully_reduce(REDUCED_110)
        assert phi == IDENTITY
        assert out == REDUCED_110

    def test_swapped_columns_recover_original(self):
        swap = ((0, 1), (-1, 0))
        scrambled = sl2z_act(REDUCED_110, swap)
        _, out = fully_reduce(scrambled)
        assert out == REDUCED_110

    def test_uniqueness_over_random_orbit(self):
        rng = random.Random(25)
        for m, n in [(1, 0), (2, 2), (-3, 3), (4, 2), (2, -4)]:
            for entry in moduli_components(m, n):
                for _ in range(12):
                    phi = random_sl2z(rng)
                    moved = sl2z_act(entry.hom, phi)
                    word, out = fully_reduce(moved)
                    assert out == entry.hom
                    assert sl2z_act(moved, word) == out

    def test_rejects_vanishing_first_invariant(self):
        h = rows((0, -1), (0, -1), (0, 0), (1, Fraction(1, 2)))
        assert homology_class(h) == HomologyClass(0, 0, 1, 1)
        with pytest.raises(ValueError):
            fully_reduce(h)

    def test_rejects_off_diagonal_class(self):
        h = rows((0, -1), (0, -2), (1, 0), (0, 1))
        with pytest.raises(ValueError):
            fully_reduce(h)


class TestEnumerate:
    def test_counts_and_labels(self):
        only = moduli_components(1, 0)
        assert len(only) == 1
        assert (only[0].d, only[0].k, only[0].ell) == (1, 1, 1)

        assert len(moduli_components(2, 0)) == 4

        entries = moduli_components(2, 2)
        assert [(e.d, e.ell, e.k) for e in entries] == \
            [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2)]

        # Every label once, in lexicographic (d, l, k) order.
        for m in [v for v in range(-6, 7) if v]:
            for n in range(-6, 7):
                labels = sorted(
                    (d, ell, k)
                    for d in range(1, abs(m) + 1) if math.gcd(m, n) % d == 0
                    for ell in range(1, abs(m) // d + 1)
                    for k in range(1, d + 1))
                assert [(e.d, e.ell, e.k)
                        for e in moduli_components(m, n)] == labels

    def test_count_formula(self):
        for m in [v for v in range(-9, 10) if v]:
            for n in range(-9, 10):
                entries = moduli_components(m, n)
                assert len(entries) == abs(m) * sigma(0, math.gcd(m, n))

    def test_entries_valid_and_fully_reduced(self):
        for m, n in [(3, 0), (2, 2), (-4, 2), (6, -4)]:
            for entry in moduli_components(m, n):
                h = entry.hom
                assert h.is_reduced()
                assert h.dp[2] > 0
                assert 0 <= h.dq[2] < h.dp[2]

    def test_entries_pairwise_distinct_tori(self):
        # Distinct components differ in (d, dq h3, dq h4 mod d).
        for m, n in [(4, 0), (2, 2), (6, 4), (-6, 6)]:
            seen = set()
            for entry in moduli_components(m, n):
                _, dq = entry.hom.lie
                key = (entry.d, dq[2], dq[3] % entry.d)
                assert key not in seen
                seen.add(key)

    def test_integrality_closure(self):
        for m, n in [(4, 2), (5, 5), (-3, 6)]:
            for entry in moduli_components(m, n):
                _, (a, b, _, h4) = entry.hom.lie
                assert h4 + Fraction(a * b, 2) == entry.hom.dq[3]
                assert type(entry.hom.dq[3]) is int


def raw_representative(m, n, d, k, ell):
    """The torus the label (d, k, l) counts, with dq h3 = l unreduced."""
    sgn = 1 if m > 0 else -1
    return rows((0, -sgn * d), (0, -sgn * d), (abs(m) // d, ell),
                (Fraction(-n, sgn * d), Fraction(2 * k - d, 2)))


class TestSumRepresentative:
    """`moduli_component`, the one representative of each summand label."""

    def test_matches_enumerated_away_from_wrap(self):
        for m, n in [(4, 2), (6, 4), (-6, 4)]:
            for entry in moduli_components(m, n):
                hom = moduli_component(m, n, entry.d, entry.k, entry.ell).hom
                assert hom == entry.hom
                if entry.ell < abs(m) // entry.d:
                    assert hom == raw_representative(
                        m, n, entry.d, entry.k, entry.ell)
                else:
                    assert hom.dq[2] == 0

    def test_wrap_is_fully_reduced_raw_representative(self):
        # At l = |m|/d the listed hom is the fully reduced form of the raw
        # torus, up to the lattice conjugation that moves dq h4 by d.
        wrapped = shifted = 0
        for m in [v for v in range(-8, 9) if v]:
            for n in range(-8, 9):
                for entry in moduli_components(m, n):
                    if entry.ell != abs(m) // entry.d:
                        continue
                    raw = raw_representative(m, n, entry.d, entry.k,
                                             entry.ell)
                    _, red = fully_reduce(raw)
                    assert red.dp == entry.hom.dp
                    assert red.dq[:3] == entry.hom.dq[:3]
                    assert red.dq[2] == 0
                    assert (red.dq[3] - entry.hom.dq[3]) % entry.d == 0
                    wrapped += 1
                    shifted += red.dq[3] != entry.hom.dq[3]
        assert wrapped > 0 and shifted > 0

    def test_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            moduli_component(4, 2, 3, 1, 1)
        with pytest.raises(ValueError):
            moduli_component(4, 2, 0, 1, 1)
        with pytest.raises(ValueError):
            moduli_component(0, 2, 1, 1, 1)

    def test_rejects_labels_out_of_range(self):
        # Each label is refused once, in the words of its first bad field.
        for d, k, ell, message in [
                (2, 0, 1, "k = 0 is outside 1..2"),
                (2, 3, 1, "k = 3 is outside 1..2"),
                (2, 1, 0, "l = 0 is outside 1..2"),
                (2, 1, 3, "l = 3 is outside 1..2"),
                (2, 2, -1, "l = -1 is outside 1..2"),
                (0, 1, 1, "0 does not divide gcd(4, 2)"),
                (-2, 1, 1, "-2 does not divide gcd(4, 2)"),
                (1, 5, 99, "k = 5 is outside 1..1")]:
            with pytest.raises(ValueError) as error:
                moduli_component(4, 2, d, k, ell)
            assert str(error.value) == message
        comp = moduli_component(4, 2, 2, 2, 2)
        assert comp.hom.dq[2] == 0
        assert comp.aut_size == 2


def normalized(A):
    """normalize_class(A), checked: M has determinant 1 and entries within
    2 max(|u|, |v|) / g, and moves A to the diagonal of its gcds."""
    M, out = normalize_class(A)
    (a, b), (c, d) = M
    assert a * d - b * c == 1
    assert h2_pushforward(M, A) == out
    assert out.a13 == out.a23 == math.gcd(A.a13, A.a23)
    assert out.a14 == out.a24
    assert abs(out.a14) == math.gcd(A.a14, A.a24)
    u, v = (A.a13, A.a23) if (A.a13, A.a23) != (0, 0) else (A.a14, A.a24)
    g = math.gcd(u, v)
    if g:
        assert max(abs(e) for e in (a, b, c, d)) <= 2 * max(abs(u), abs(v)) // g
    else:
        assert M == IDENTITY
    return M, out


class TestNormalizeClass:
    def test_already_normal(self):
        A = HomologyClass(1, 1, 0, 0)
        assert normalized(A)[1] == A

    def test_example_2412(self):
        _, out = normalized(HomologyClass(2, 4, 1, 2))
        assert out == HomologyClass(2, 2, 1, 1)

    def test_example_0100(self):
        _, out = normalized(HomologyClass(0, 1, 0, 0))
        assert out == HomologyClass(1, 1, 0, 0)

    def test_zero_class(self):
        M, out = normalized(HomologyClass(0, 0, 0, 0))
        assert M == IDENTITY
        assert out == HomologyClass(0, 0, 0, 0)

    def test_pure_second_pair(self):
        _, out = normalized(HomologyClass(0, 0, 2, 4))
        assert out == HomologyClass(0, 0, 2, 2)

    def test_rejects_plucker_violation(self):
        with pytest.raises(ValueError):
            normalize_class(HomologyClass(1, 0, 0, 1))

    def test_random_roundtrip(self):
        rng = random.Random(26)
        for _ in range(300):
            normalized(random_plucker_class(rng))


big_st = st.integers(-10 ** 15, 10 ** 15)


class TestNormalizeClassScale:
    """Structural size bounds on the normalizing matrix; no timing."""

    @given(big_st, big_st, big_st, big_st)
    def test_entries_up_to_1e30(self, s, t, p, q):
        normalized(HomologyClass(s * p, s * q, t * p, t * q))

    def test_fibonacci_columns(self):
        # Consecutive Fibonacci numbers need the most Euclid steps per bit.
        a, b = 1, 1
        while b < 10 ** 30:
            for A in (HomologyClass(b, a, 0, 0), HomologyClass(-a, b, 0, 0),
                      HomologyClass(0, 0, a, -b)):
                normalized(A)
            a, b = b, a + b

    def test_large_quotient(self):
        M, _ = normalized(HomologyClass(1, 10 ** 9, 0, 0))
        assert M == ((1, 0), (1 - 10 ** 9, 1))

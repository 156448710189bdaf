import enum
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktgw.gwcount import GWResult
from ktgw.homs import HomDerivs
from ktgw.nilalg import (
    H3_ZERO,
    H3Class,
    HomologyClass,
    Rational,
    _int,
    _rational,
    h2_pushforward,
    sl2z_entries,
)
from oracles import (
    GENERATORS,
    GroupElem,
    LieAlgElem,
    ModuliComponent,
    TorusSolution,
    adjugate,
    aut_apply,
    commutator_oracle,
    exp_oracle,
    fraction,
    from_rows,
    group_mul_oracle,
    h3,
    h3_pushforward,
    h3_scale,
    hom_from_lie,
    homology_class_of,
    in_lowest_terms,
    invert_word,
    lie_columns,
    lie_comb,
    random_group,
    random_lattice_group,
    random_lie,
    random_plucker_class,
    random_sl2z,
    random_word,
    replace,
    sl2z_act,
    word_matrix,
)

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)
# Fractions and ints with numerators and denominators up to 200 bits.
big_int_st = st.integers(-2 ** 200, 2 ** 200)
big_rat_st = st.one_of(big_int_st, st.builds(Fraction, big_int_st,
                                             st.integers(1, 2 ** 200)))
lie_st = st.builds(LieAlgElem, fractions_st, fractions_st, fractions_st,
                   fractions_st)
group_st = st.builds(GroupElem, fractions_st, fractions_st, fractions_st,
                     fractions_st)
token_st = st.sampled_from(GENERATORS)
int_st = st.integers(-10 ** 6, 10 ** 6)

S1 = ((0, -1), (1, 0))
S2 = ((1, 1), (0, 1))
IDENTITY_2X2 = ((1, 0), (0, 1))
REDUCED_110 = from_rows(((0, -1), (0, -1), (1, 0), (0, Fraction(1, 2))))

N1, N2, N3, N4 = (LieAlgElem(*(int(i == j) for j in range(4)))
                  for i in range(4))
ZERO = LieAlgElem(0, 0, 0, 0)
IDENTITY = GroupElem(0, 0, 0, 0)
HALF = Fraction(1, 2)


def in_lattice(g):
    """g lies in Gamma iff x, y, z and log t are all integers."""
    return all(v.denominator == 1 for v in g.coords())


def log_coords(g):
    """Inverse of exp: y n1 + x n2 + log t n3 + (z - x y / 2) n4."""
    return LieAlgElem(g.y, g.x, g.logt, g.z - g.x * g.y / 2)


def bch(X, Y):
    """X + Y + [X, Y]/2, with the bracket from the matrix commutator."""
    return lie_comb((1, X), (1, Y), (HALF, commutator_oracle(X, Y)))


class TestBracket:
    """The matrix commutator, pinned to the bracket the library writes."""

    def test_examples(self):
        assert commutator_oracle(N2, N1) == N4
        assert commutator_oracle(N1, N1) == ZERO
        rng = random.Random(0)
        for _ in range(20):
            assert commutator_oracle(N3, random_lie(rng)) == ZERO
            assert commutator_oracle(N4, random_lie(rng)) == ZERO

    def test_matches_matrix_commutator(self):
        # [X, Y] = (X2 Y1 - Y2 X1) n4, the form `oracles.log_coordinates`
        # and the residual of `geometry.label_solver` use for [h, C].
        rng = random.Random(1)
        for _ in range(1000):
            X, Y = random_lie(rng), random_lie(rng)
            assert commutator_oracle(X, Y) == \
                LieAlgElem(0, 0, 0, X.c2 * Y.c1 - Y.c2 * X.c1)

    def test_antisymmetry_and_bilinearity(self):
        rng = random.Random(2)
        for _ in range(200):
            X, Y, Z = (random_lie(rng) for _ in range(3))
            assert commutator_oracle(X, Y) == \
                lie_comb((-1, commutator_oracle(Y, X)))
            assert commutator_oracle(lie_comb((1, X), (1, Y)), Z) == \
                lie_comb((1, commutator_oracle(X, Z)),
                         (1, commutator_oracle(Y, Z)))

    def test_two_step_nilpotency(self):
        rng = random.Random(3)
        for _ in range(300):
            X, Y, Z = (random_lie(rng) for _ in range(3))
            assert commutator_oracle(X, commutator_oracle(Y, Z)) == ZERO
            assert commutator_oracle(commutator_oracle(X, Y), Z) == ZERO


class TestGroup:
    """The matrix product, pinned to the group law in coordinates."""

    def test_mul_examples(self):
        a = GroupElem(1, 0, 0, 0)
        b = GroupElem(0, 1, 0, 0)
        assert group_mul_oracle(a, b) == GroupElem(1, 1, 1, 0)
        assert group_mul_oracle(b, a) == GroupElem(1, 1, 0, 0)
        rng = random.Random(4)
        for _ in range(20):
            g = random_group(rng)
            assert group_mul_oracle(IDENTITY, g) == g
            assert group_mul_oracle(g, IDENTITY) == g

    def test_mul_matches_matrix_product(self):
        # (x, y, z, s)(x', y', z', s') = (x + x', y + y', z + z' + x y', s + s')
        rng = random.Random(5)
        for _ in range(1000):
            a, b = random_group(rng), random_group(rng)
            assert group_mul_oracle(a, b) == GroupElem(
                a.x + b.x, a.y + b.y, a.z + b.z + a.x * b.y, a.logt + b.logt)

    def test_associativity_and_inverse(self):
        rng = random.Random(6)
        for _ in range(200):
            a, b, c = (random_group(rng) for _ in range(3))
            assert group_mul_oracle(group_mul_oracle(a, b), c) == \
                group_mul_oracle(a, group_mul_oracle(b, c))
            inv = GroupElem(-a.x, -a.y, -a.z + a.x * a.y, -a.logt)
            assert group_mul_oracle(a, inv) == IDENTITY
            assert group_mul_oracle(inv, a) == IDENTITY


class TestExpLog:
    """The matrix exponential and its inverse in coordinates."""

    def test_exp_examples(self):
        assert exp_oracle(ZERO) == IDENTITY
        assert exp_oracle(lie_comb((1, N1), (1, N2))) == \
            GroupElem(1, 1, Fraction(1, 2), 0)
        assert exp_oracle(N4) == GroupElem(0, 0, 1, 0)

    def test_log_examples(self):
        for g, X in [(IDENTITY, ZERO),
                     (GroupElem(1, 1, Fraction(1, 2), 0),
                      lie_comb((1, N1), (1, N2))),
                     (GroupElem(0, 0, 1, 0), N4),
                     (GroupElem(3, 2, 0, 5), LieAlgElem(2, 3, 5, -3))]:
            assert log_coords(g) == X
            assert exp_oracle(X) == g

    def test_exp_matches_matrix_exponential(self):
        rng = random.Random(7)
        for _ in range(500):
            X = random_lie(rng)
            assert exp_oracle(X) == \
                GroupElem(X.c2, X.c1, X.c4 + X.c1 * X.c2 / 2, X.c3)

    @given(lie_st)
    def test_log_exp_roundtrip(self, X):
        # exp(X) exp(-X) = 1: the inverse is exp of the negated element.
        neg = lie_comb((-1, X))
        assert group_mul_oracle(exp_oracle(X), exp_oracle(neg)) == IDENTITY
        assert group_mul_oracle(exp_oracle(neg), exp_oracle(X)) == IDENTITY

    def test_exp_log_roundtrip_random(self):
        rng = random.Random(8)
        for _ in range(1000):
            g = random_group(rng)
            assert exp_oracle(log_coords(g)) == g


class TestBch:
    """exp(X) exp(Y) = exp(X + Y + [X, Y]/2) on the matrix oracles."""

    def test_examples(self):
        assert bch(N1, N2) == lie_comb((1, N1), (1, N2), (-HALF, N4))
        assert group_mul_oracle(exp_oracle(N1), exp_oracle(N2)) == \
            exp_oracle(lie_comb((1, N1), (1, N2), (-HALF, N4)))
        rng = random.Random(9)
        for _ in range(20):
            X = random_lie(rng)
            assert bch(X, ZERO) == X
        assert bch(N3, N4) == lie_comb((1, N3), (1, N4))

    @given(lie_st, lie_st)
    def test_exp_homomorphism(self, X, Y):
        assert exp_oracle(bch(X, Y)) == \
            group_mul_oracle(exp_oracle(X), exp_oracle(Y))


def converts(dp, dq):
    """True iff `hom_from_lie` builds a homomorphism from dp and dq."""
    try:
        hom_from_lie(dp, dq)
    except ValueError as exc:
        assert str(exc) == "not a lattice-compatible homomorphism"
        return False
    return True


class TestLattice:
    """`hom_from_lie`, through the `HomDerivs` constructor, accepts exactly
    the commuting pairs whose columns exponentiate into the lattice."""

    def test_examples(self):
        assert in_lattice(GroupElem(1, 1, 1, 0))
        assert not in_lattice(GroupElem(Fraction(1, 2), 0, 0, 0))
        assert in_lattice(GroupElem(0, 0, 0, 3))
        assert in_lattice(exp_oracle(lie_columns(REDUCED_110)[1]))
        # dq h4 = 0 leaves exp(dq) at z = 1/2, outside the lattice.
        bad_dq = LieAlgElem(-1, -1, 0, 0)
        assert not converts(LieAlgElem(0, 0, 1, 0), bad_dq)
        assert not in_lattice(exp_oracle(bad_dq))
        rng = random.Random(30)
        accepted = 0
        for _ in range(500):
            dp, dq = random_lie(rng, 4, 2), random_lie(rng, 4, 2)
            if rng.random() < 0.5:
                dq = LieAlgElem(dp.c1, dp.c2, dq.c3, dq.c4)
            expected = (commutator_oracle(dp, dq) == ZERO
                        and in_lattice(exp_oracle(dp))
                        and in_lattice(exp_oracle(dq)))
            assert converts(dp, dq) == expected
            accepted += expected
        assert 0 < accepted < 500

    def test_lattice_closed_under_product(self):
        rng = random.Random(10)
        for _ in range(200):
            a = random_lattice_group(rng)
            b = random_lattice_group(rng)
            assert in_lattice(group_mul_oracle(a, b))
            inv = GroupElem(-a.x, -a.y, -a.z + a.x * a.y, -a.logt)
            assert group_mul_oracle(a, inv) == IDENTITY
            assert in_lattice(inv)


class TestAutomorphisms:
    def test_examples(self):
        assert aut_apply(["s1"], GroupElem(1, 0, 0, 0)) == GroupElem(0, 1, 0, 0)
        assert aut_apply(["s2"], GroupElem(0, 1, 0, 0)) == GroupElem(1, 1, 1, 0)
        rng = random.Random(11)
        for _ in range(20):
            g = random_group(rng)
            assert aut_apply([], g) == g

    def test_generator_inverses(self):
        rng = random.Random(12)
        for token in GENERATORS:
            word = (token,) + invert_word([token])
            for _ in range(50):
                g = random_group(rng)
                assert aut_apply(word, g) == g

    def test_word_inverse(self):
        rng = random.Random(13)
        for _ in range(200):
            w = random_word(rng)
            g = random_group(rng)
            assert aut_apply(w + invert_word(w), g) == g

    def test_group_homomorphism(self):
        rng = random.Random(14)
        for _ in range(300):
            w = random_word(rng)
            a, b = random_group(rng), random_group(rng)
            assert aut_apply(w, group_mul_oracle(a, b)) == group_mul_oracle(
                aut_apply(w, a), aut_apply(w, b))

    def test_preserves_lattice(self):
        rng = random.Random(15)
        for _ in range(300):
            w = random_word(rng)
            g = random_lattice_group(rng)
            assert in_lattice(aut_apply(w, g))

    def test_projection_compatibility(self):
        rng = random.Random(16)
        for _ in range(300):
            w = random_word(rng)
            g = random_group(rng)
            mat = word_matrix(w)
            out = aut_apply(w, g)
            assert out.x == mat[0][0] * g.x + mat[0][1] * g.y
            assert out.y == mat[1][0] * g.x + mat[1][1] * g.y
            A = random_plucker_class(rng)
            B = h2_pushforward(mat, A)
            assert (B.a13, B.a23) == (mat[0][0] * A.a13 + mat[0][1] * A.a23,
                                      mat[1][0] * A.a13 + mat[1][1] * A.a23)
            assert (B.a14, B.a24) == (mat[0][0] * A.a14 + mat[0][1] * A.a24,
                                      mat[1][0] * A.a14 + mat[1][1] * A.a24)

    def test_rejects_unknown_token(self):
        with pytest.raises(ValueError):
            aut_apply(["nope"], IDENTITY)


class TestH2Pushforward:
    def test_examples(self):
        assert h2_pushforward(S1, HomologyClass(1, 0, 0, 0)) == \
            HomologyClass(0, 1, 0, 0)
        assert h2_pushforward(S2, HomologyClass(0, 1, 0, 1)) == \
            HomologyClass(1, 1, 1, 1)
        A = HomologyClass(3, -2, 6, -4)
        assert h2_pushforward(IDENTITY_2X2, A) == A

    def test_preserves_plucker(self):
        rng = random.Random(17)
        for _ in range(300):
            A = random_plucker_class(rng)
            B = h2_pushforward(word_matrix(random_word(rng)), A)
            assert B.a13 * B.a24 == B.a14 * B.a23

    def test_word_inverse(self):
        rng = random.Random(18)
        for _ in range(200):
            A = random_plucker_class(rng)
            M = random_sl2z(rng)
            assert h2_pushforward(adjugate(M), h2_pushforward(M, A)) == A


class TestH3Pushforward:
    def test_examples(self):
        assert h3_pushforward(S1, H3Class(1, 0, 0)) == H3Class(0, 1, 0)
        C = H3Class(5, -7, 0)
        assert h3_pushforward(IDENTITY_2X2, C) == C
        assert h3_pushforward(S2, H3Class(1, 1, 0)) == H3Class(2, 1, 0)

    def test_rejects_nonzero_e124(self):
        with pytest.raises(ValueError):
            h3_pushforward(S1, H3Class(1, 0, 1))

    def test_matches_h2_matrix_action(self):
        rng = random.Random(19)
        for _ in range(200):
            mat = word_matrix(random_word(rng))
            e134 = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            e234 = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            out = h3_pushforward(mat, h3(e134, e234, 0))
            assert fraction(out.e134) == mat[0][0] * e134 + mat[0][1] * e234
            assert fraction(out.e234) == mat[1][0] * e134 + mat[1][1] * e234

    @given(st.lists(token_st, max_size=12), big_rat_st, big_rat_st)
    def test_matches_fraction_arithmetic(self, word, e134, e234):
        (a, b), (c, d) = mat = word_matrix(word)
        e134, e234 = Fraction(e134), Fraction(e234)
        out = h3_pushforward(mat, h3(e134, e234, 0))
        assert tuple(map(fraction, out.coords())) == (
            a * e134 + b * e234, c * e134 + d * e234, 0)
        assert all(map(in_lowest_terms, out.coords()))


class TestH3Scale:
    @given(big_rat_st, big_rat_st, big_rat_st, big_rat_st)
    def test_matches_fraction_arithmetic(self, r, e134, e234, e124):
        out = h3_scale(h3(e134, e234, e124), r)
        r = Fraction(r)
        assert tuple(map(fraction, out.coords())) == (r * e134, r * e234,
                                                      r * e124)
        assert all(map(in_lowest_terms, out.coords()))

    def test_refuses_non_rationals(self):
        with pytest.raises(TypeError, match="^expected int or Fraction, "
                                            "got float$"):
            h3_scale(H3Class(1, 2, 3), 0.5)


class One(enum.IntEnum):
    ONE = 1


class TestSl2zEntries:
    """The one check of a lattice automorphism, with its exact messages."""

    def test_accepts_sl2z(self):
        assert sl2z_entries(((2, 1), (-7, -3))) == (2, 1, -7, -3)

    @pytest.mark.parametrize("M", [
        ((1, 0), (0, True)), ((True, 0), (0, 1)), ((One.ONE, 0), (0, 1)),
        ((1, 0), (0, One.ONE)), ((1, Fraction(0)), (0, 1)),
        ((1, 0), (0, Fraction(1))), ((1.0, 0), (0, 1)), ((1, 0), (0, 1.0)),
        (([1], 0), (0, 1)), ((1, 0), (0, [1])), (("1", 0), (0, 1)),
        ((1, None), (0, 1)),
    ])
    def test_refuses_non_int_entries(self, M):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"matrix entries must be ints, got {M!r}") + "$"):
            sl2z_entries(M)

    @pytest.mark.parametrize("M", [
        ((1, 0),), ((1, 0, 0), (0, 1)), ((1, 0), (0, 1), (0, 0)),
        (1, 0, 0, 1), ((1,), (0, 1)), 5, None, "ab",
    ])
    def test_refuses_wrong_shapes(self, M):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"expected a 2x2 matrix, got {M!r}") + "$"):
            sl2z_entries(M)

    @pytest.mark.parametrize("M", [((1, 0), (0, -1)), ((2, 0), (0, 1)),
                                   ((0, 0), (0, 0))])
    def test_refuses_other_determinants(self, M):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"matrix must have determinant 1, got {M!r}") + "$"):
            sl2z_entries(M)


class TestCoercions:
    """`_int` and `_rational`, the coercions of the homology records.  An
    integral Fraction is an int only to the test helper `homology_class_of`."""

    def test_int(self):
        assert _int(One.ONE) is One.ONE and _int(True) is True
        for bad in [Fraction(4, 2), Rational(2), Fraction(1, 2), 1.0, "1",
                    None]:
            with pytest.raises(TypeError, match="^" + re.escape(
                    f"expected an integer, got {bad!r}") + "$"):
                _int(bad)
        a13 = homology_class_of(Fraction(4, 2), 0, 0, 0).a13
        assert type(a13) is int and a13 == 2

    def test_frac(self):
        half = Rational(1, 2)
        assert _rational(half) is half
        assert _rational(0) is _rational(False) is H3_ZERO.e134
        for value in [3, True, One.ONE]:
            out = _rational(value)
            assert type(out) is Rational and out == value
        for bad in [0.5, "1", None, [1], Fraction(1, 2)]:
            with pytest.raises(TypeError, match="^expected int or Rational, "
                               f"got {type(bad).__name__}$"):
                _rational(bad)


# Signed numerators, zero among them, and signed nonzero denominators, small
# enough to meet and up to 200 bits.
num_st = st.just(0) | st.integers(-6, 6) | big_int_st
den_st = (st.integers(-6, 6) | big_int_st).filter(bool)


class TestRational:
    """`Rational` against `fractions.Fraction` built from the same pair."""

    @given(num_st, den_st, num_st, den_st, st.integers(-9, 9).filter(bool),
           st.booleans())
    def test_matches_fraction(self, n1, d1, n2, d2, k, scaled):
        if scaled:
            n2, d2 = k * n1, k * d1
        r, f = Rational(n1, d1), Fraction(n1, d1)
        r2, f2 = Rational(n2, d2), Fraction(n2, d2)
        for got, ref in ((r, f), (r2, f2)):
            assert (got.numerator, got.denominator) == (ref.numerator,
                                                        ref.denominator)
            assert type(got.numerator) is type(got.denominator) is int
            assert str(got) == str(ref)
        assert (r == r2) == (f == f2) and (r != r2) == (f != f2)
        if r == r2:
            assert hash(r) == hash(r2)
        for v in (n1, n2, f.numerator, -f.numerator, 0, 1, True):
            assert (r == v) == (f == v) and (v == r) == (v == f)
            assert (r != v) == (f != v)
            if r == v:
                assert hash(r) == hash(v)

    @given(num_st)
    def test_integer_default_and_zero_denominator(self, n):
        assert Rational(n) == n and str(Rational(n)) == str(n)
        with pytest.raises(ZeroDivisionError):
            Rational(n, 0)
        with pytest.raises(ZeroDivisionError):
            Fraction(n, 0)


class TestRunLetters:
    """A word of generator letters reaches the library as its SL(2, Z) matrix.

    A run of repeated letters pushed forward as one matrix must match the
    letters pushed forward one at a time, and every library entry point that
    takes an automorphism refuses a malformed matrix with ValueError.
    """

    @given(st.lists(token_st, max_size=3), token_st, st.integers(1, 60),
           st.lists(token_st, max_size=3), group_st,
           st.tuples(int_st, int_st, int_st, int_st), fractions_st,
           fractions_st)
    def test_run_matches_bare_tokens(self, before, token, e, after, g, coords,
                                     e134, e234):
        bare = before + [token] * e + after
        run = word_matrix(bare)
        A = step_A = HomologyClass(*coords)
        C = step_C = h3(e134, e234, 0)
        for letter in bare:
            step_A = h2_pushforward(word_matrix([letter]), step_A)
            step_C = h3_pushforward(word_matrix([letter]), step_C)
        assert h2_pushforward(run, A) == step_A
        assert h3_pushforward(run, C) == step_C
        out = aut_apply(bare, g)
        assert out.x == run[0][0] * g.x + run[0][1] * g.y
        assert out.y == run[1][0] * g.x + run[1][1] * g.y

    @given(st.lists(token_st, max_size=8), group_st)
    def test_invert_word_roundtrip(self, word, g):
        word = tuple(word)
        inv = invert_word(word)
        assert len(inv) == len(word)
        assert word_matrix(word + inv) == IDENTITY_2X2
        assert word_matrix(inv + word) == IDENTITY_2X2
        assert word_matrix(invert_word(inv)) == word_matrix(word)
        assert word_matrix(inv) == adjugate(word_matrix(word))
        assert aut_apply(word + inv, g) == g

    @pytest.mark.parametrize("letter", [
        "nope", ["s1", ("s2", 5)], ((0, 0), (0, 0)), ((1, 0), (0, -1)),
        ((1, 0), (0, 1.0)), ((1, Fraction(0)), (0, 1)), ((True, 0), (0, 1)),
        ((1, 0),), ((1, 0, 0), (0, 1)), 5, None, (("1", 0), (0, 1)),
        ((1, 0), (0, None)), ((2, 0), (0, 1)), ((1, 0), (0, 1), (0, 0)),
        (1, 0, 0, 1),
    ])
    @pytest.mark.parametrize("act", [
        lambda M: sl2z_act(REDUCED_110, M),
        lambda M: h2_pushforward(M, HomologyClass(1, 0, 0, 0)),
        lambda M: h3_pushforward(M, H3Class(1, 0, 0)),
    ])
    def test_rejects_malformed_letters(self, letter, act):
        with pytest.raises(ValueError):
            act(letter)


def _hom():
    return HomDerivs((0, 0, 1, 0), (-1, -1, 0, 1))


# Each record, built afresh from equal values on every call, and its repr
# Name(field=value, ...), which error messages such as normalize_class's
# embed.
RECORDS = [
    (lambda: HomologyClass(1, 2, 3, 4),
     "HomologyClass(a13=1, a23=2, a14=3, a24=4)"),
    (lambda: H3Class(1, Rational(1, 2), 0),
     "H3Class(e134=Rational(numerator=1, denominator=1), "
     "e234=Rational(numerator=1, denominator=2), "
     "e124=Rational(numerator=0, denominator=1))"),
    (_hom, "HomDerivs(dp=(0, 0, 1, 0), dq=(-1, -1, 0, 1))"),
    (lambda: TorusSolution(_hom(), 0.0, 1.0, 1.0, 0.0, Rational(1, 2)),
     "TorusSolution(h=HomDerivs(dp=(0, 0, 1, 0), dq=(-1, -1, 0, 1)), "
     "tau1=0.0, tau2=1.0, cos_theta=1.0, sin_theta=0.0, "
     "c0_n2=Rational(numerator=1, denominator=2))"),
    (lambda: ModuliComponent(1, 1, 1, _hom(), 1),
     "ModuliComponent(d=1, k=1, ell=1, "
     "hom=HomDerivs(dp=(0, 0, 1, 0), dq=(-1, -1, 0, 1)), aut_size=1)"),
    (lambda: GWResult(1, 0, H3Class(1, 1, 0), "closed"),
     "GWResult(m=1, n=0, gw=H3Class(e134=Rational(numerator=1, "
     "denominator=1), e234=Rational(numerator=1, denominator=1), "
     "e124=Rational(numerator=0, denominator=1)), method='closed')"),
    (lambda: Rational(6, -4), "Rational(numerator=-3, denominator=2)"),
]


class TestRecord:
    """The contract of the value records, the library's five and the two
    of `tests/oracles.py`: equality and hashing by type and value,
    immutability, the repr, and the test helper `replace`, which builds
    through the constructor."""

    @pytest.mark.parametrize("build, text", RECORDS)
    def test_equal_values_equal_records(self, build, text):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert replace(a) == a

    @pytest.mark.parametrize("build, text", RECORDS)
    def test_unequal_to_tuple_and_other_records(self, build, text):
        rec = build()
        values = tuple(getattr(rec, name) for name in rec.fields)
        assert rec != values and values != rec
        twin = type("Twin", (type(rec),), {})(*values)
        assert rec != twin and twin != rec
        for other, _ in RECORDS:
            if other is not build:
                assert rec != other()

    @pytest.mark.parametrize("build, text", RECORDS)
    def test_immutable(self, build, text):
        rec = build()
        name = rec.fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            setattr(rec, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert rec == build()

    @pytest.mark.parametrize("build, text", RECORDS)
    def test_repr(self, build, text):
        assert repr(build()) == text

    def test_replace_reruns_checks(self):
        half = Rational(1, 2)
        with pytest.raises(ValueError):
            replace(_hom(), dp=(0, 1, 1, 0))
        e124 = replace(H3Class(1, 1, half), e124=0).e124
        assert type(e124) is Rational and e124 == 0
        for bad in (Fraction(2), HALF, half):
            with pytest.raises(TypeError):
                replace(HomologyClass(1, 2, 3, 4), a13=bad)
        for bad in (0.5, HALF):
            with pytest.raises(TypeError):
                H3Class(bad, 0, 0)
            with pytest.raises(TypeError):
                replace(H3Class(1, 1, half), e134=bad)
        with pytest.raises(TypeError):
            replace(HomologyClass(1, 2, 3, 4), a12=0)
        with pytest.raises(ZeroDivisionError):
            replace(half, denominator=0)

    def test_equality_reads_only_the_fields(self):
        a, b = _hom(), _hom()
        vars(a)["extra"] = 1
        assert a == b and b == a and hash(a) == hash(b)
        assert repr(a) == repr(b)

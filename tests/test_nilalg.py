import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktgw.nilalg import (
    H3Class,
    HomologyClass,
    h2_pushforward,
    h3_pushforward,
)
from oracles import (
    GENERATORS,
    GroupElem,
    LieAlgElem,
    adjugate,
    aut_apply,
    commutator_oracle,
    exp_oracle,
    from_rows,
    group_mul_oracle,
    hom_from_lie,
    invert_word,
    lie_columns,
    lie_comb,
    random_group,
    random_lattice_group,
    random_lie,
    random_plucker_class,
    random_sl2z,
    random_word,
    sl2z_act,
    word_matrix,
)

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)
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
        # [X, Y] = (X2 Y1 - Y2 X1) n4, the form `geometry._log_coordinates`
        # uses for [h, C].
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
            out = h3_pushforward(mat, H3Class(e134, e234, 0))
            assert out.e134 == mat[0][0] * e134 + mat[0][1] * e234
            assert out.e234 == mat[1][0] * e134 + mat[1][1] * e234


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
        C = step_C = H3Class(e134, e234, 0)
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

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ktgw import geometry
from ktgw.arith import divisors
from ktgw.geometry import (
    eval_class_integrate,
    label_solver,
    solve_columns,
    symplectic_area,
)
from ktgw.gwcount import component_eval_class
from ktgw.homs import HomDerivs, homology_class
from ktgw.nilalg import H3Class, HomologyClass, Rational
from oracles import (
    GroupElem,
    LieAlgElem,
    Poly,
    TorusSolution,
    area_pullback,
    bent_label_terms,
    cr_defect_exact,
    cr_residual_affine,
    cr_residual_commutator,
    eval_class_pullback,
    exp_oracle,
    fraction,
    group_mul_oracle,
    in_lowest_terms,
    label_component,
    lie_columns,
    lie_comb,
    log_coordinates,
    random_fraction,
    rational,
    replace,
    solve_torus_fractions,
    twistor_apply,
    walk_components,
)


def command_solution(h):
    """The torus geometry of h on the command path: `solve_columns` of its
    columns, then the per-label function of `label_solver`."""
    _, _, c, e = h.dp
    a, b, q3, z = h.dq
    tau2, cos, sin = solve_columns(c, e, a, b)
    tau1, c0n, c0d, _ = label_solver(c, e, a, b, tau2, cos, sin)(q3, z)
    return TorusSolution(h, tau1, tau2, cos, sin, Rational(c0n, c0d))


def command_residual(h, columns=None):
    """The residual that the command path gives h: the per-label function
    of `label_solver` at dq h3 and dq h4, with the (tau2, cos, sin) of
    columns, or else those `solve_columns` forms.  tau1 and c0_n2 come
    from `geometry._label_terms`."""
    _, _, c, e = h.dp
    a, b, q3, z = h.dq
    tau2, cos, sin = columns or solve_columns(c, e, a, b)
    return label_solver(c, e, a, b, tau2, cos, sin)(q3, z)[3]


def first_solution(m, n):
    return command_solution(walk_components(m, n)[0].hom)


def small_sweep(bound=2):
    for m in [v for v in range(-bound, bound + 1) if v]:
        for n in range(-bound, bound + 1):
            for comp in walk_components(m, n):
                yield m, n, comp


def solutions(m, n):
    return [command_solution(comp.hom) for comp in walk_components(m, n)]


def sampled_homs(rng, classes, count):
    """`count` random component homomorphisms of each class [m, m, n, n]."""
    homs = []
    for m, n in classes:
        ds = divisors(math.gcd(m, n))
        for _ in range(count):
            d = rng.choice(ds)
            homs.append(label_component(m, n, d, rng.randint(1, d),
                                        rng.randint(1, m // d)).hom)
    return homs


class TestPoly:
    def test_arithmetic_and_integration(self):
        lam, p, q = Poly.var(0), Poly.var(1), Poly.var(2)
        poly = lam * p * q
        assert poly.integrate_box(Fraction(1, 2)) == Fraction(1, 32)
        assert (p * p).integrate_box(Fraction(1)) == Fraction(1, 3)
        assert (p - p).terms == {}
        assert poly.diff(0) == p * q
        assert poly.eval(2, 3, 5) == 30


class TestSolve:
    def test_simple_instance(self):
        s = first_solution(1, 0)
        assert s.tau1 == pytest.approx(0.0, abs=1e-15)
        assert s.tau2 == pytest.approx(math.sqrt(2), rel=1e-14)
        assert s.cos_theta == pytest.approx(-1 / math.sqrt(2), rel=1e-14)
        assert s.sin_theta == pytest.approx(-1 / math.sqrt(2), rel=1e-14)
        assert fraction(s.c0_n2) == Fraction(-1, 2)
        # The central period 1 / gcd(dp h3, dp h4).
        assert math.gcd(*s.h.dp[2:]) == 1

    def test_two_zero_instance(self):
        s = first_solution(2, 0)
        assert s.tau1 == pytest.approx(0.5)
        assert s.tau2 == pytest.approx(math.sqrt(2) / 2, rel=1e-14)

    def test_rotation_condition(self):
        for _, _, comp in small_sweep(3):
            s = command_solution(comp.hom)
            _, _, c, d = s.h.dp
            a, b = s.h.dq[:2]
            t2 = s.tau2
            rx = s.cos_theta * c - s.sin_theta * d - a / t2
            ry = s.sin_theta * c + s.cos_theta * d - b / t2
            assert math.hypot(rx, ry) < 1e-12

    def test_tau2_positive(self):
        for _, _, comp in small_sweep(3):
            assert command_solution(comp.hom).tau2 > 0

    def test_rejects_norm_beyond_float(self):
        # dp h4 = -n for the one component of [1, 1, n, n]; its squared norm
        # passes the largest float once |n| exceeds about 1.34e154.  A long
        # dp h3 or dq h1 is refused alike.
        edge = label_component(1, 10 ** 154, 1, 1, 1).hom
        assert solve_columns(*edge.dp[2:], *edge.dq[:2])[0] > 0
        big = 10 ** 200
        columns = [(big, 0, 1, 0), (1, 0, big, 0)]
        for m, n in [(1, 2 * 10 ** 154), (1, -10 ** 200), (2, 2 * 10 ** 200)]:
            h = label_component(m, n, 1, 1, 1).hom
            columns.append((*h.dp[2:], *h.dq[:2]))
        for c, e, a, b in columns:
            with pytest.raises(ValueError, match="too long for a floating"):
                solve_columns(c, e, a, b)

    def test_columns_match_fraction_reference_bitwise(self):
        # solve_columns reads the columns (c, e) and (a, b) alone, and gives
        # each torus the tau2, cos and sin of its own reference solve.
        homs = [comp.hom for _, _, comp in small_sweep(8)]
        homs += sampled_homs(random.Random(97), [
            (1, 10 ** 12), (1200, 23757), (1, 10 ** 154)], 10)
        for h in homs:
            ref = solve_torus_fractions(h)
            got = solve_columns(h.dp[2], h.dp[3], h.dq[0], h.dq[1])
            assert [x.hex() for x in got] == [
                ref.tau2.hex(), ref.cos_theta.hex(), ref.sin_theta.hex()]

    def test_matches_fraction_reference_bitwise(self):
        # Every float to the last bit, signs of zero included, and c0_n2
        # equal.  The random reduced lattice maps reach dp h3 < 0 and
        # dq h3 = 0, where 0 / dp h3 is -0.0.
        homs = [comp.hom for _, _, comp in small_sweep(14)]
        homs += [comp.hom for comp in walk_components(9973, 1)]
        homs += sampled_homs(random.Random(83), [
            (1, 10 ** 12), (1200, 23757), (10 ** 9, 10 ** 9),
            (1, 10 ** 154)], 40)
        rng = random.Random(89)
        nonzero = (*range(-9, 0), *range(1, 10))
        for _ in range(500):
            c, a = rng.choice(nonzero), rng.choice(nonzero)
            b, q3, z, e = (rng.randint(-9, 9) for _ in range(4))
            homs.append(HomDerivs((0, 0, c, e), (a, b, q3, z)))
        for h in homs:
            _, _, c, e = h.dp
            a, b, q3, z = h.dq
            tau2, cos, sin = solve_columns(c, e, a, b)
            tau1, c0n, c0d, _ = label_solver(c, e, a, b, tau2, cos,
                                             sin)(q3, z)
            ref = solve_torus_fractions(h)
            assert [tau1.hex(), tau2.hex(), cos.hex(), sin.hex()] == [
                ref.tau1.hex(), ref.tau2.hex(), ref.cos_theta.hex(),
                ref.sin_theta.hex()]
            # c0_n2 in lowest terms, its denominator positive.
            assert (c0n, c0d) == (ref.c0_n2.numerator,
                                  ref.c0_n2.denominator)

    def test_modulus_requires_upper_half_plane(self):
        s = first_solution(1, 0)
        with pytest.raises(ValueError, match="tau2 must be positive"):
            replace(s, tau2=-1.0)
        with pytest.raises(ValueError, match="tau2 must be positive"):
            replace(s, tau2=0.0)


class TestTwistor:
    def test_unit_circle_enforced(self):
        s = first_solution(1, 0)
        with pytest.raises(ValueError, match="must lie on the unit circle"):
            replace(s, cos_theta=1.0, sin_theta=1.0)

    def test_square_is_minus_identity_and_orthogonal(self):
        for _, _, comp in small_sweep(2):
            s = command_solution(comp.hom)
            basis = [tuple(float(i == j) for j in range(4)) for i in range(4)]
            cols = [twistor_apply(s, v) for v in basis]
            for i in range(4):
                twice = twistor_apply(s, cols[i])
                for j in range(4):
                    expect = -1.0 if i == j else 0.0
                    assert abs(twice[j] - expect) < 1e-12
            for i in range(4):
                for j in range(4):
                    dot = sum(cols[i][k] * cols[j][k] for k in range(4))
                    expect = 1.0 if i == j else 0.0
                    assert abs(dot - expect) < 1e-12


def torus_point(s, lam, p, q):
    """exp of `log_coordinates` at (p, q), times the central family at lam.

    The central factor is exp(lam (dp_h4 n3 - dp_h3 n4)).
    """
    lam, p, q = Fraction(lam), Fraction(p), Fraction(q)
    w = LieAlgElem(*(const + dp * p + dq * q
                     for const, dp, dq in log_coordinates(s.h, s.c0_n2)))
    dp, _ = lie_columns(s.h)
    central = LieAlgElem(0, 0, dp.c4, -dp.c3)
    return group_mul_oracle(exp_oracle(w), exp_oracle(lie_comb((lam, central))))


class TestCurvePoint:
    """The torus map `log_coordinates`, exponentiated by the matrix oracles."""

    def test_base_point(self):
        s = first_solution(1, 0)
        assert torus_point(s, 0, 0, 0) == \
            GroupElem(Fraction(-1, 2), 0, 0, 0)

    def test_point_values(self):
        s = first_solution(1, 0)
        # q = 1 on the (1, 0) component: dq h3 = 0, dq h4 = 1/2.
        assert torus_point(s, 0, 0, 1) == \
            GroupElem(Fraction(-3, 2), -1, 1, 0)

    def test_lattice_equivariance(self):
        rng = random.Random(31)
        for m, n in [(1, 0), (2, 2), (-3, 1)]:
            for s in solutions(m, n):
                for _ in range(10):
                    lam = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                    p = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                    q = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                    base = torus_point(s, lam, p, q)
                    p_step, q_step = map(exp_oracle, lie_columns(s.h))
                    assert torus_point(s, lam, p + 1, q) == \
                        group_mul_oracle(p_step, base)
                    assert torus_point(s, lam, p, q + 1) == \
                        group_mul_oracle(q_step, base)

    def test_matches_group_products(self):
        # The logarithm is h + C + [h, C]/2: exp of it is the group product
        # exp(p dp + q dq) exp(C), on the solved C = c0_n2 n2 and on a
        # random other c0_n2.
        rng = random.Random(47)
        for m, n in [(1, 0), (2, 2), (-3, 1), (4, -6)]:
            for sol in solutions(m, n):
                dp, dq = lie_columns(sol.h)
                bent = random_fraction(rng, 9, 7)
                central = LieAlgElem(0, 0, dp.c4, -dp.c3)
                for s in (sol, replace(sol, c0_n2=rational(bent))):
                    c0 = LieAlgElem(0, s.c0_n2, 0, 0)
                    for _ in range(5):
                        lam, p, q = (Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 6))
                                     for _ in range(3))
                        expected = group_mul_oracle(
                            group_mul_oracle(
                                exp_oracle(lie_comb((p, dp), (q, dq))),
                                exp_oracle(c0)),
                            exp_oracle(lie_comb((lam, central))))
                        assert torus_point(s, lam, p, q) == expected


class TestCrResidual:
    """The residual that the commands print and check, against the
    references of `tests/oracles.py`."""

    def test_vanishes_on_solutions(self):
        for _, _, comp in small_sweep(2):
            assert command_residual(comp.hom) < 1e-9

    def test_c0_perturbation_detected(self, monkeypatch):
        monkeypatch.setattr(geometry, "_label_terms", bent_label_terms(
            geometry._label_terms, dc0=Fraction(1, 10)))
        for m, n in [(1, 0), (2, 2)]:
            assert command_residual(walk_components(m, n)[0].hom) > 1e-3

    def test_tau1_perturbation_detected(self, monkeypatch):
        monkeypatch.setattr(geometry, "_label_terms", bent_label_terms(
            geometry._label_terms, dtau1=0.1))
        for m, n in [(1, 0), (2, 2)]:
            assert command_residual(walk_components(m, n)[0].hom) > 1e-3

    def test_tau2_perturbation_detected(self):
        for m, n in [(1, 0), (2, 2)]:
            s = first_solution(m, n)
            bent = (s.tau2 + 0.1, s.cos_theta, s.sin_theta)
            assert command_residual(s.h, bent) > 1e-3

    def test_psi_rotation_detected(self):
        for m, n in [(1, 0), (2, 2)]:
            s = first_solution(m, n)
            theta = s.theta() + 0.1
            bent = (s.tau2, math.cos(theta), math.sin(theta))
            assert command_residual(s.h, bent) > 1e-3

    @pytest.mark.parametrize("plant", [
        lambda s: s,
        lambda s: replace(s, tau1=s.tau1 + 0.1),
        lambda s: replace(s, tau2=s.tau2 * 1.5),
        lambda s: replace(s, c0_n2=rational(fraction(s.c0_n2)
                                             + Fraction(1, 10))),
        lambda s: replace(s, cos_theta=math.cos(s.theta() + 0.1),
                          sin_theta=math.sin(s.theta() + 0.1)),
    ], ids=["solved", "tau1", "tau2", "c0_n2", "theta"])
    def test_defect_same_at_every_point(self, plant):
        # The reason one point gives the residual: in exact arithmetic the
        # defect vector is the same at all 64 points of an 8 x 8 grid of
        # the unit square, on every solved torus and on every bent one.
        grid = [Fraction(i, 7) for i in range(8)]
        for _, _, comp in small_sweep(4):
            defect = cr_defect_exact(plant(solve_torus_fractions(comp.hom)))
            origin = defect(0, 0)
            assert all(defect(p, q) == origin for p in grid for q in grid)

    def test_matches_commutator_reference(self):
        # Float equality, no tolerance: the residual from the integers of h
        # and c0_n2 rounds exactly as the one from matrix commutators does.
        homs = [comp.hom for _, _, comp in small_sweep(4)]
        homs += sampled_homs(random.Random(29), [
            (5000, 3000), (50000, 30000), (10 ** 7, 3 * 10 ** 6)], 12)
        for h in homs:
            assert command_residual(h) == cr_residual_commutator(
                solve_torus_fractions(h))

    def test_matches_affine_reference_bitwise(self, monkeypatch):
        # The coefficients come from the integers of h and c0_n2; the
        # residual still equals the reference that rounds each coefficient
        # of `log_coordinates` from scratch, to the last bit.  A bent torus
        # gets its c0_n2 or tau1 planted in `_label_terms`, its tau2 passed
        # to `label_solver`.
        homs = [comp.hom for _, _, comp in small_sweep(8)]
        homs += sampled_homs(random.Random(71), [
            (1, 10 ** 12), (1200, 23757), (10 ** 9, 10 ** 9), (9973, 1),
            (1, 10 ** 154)], 12)
        sols = list(map(solve_torus_fractions, homs))
        real = geometry._label_terms
        tiny = Fraction(1, 10 ** 12)
        cases = [(s, 0.0, 0) for s in sols]
        for s in sols[::7]:
            cases += [
                (replace(s, c0_n2=rational(fraction(s.c0_n2) + tiny)), 0.0,
                 tiny),
                (replace(s, tau1=s.tau1 + 1e-9), 1e-9, 0),
                (replace(s, tau2=s.tau2 * 1.5), 0.0, 0),
            ]
        for s, dtau1, dc0 in cases:
            monkeypatch.setattr(geometry, "_label_terms",
                                bent_label_terms(real, dtau1, dc0))
            columns = (s.tau2, s.cos_theta, s.sin_theta)
            try:
                expected = cr_residual_affine(s).hex()
            except OverflowError:
                # A bent (1, 10^154) torus squares past the largest float.
                with pytest.raises(ValueError, match="the largest float"):
                    command_residual(s.h, columns)
            else:
                assert command_residual(s.h, columns).hex() == expected


class TestSymplecticArea:
    def test_zero_class(self):
        for theta in (0.0, 1.0, math.pi):
            zero = HomologyClass(0, 0, 0, 0)
            assert symplectic_area(zero, math.cos(theta), math.sin(theta)) == 0

    def test_diagonal_class_at_pi(self):
        assert symplectic_area(HomologyClass(1, 1, 1, 1), math.cos(math.pi),
                               math.sin(math.pi)) == pytest.approx(2.0)

    def test_positive_on_solved_components(self):
        for _, _, comp in small_sweep(2):
            A = homology_class(comp.hom)
            s = command_solution(comp.hom)
            assert symplectic_area(A, s.cos_theta, s.sin_theta) > 0

    def test_matches_pullback_integration(self):
        for _, _, comp in small_sweep(2):
            A = homology_class(comp.hom)
            s = command_solution(comp.hom)
            assert symplectic_area(A, s.cos_theta, s.sin_theta) == \
                pytest.approx(area_pullback(s), rel=1e-12, abs=1e-12)


class TestEvalClass:
    def test_simple_instance(self):
        s = first_solution(1, 0)
        assert eval_class_integrate(s.h) == H3Class(1, 1, 0)

    def test_two_two_components(self):
        for s in solutions(2, 0):
            assert eval_class_integrate(s.h) == H3Class(2, 2, 0)

    def test_matches_closed_class(self):
        for m, n, comp in small_sweep(3):
            got = eval_class_integrate(comp.hom)
            assert got == component_eval_class(m, n)
            assert got.e124 == 0

    def test_matches_polynomial_pullback(self):
        # Exact equality with the general polynomial pullback: on solved
        # components, with a random other c0_n2, and on random reduced
        # lattice maps with dq h1 != dq h2, which no solved component of a
        # diagonal class has.  Both take the central period from h, so the
        # random maps keep dp h3 != 0, as every solved torus has.  The
        # integration reads only h; the pullback reads all of s.
        rng = random.Random(53)
        for _, _, comp in small_sweep(4):
            s = command_solution(comp.hom)
            assert eval_class_integrate(s.h) == eval_class_pullback(s)
            bent = replace(s, c0_n2=rational(random_fraction(rng, 9, 7)))
            assert eval_class_integrate(bent.h) == eval_class_pullback(bent)
            dp = (0, 0, rng.choice((*range(-9, 0), *range(1, 10))),
                  rng.randint(-9, 9))
            dq = tuple(rng.randint(-9, 9) for _ in range(4))
            if dq[0] == dq[1]:
                dq = (dq[0], dq[1] + 1, *dq[2:])
            bent = replace(bent, h=HomDerivs(dp, dq))
            assert eval_class_integrate(bent.h) == eval_class_pullback(bent)

    @given(st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=6,
                    max_size=6))
    def test_matches_fraction_arithmetic(self, entries):
        # The class reads only dp h3, dp h4, dq h1 and dq h2 of a reduced h.
        c, e, a, b, q3, z = entries
        assume(c != 0 or e != 0)
        h = HomDerivs((0, 0, c, e), (a, b, q3, z))
        scale = Fraction(-(c ** 2 + e ** 2), math.gcd(c, e))
        got = eval_class_integrate(h)
        assert tuple(map(fraction, got.coords())) == (scale * a, scale * b, 0)
        assert all(map(in_lowest_terms, got.coords()))

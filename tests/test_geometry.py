import dataclasses
import math
import random
from fractions import Fraction

import pytest

from ktgw.arith import divisors
from ktgw.geometry import (
    CR_GRID,
    _log_coordinates,
    cr_residual,
    eval_class_integrate,
    solve_torus_data,
    symplectic_area,
)
from ktgw.gwcount import (
    component_eval_class,
    moduli_component,
    moduli_components,
)
from ktgw.homs import HomDerivs, homology_class
from ktgw.nilalg import H3Class, HomologyClass
from oracles import (
    GroupElem,
    LieAlgElem,
    Poly,
    area_pullback,
    cr_residual_grid,
    cr_residual_rows,
    eval_class_pullback,
    exp_oracle,
    from_rows,
    group_mul_oracle,
    lie_columns,
    lie_comb,
    random_fraction,
    twistor_apply,
)


def rows(*entries):
    return from_rows(entries)


def first_solution(m, n):
    return solve_torus_data(moduli_components(m, n)[0].hom)


def small_sweep(bound=2):
    for m in [v for v in range(-bound, bound + 1) if v]:
        for n in range(-bound, bound + 1):
            for comp in moduli_components(m, n):
                yield m, n, comp


def solutions(m, n):
    return [solve_torus_data(comp.hom) for comp in moduli_components(m, n)]


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
        assert s.c0_n2 == Fraction(-1, 2)
        # The central period 1 / gcd(dp h3, dp h4).
        assert math.gcd(*s.h.dp[2:]) == 1

    def test_two_zero_instance(self):
        s = first_solution(2, 0)
        assert s.tau1 == pytest.approx(0.5)
        assert s.tau2 == pytest.approx(math.sqrt(2) / 2, rel=1e-14)

    def test_rotation_condition(self):
        for _, _, comp in small_sweep(3):
            s = solve_torus_data(comp.hom)
            _, _, c, d = s.h.dp
            a, b = s.h.dq[:2]
            t2 = s.tau2
            rx = s.cos_theta * c - s.sin_theta * d - a / t2
            ry = s.sin_theta * c + s.cos_theta * d - b / t2
            assert math.hypot(rx, ry) < 1e-12

    def test_tau2_positive(self):
        for _, _, comp in small_sweep(3):
            assert solve_torus_data(comp.hom).tau2 > 0

    def test_rejections(self):
        with pytest.raises(ValueError):
            solve_torus_data(rows((1, 0), (0, 1), (0, 0), (0, 0)))
        non_reduced = rows((1, 0), (1, 0), (0, 1), (Fraction(1, 2), 0))
        with pytest.raises(ValueError, match="must be reduced"):
            solve_torus_data(non_reduced)
        obstructed = rows((0, -1), (0, -1), (0, 0), (1, Fraction(1, 2)))
        with pytest.raises(ValueError):
            solve_torus_data(obstructed)

    def test_rejects_norm_beyond_float(self):
        # dp h4 = -n for the one component of [1, 1, n, n]; its squared norm
        # passes the largest float once |n| exceeds about 1.34e154.
        edge = solve_torus_data(moduli_component(1, 10 ** 154, 1, 1, 1).hom)
        assert edge.tau2 > 0
        for m, n in [(1, 2 * 10 ** 154), (1, -10 ** 200), (2, 2 * 10 ** 200)]:
            with pytest.raises(ValueError, match="too long for a floating"):
                solve_torus_data(moduli_component(m, n, 1, 1, 1).hom)

    def test_modulus_requires_upper_half_plane(self):
        s = first_solution(1, 0)
        with pytest.raises(ValueError, match="tau2 must be positive"):
            dataclasses.replace(s, tau2=-1.0)
        with pytest.raises(ValueError, match="tau2 must be positive"):
            dataclasses.replace(s, tau2=0.0)


class TestTwistor:
    def test_unit_circle_enforced(self):
        s = first_solution(1, 0)
        with pytest.raises(ValueError, match="must lie on the unit circle"):
            dataclasses.replace(s, cos_theta=1.0, sin_theta=1.0)

    def test_square_is_minus_identity_and_orthogonal(self):
        for _, _, comp in small_sweep(2):
            s = solve_torus_data(comp.hom)
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
    """exp of `_log_coordinates` at (p, q), times the central family at lam.

    The central factor is exp(lam (dp_h4 n3 - dp_h3 n4)).
    """
    lam, p, q = Fraction(lam), Fraction(p), Fraction(q)
    w = LieAlgElem(*(const + dp * p + dq * q
                     for const, dp, dq in _log_coordinates(s.h, s.c0_n2)))
    dp, _ = lie_columns(s.h)
    central = LieAlgElem(0, 0, dp.c4, -dp.c3)
    return group_mul_oracle(exp_oracle(w), exp_oracle(lie_comb((lam, central))))


class TestCurvePoint:
    """The torus map `_log_coordinates`, exponentiated by the matrix oracles."""

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
                for s in (sol, dataclasses.replace(sol, c0_n2=bent)):
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
    def test_vanishes_on_solutions(self):
        for _, _, comp in small_sweep(2):
            assert cr_residual(solve_torus_data(comp.hom)) < 1e-9

    def test_c0_perturbation_detected(self):
        for m, n in [(1, 0), (2, 2)]:
            s = first_solution(m, n)
            bad = dataclasses.replace(s, c0_n2=s.c0_n2 + Fraction(1, 10))
            assert cr_residual(bad) > 1e-3

    def test_tau1_perturbation_detected(self):
        for m, n in [(1, 0), (2, 2)]:
            s = first_solution(m, n)
            bad = dataclasses.replace(s, tau1=s.tau1 + 0.1)
            assert cr_residual(bad) > 1e-3

    def test_tau2_perturbation_detected(self):
        for m, n in [(1, 0), (2, 2)]:
            s = first_solution(m, n)
            bad = dataclasses.replace(s, tau2=s.tau2 + 0.1)
            assert cr_residual(bad) > 1e-3

    def test_psi_rotation_detected(self):
        for m, n in [(1, 0), (2, 2)]:
            s = first_solution(m, n)
            theta = s.theta() + 0.1
            bad = dataclasses.replace(s, cos_theta=math.cos(theta),
                                      sin_theta=math.sin(theta))
            assert cr_residual(bad) > 1e-3

    def test_matches_grid_reference(self):
        # Float equality, no tolerance: one row per grid q rounds exactly as
        # the full CR_GRID x CR_GRID evaluation does.
        sols = [solve_torus_data(comp.hom) for _, _, comp in small_sweep(4)]
        rng = random.Random(29)
        for m, n in [(5000, 3000), (50000, 30000), (10 ** 7, 3 * 10 ** 6)]:
            ds = divisors(math.gcd(m, n))
            for _ in range(12):
                d = rng.choice(ds)
                rep = moduli_component(m, n, d, rng.randint(1, d),
                                       rng.randint(1, m // d)).hom
                sols.append(solve_torus_data(rep))
        for s in sols:
            assert cr_residual(s) == cr_residual_grid(s, CR_GRID)

    def test_matches_row_reference_bitwise(self):
        # The integers of each row are formed once per call, so every row
        # rounds as the row-by-row reference does, to the last bit.
        sols = [solve_torus_data(comp.hom) for _, _, comp in small_sweep(8)]
        rng = random.Random(71)
        for m, n in [(1, 10 ** 12), (1200, 23757), (10 ** 9, 10 ** 9)]:
            ds = divisors(math.gcd(m, n))
            for _ in range(12):
                d = rng.choice(ds)
                rep = moduli_component(m, n, d, rng.randint(1, d),
                                       rng.randint(1, m // d)).hom
                sols.append(solve_torus_data(rep))
        bent = []
        for s in sols[::7]:
            bent += [
                dataclasses.replace(s, c0_n2=s.c0_n2 + Fraction(1, 10 ** 12)),
                dataclasses.replace(s, tau1=s.tau1 + 1e-9),
                dataclasses.replace(s, tau2=s.tau2 * 1.5),
            ]
        for s in sols + bent:
            assert cr_residual(s).hex() == cr_residual_rows(s, CR_GRID).hex()


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
            s = solve_torus_data(comp.hom)
            assert symplectic_area(A, s.cos_theta, s.sin_theta) > 0

    def test_matches_pullback_integration(self):
        for _, _, comp in small_sweep(2):
            A = homology_class(comp.hom)
            s = solve_torus_data(comp.hom)
            assert symplectic_area(A, s.cos_theta, s.sin_theta) == \
                pytest.approx(area_pullback(s), rel=1e-12, abs=1e-12)


class TestEvalClass:
    def test_simple_instance(self):
        s = first_solution(1, 0)
        assert eval_class_integrate(s) == H3Class(1, 1, 0)

    def test_two_two_components(self):
        for s in solutions(2, 0):
            assert eval_class_integrate(s) == H3Class(2, 2, 0)

    def test_matches_closed_class(self):
        for m, n, comp in small_sweep(3):
            got = eval_class_integrate(solve_torus_data(comp.hom))
            assert got == component_eval_class(m, n)
            assert got.e124 == 0

    def test_matches_polynomial_pullback(self):
        # Exact equality with the general polynomial pullback: on solved
        # components, with a random other c0_n2, and on random reduced
        # lattice maps with dq h1 != dq h2, which no solved component of a
        # diagonal class has.  Both take the central period from h, so the
        # random maps keep dp h3 != 0, as solve_torus_data requires.
        rng = random.Random(53)
        for _, _, comp in small_sweep(4):
            s = solve_torus_data(comp.hom)
            assert eval_class_integrate(s) == eval_class_pullback(s)
            bent = dataclasses.replace(s, c0_n2=random_fraction(rng, 9, 7))
            assert eval_class_integrate(bent) == eval_class_pullback(bent)
            dp = (0, 0, rng.choice((*range(-9, 0), *range(1, 10))),
                  rng.randint(-9, 9))
            dq = tuple(rng.randint(-9, 9) for _ in range(4))
            if dq[0] == dq[1]:
                dq = (dq[0], dq[1] + 1, *dq[2:])
            bent = dataclasses.replace(bent, h=HomDerivs(dp, dq))
            assert eval_class_integrate(bent) == eval_class_pullback(bent)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All combinatorial checks are exact; the geometric residual and
positivity checks use the stated tolerances.
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

from ktgw.arith import (
    aut_weight_sum,
    aut_weight_sum_closed,
    cesaro_check,
    count_sublattices_hnf,
    sigma,
)
from ktgw.geometry import (
    cr_residual,
    eval_class_integrate,
    solve_torus_data,
    symplectic_area,
)
from ktgw.gwcount import (
    aut_size_smith,
    component_eval_class,
    gw_closed_form,
    gw_enumerated,
    moduli_components,
)
from ktgw.homs import homology_class
from ktgw.nilalg import H3_ZERO, HomologyClass, h2_pushforward, h3_pushforward
from oracles import (
    aut_apply,
    group_mul_oracle,
    random_group,
    random_lattice_group,
    random_plucker_class,
    random_word,
    word_matrix,
)


def report(name, failures, checked, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}: {checked} checks, {len(failures)} failures "
          f"({elapsed:.1f}s)")
    assert not failures, f"{name}: first failure: {failures[0]}"


def nonzero_range(bound):
    return [v for v in range(-bound, bound + 1) if v != 0]


def coprime_pairs(bound):
    return [(a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if math.gcd(a, b) == 1]


def test_ac01_invariant_reproduction_exact():
    started = time.perf_counter()
    failures, checked = [], 0
    classes = set()
    for m in nonzero_range(8):
        for n in range(-8, 9):
            for a, b in coprime_pairs(3):
                classes.add((m * a, m * b, n * a, n * b))
    for coords in sorted(classes):
        A = HomologyClass(*coords)
        enum = gw_enumerated(A).gw
        closed = gw_closed_form(A).gw
        checked += 1
        if enum != closed:
            failures.append(f"{coords}: enumerated {enum} != closed {closed}")
        elif any(v.denominator != 1 for v in enum.coords()):
            failures.append(f"{coords}: non-integral invariant {enum}")
    report("AC1 closed vs enumerated invariant", failures, checked, started)


def test_ac02_weight_sum_identity_exact():
    started = time.perf_counter()
    failures, checked = [], 0
    for m in nonzero_range(200):
        for n in range(-200, 201):
            checked += 1
            if aut_weight_sum(m, n) != aut_weight_sum_closed(m, n):
                failures.append(f"m={m} n={n}")
                break
    report("AC2 weight-sum identity (|m|,|n| <= 200)", failures, checked,
           started)


def test_ac03_sublattice_baseline():
    started = time.perf_counter()
    failures, checked = [], 0
    for ell in range(1, 501):
        checked += 1
        if count_sublattices_hnf(ell) != sigma(1, ell):
            failures.append(f"ell={ell}")
    if sigma(1, 6) != 12:
        failures.append("sigma(1, 6) != 12")
    checked += 1
    report("AC3 sublattice count vs sigma_1 (ell <= 500)", failures, checked,
           started)


def test_ac04_cesaro_identity():
    started = time.perf_counter()
    failures, checked = [], 0
    funcs = {"one": lambda v: 1, "id": lambda v: v, "square": lambda v: v * v}
    for name, f in funcs.items():
        for n in range(1, 2001):
            checked += 1
            if not cesaro_check(f, n).equal:
                failures.append(f"f={name} n={n}")
    report("AC4 Cesaro identity (n <= 2000, three functions)", failures,
           checked, started)


def test_ac05_automorphism_oracle():
    started = time.perf_counter()
    failures, checked = [], 0
    for m in nonzero_range(10):
        for n in range(-10, 11):
            for entry in moduli_components(m, n):
                checked += 1
                formula = entry.aut_size
                smith = aut_size_smith(entry.hom)
                if formula != smith:
                    failures.append(
                        f"m={m} n={n} (d,k,l)=({entry.d},{entry.k},"
                        f"{entry.ell}): formula {formula} != smith {smith}")
    report("AC5 automorphism formula vs Smith oracle (|m|,|n| <= 10)",
           failures, checked, started)


def test_ac06_cauchy_riemann_validation():
    started = time.perf_counter()
    failures, checked = [], 0
    for m in nonzero_range(4):
        for n in range(-4, 5):
            for comp in moduli_components(m, n):
                where = f"m={m} n={n} (d,k,l)=({comp.d},{comp.k},{comp.ell})"
                sol = solve_torus_data(comp.hom)
                checked += 5
                res = cr_residual(sol)
                if not res < 1e-9:
                    failures.append(f"{where}: residual {res:g}")
                bad_c0 = dataclasses.replace(
                    sol, c0_n2=sol.c0_n2 + Fraction(1, 10))
                if not cr_residual(bad_c0) > 1e-3:
                    failures.append(f"{where}: c0 perturbation undetected")
                bad_tau = dataclasses.replace(sol, tau1=sol.tau1 + 0.1)
                if not cr_residual(bad_tau) > 1e-3:
                    failures.append(f"{where}: tau1 perturbation undetected")
                bad_tau2 = dataclasses.replace(sol, tau2=sol.tau2 + 0.1)
                if not cr_residual(bad_tau2) > 1e-3:
                    failures.append(f"{where}: tau2 perturbation undetected")
                theta = sol.theta() + 0.1
                bad_psi = dataclasses.replace(sol, cos_theta=math.cos(theta),
                                              sin_theta=math.sin(theta))
                if not cr_residual(bad_psi) > 1e-3:
                    failures.append(f"{where}: psi rotation undetected")
    report("AC6 Cauchy-Riemann residuals (|m|,|n| <= 4)", failures, checked,
           started)


def test_ac07_evaluation_cycle_oracle():
    started = time.perf_counter()
    failures, checked = [], 0
    for m in nonzero_range(4):
        for n in range(-4, 5):
            expected = component_eval_class(m, n)
            for comp in moduli_components(m, n):
                checked += 1
                got = eval_class_integrate(solve_torus_data(comp.hom))
                if got != expected or got.e124 != 0:
                    failures.append(
                        f"m={m} n={n} (d,k,l)=({comp.d},{comp.k},{comp.ell}):"
                        f" {got} != {expected}")
    report("AC7 evaluation-cycle integration (|m|,|n| <= 4)", failures,
           checked, started)


def test_ac08_component_count():
    started = time.perf_counter()
    failures, checked = [], 0
    for m in nonzero_range(12):
        for n in range(-12, 13):
            checked += 1
            count = len(moduli_components(m, n))
            expected = abs(m) * sigma(0, math.gcd(m, n))
            if count != expected:
                failures.append(f"m={m} n={n}: {count} != {expected}")
    report("AC8 component count |m| sigma_0(gcd) (|m|,|n| <= 12)", failures,
           checked, started)


def test_ac09_area_positivity():
    started = time.perf_counter()
    failures, checked = [], 0
    for m in nonzero_range(4):
        for n in range(-4, 5):
            for comp in moduli_components(m, n):
                checked += 1
                sol = solve_torus_data(comp.hom)
                area = symplectic_area(homology_class(comp.hom),
                                       sol.cos_theta, sol.sin_theta)
                if not area > 0:
                    failures.append(
                        f"m={m} n={n} (d,k,l)=({comp.d},{comp.k},{comp.ell}):"
                        f" area {area:g}")
    report("AC9 symplectic area positivity", failures, checked, started)


def test_ac10_structure_preservation_suite():
    started = time.perf_counter()
    failures, checked = [], 0
    rng = random.Random(2026)

    for _ in range(1000):
        w = random_word(rng)
        a, b = random_group(rng), random_group(rng)
        checked += 1
        if (aut_apply(w, group_mul_oracle(a, b)) !=
                group_mul_oracle(aut_apply(w, a), aut_apply(w, b))):
            failures.append(f"automorphism not a homomorphism for {w}")
            break
    for _ in range(1000):
        w = random_word(rng)
        g = random_lattice_group(rng)
        checked += 1
        if any(v.denominator != 1 for v in aut_apply(w, g).coords()):
            failures.append(f"lattice not preserved by {w}")
            break
    for _ in range(1000):
        w = random_word(rng)
        A = random_plucker_class(rng)
        B = h2_pushforward(word_matrix(w), A)
        checked += 1
        if B.a13 * B.a24 != B.a14 * B.a23:
            failures.append(f"Plücker broken by {w} on {A}")
            break
    for _ in range(100):
        w = random_word(rng)
        A = random_plucker_class(rng)
        checked += 1
        M = word_matrix(w)
        lhs = gw_closed_form(h2_pushforward(M, A)).gw
        rhs = h3_pushforward(M, gw_closed_form(A).gw)
        if lhs != rhs:
            failures.append(f"equivariance broken by {w} on {A}")
            break
    report("AC10 structure-preservation property suite", failures, checked,
           started)


def test_ac11_zero_cases():
    started = time.perf_counter()
    failures, checked = [], 0
    zero_like = [HomologyClass(0, 0, n, 0) for n in range(-5, 6)]
    zero_like += [HomologyClass(0, 0, n, n) for n in range(-5, 6)]
    zero_like.append(HomologyClass(0, 0, 0, 0))
    for A in zero_like:
        for compute in (gw_closed_form, gw_enumerated):
            checked += 1
            result = compute(A)
            if result.gw != H3_ZERO:
                failures.append(f"{A} via {result.method}: {result.gw}")
    report("AC11 vanishing for m = 0 and zero classes", failures, checked,
           started)

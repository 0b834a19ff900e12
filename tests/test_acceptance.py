"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from groebnerkit.cli import run
from groebnerkit.division import divide
from groebnerkit.groebner import (
    buchberger,
    groebner_basis,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from groebnerkit.ideal import eliminate, staircase, univariate_real_roots
from groebnerkit.kinematics import ArmSpec, Target, forward_kinematics, ik_solve
from groebnerkit.order import GREVLEX, GRLEX, LEX, MonomialOrder, leading_term
from groebnerkit.oscillator import OscillatorParams, evaluate, sample, solve_ivp
from groebnerkit.parse import format_polynomial, parse_polynomial, parse_system
from groebnerkit.ring import Monomial, Polynomial, VariableContext

CTX_XY = VariableContext(["x", "y"])
ORDERS = [LEX, GRLEX, GREVLEX]


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def random_monomial(rng, nvars, max_degree):
    while True:
        exponents = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(exponents) <= max_degree:
            return Monomial(exponents)


def random_polynomial(rng, ctx, max_degree, max_terms=4, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, len(ctx), max_degree)
        c = 0
        while c == 0:
            c = rng.randint(-max_coeff, max_coeff)
        terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(ctx, terms)


def test_criterion_1_division_identity():
    rng = random.Random(101)
    failures = 0
    for _ in range(500):
        nvars = rng.randint(1, 3)
        ctx = VariableContext([f"x{i}" for i in range(nvars)])
        f = random_polynomial(rng, ctx, max_degree=6, max_terms=5)
        divisors = []
        for _ in range(rng.randint(1, 3)):
            g = random_polynomial(rng, ctx, max_degree=4, max_terms=3)
            if not g.is_zero():
                divisors.append(g)
        if not divisors:
            divisors = [Polynomial.constant(ctx, 1)]
        order = rng.choice(ORDERS)
        result = divide(f, divisors, order)
        total = result.remainder
        for q, g in zip(result.quotients, divisors):
            total = total + q * g
        if total != f:
            failures += 1
            continue
        leads = [leading_term(g, order).monomial for g in divisors]
        if any(lm.divides(m) for m in result.remainder.terms for lm in leads):
            failures += 1
    report(1, "division identity on 500 randomized instances", failures == 0,
           f"{failures} failures")


def test_criterion_2_worked_ideal_reproduction():
    inputs = parse_system(["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"], CTX_XY)
    basis = groebner_basis(inputs, GRLEX)
    got = [format_polynomial(g, GRLEX) for g in basis.generators]
    exact = got == ["y^2 - 1/2*x", "x*y", "x^2"]

    # independent oracle: the claimed basis closes under S-pair reduction
    # and absorbs both input generators
    claimed = parse_system(["x^2", "x*y", "y^2 - 1/2*x"], CTX_XY)
    oracle_ok = all(
        normal_form(s_polynomial(p, q, GRLEX), claimed, GRLEX).is_zero()
        for p, q in itertools.combinations(claimed, 2)
    ) and all(normal_form(f, claimed, GRLEX).is_zero() for f in inputs)
    report(2, "worked ideal reduced grlex basis", exact and oracle_ok, ", ".join(got))


def test_criterion_3_buchberger_criterion_postcheck():
    rng = random.Random(303)
    start = time.perf_counter()
    failures = 0
    for _ in range(100):
        nvars = rng.randint(1, 3)
        ctx = VariableContext([f"x{i}" for i in range(nvars)])
        gens = [
            random_polynomial(rng, ctx, max_degree=4, max_terms=3, max_coeff=4)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()] or [Polynomial.constant(ctx, 1)]
        order = rng.choice(ORDERS)
        basis = buchberger(gens, order)
        members = list(basis.generators)
        for p, q in itertools.combinations(members, 2):
            s = s_polynomial(p, q, order)
            if not s.is_zero() and not normal_form(s, members, order).is_zero():
                failures += 1
                break
    elapsed = time.perf_counter() - start
    report(3, "criterion post-check on 100 randomized sets",
           failures == 0 and elapsed < 60, f"{elapsed:.1f}s, {failures} failures")


def test_criterion_4_reduced_basis_uniqueness():
    rng = random.Random(404)
    failures = 0
    for _ in range(50):
        gens = [
            random_polynomial(rng, CTX_XY, max_degree=3, max_terms=3, max_coeff=4)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()] or [Polynomial.constant(CTX_XY, 1)]
        order = rng.choice(ORDERS)
        canonicals = set()
        for perm in itertools.permutations(gens):
            basis = reduce_basis(buchberger(list(perm), order))
            canonicals.add(
                tuple(format_polynomial(g, order) for g in basis.generators)
            )
        if len(canonicals) != 1:
            failures += 1
    report(4, "reduced basis unique under input permutation", failures == 0,
           f"{failures} failures")


def test_criterion_5_elimination_oracle():
    basis = groebner_basis(parse_system(["x^2 + y^2 - 1", "x - y"], CTX_XY), LEX)
    kept = eliminate(basis, 1)
    texts = [format_polynomial(g, LEX) for g in kept]
    shape_ok = texts == ["y^2 - 1/2"]
    roots = univariate_real_roots(kept[0], 1e-9) if kept else []
    roots_ok = (
        len(roots) == 2
        and abs(roots[0] + 0.7071067812) < 1e-9
        and abs(roots[1] - 0.7071067812) < 1e-9
    )
    report(5, "elimination ideal and its real roots", shape_ok and roots_ok,
           f"basis={texts}, roots={roots}")


def test_criterion_6_inverse_kinematics_end_to_end():
    start = time.perf_counter()
    arm = ArmSpec(1, 1)
    tol = 1e-9

    two = ik_solve(arm, Target(1, 1), tol)
    expected = [(0.0, math.pi / 2), (math.pi / 2, -math.pi / 2)]
    got = sorted((s.theta1, s.theta2) for s in two.solutions)
    branches_ok = (
        two.diagnostic is None
        and len(got) == 2
        and all(
            abs(g1 - e1) < 1e-6 and abs(g2 - e2) < 1e-6
            for (g1, g2), (e1, e2) in zip(got, expected)
        )
    )
    residual_ok = all(s.residual < 1e-6 for s in two.solutions)

    empty = ik_solve(arm, Target(3, 0), tol)
    unreachable_ok = empty.solutions == () and empty.diagnostic == "unreachable"

    boundary = ik_solve(arm, Target(2, 0), tol)
    boundary_ok = (
        len(boundary.solutions) == 1
        and abs(boundary.solutions[0].theta1) < 1e-6
        and abs(boundary.solutions[0].theta2) < 1e-6
    )
    elapsed = time.perf_counter() - start
    report(6, "inverse kinematics end-to-end",
           branches_ok and residual_ok and unreachable_ok and boundary_ok
           and elapsed < 5, f"{elapsed:.2f}s")


def test_criterion_7_oscillator_algebra():
    rng = random.Random(707)
    failures = []
    for i in range(1000):
        m = rng.uniform(0.1, 10.0)
        k = rng.uniform(0.1, 10.0)
        b = math.sqrt(4 * m * k) * rng.uniform(0.0, 0.95)
        y0 = rng.uniform(-5.0, 5.0)
        y1 = rng.uniform(-5.0, 5.0)
        sol = solve_ivp(OscillatorParams(m=m, k=k, b=b, y0=y0, y1=y1))

        reference = 2 * math.sqrt(
            m * (k * y0 * y0 + b * y0 * y1 + m * y1 * y1) / (4 * m * k - b * b)
        )
        scale = max(abs(reference), 1e-300)
        if abs(sol.amplitude - reference) > 1e-12 * scale:
            failures.append((i, "amplitude"))
            continue

        if abs(evaluate(sol, 0.0).y - y0) > 1e-12 * max(1.0, abs(y0)):
            failures.append((i, "y(0)"))
            continue

        h = 1e-5
        slope = lambda step: (evaluate(sol, step).y - y0) / step
        refined = 2 * slope(h / 2) - slope(h)
        if abs(refined - y1) > 1e-6 * max(1.0, abs(y1)):
            failures.append((i, "y'(0)"))
            continue

        t = rng.uniform(0.1, 3.0)
        y_m, y_0, y_p = (evaluate(sol, t + d).y for d in (-h, 0.0, h))
        residual = (
            m * (y_p - 2 * y_0 + y_m) / (h * h)
            + b * (y_p - y_m) / (2 * h)
            + k * y_0
        )
        if abs(residual) > 1e-4 * (1 + sol.amplitude):
            failures.append((i, "ode residual"))
            continue

        rows = sample(sol, 4.0, 32)
        if any(not (r.env_lo - 1e-12 <= r.y <= r.env_hi + 1e-12) for r in rows):
            failures.append((i, "envelope"))
    report(7, "oscillator algebra on 1000 randomized parameter sets",
           not failures, f"{len(failures)} failures")


def _spair_criterion_holds(basis):
    members = list(basis.generators)
    for p, q in itertools.combinations(members, 2):
        s = s_polynomial(p, q, basis.order)
        if not s.is_zero() and not normal_form(s, members, basis.order).is_zero():
            return False
    return True


def test_criterion_8_performance_smoke():
    ctx4 = VariableContext(["a", "b", "c", "d"])
    cyclic4 = parse_system(
        [
            "a + b + c + d",
            "a*b + b*c + c*d + d*a",
            "a*b*c + b*c*d + c*d*a + d*a*b",
            "a*b*c*d - 1",
        ],
        ctx4,
    )
    start = time.perf_counter()
    gb_cyclic = groebner_basis(cyclic4, GREVLEX)
    cyclic_elapsed = time.perf_counter() - start

    ctx5 = VariableContext(["u0", "u1", "u2", "u3", "u4"])
    katsura4 = parse_system(
        [
            "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1",
            "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 - u0",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 - u1",
            "u1^2 + 2*u0*u2 + 2*u1*u3 + 2*u2*u4 - u2",
            "2*u1*u2 + 2*u0*u3 + 2*u1*u4 - u3",
        ],
        ctx5,
    )
    start = time.perf_counter()
    gb_katsura = groebner_basis(katsura4, GREVLEX)
    katsura_elapsed = time.perf_counter() - start

    verified = _spair_criterion_holds(gb_cyclic) and _spair_criterion_holds(gb_katsura)
    report(8, "performance smoke (cyclic-4, katsura-4)",
           cyclic_elapsed < 10 and katsura_elapsed < 60 and verified,
           f"cyclic-4 {cyclic_elapsed:.2f}s/{len(gb_cyclic)} gens, "
           f"katsura-4 {katsura_elapsed:.2f}s/{len(gb_katsura)} gens")


def test_criterion_9_staircase_brute_force():
    from groebnerkit.groebner import GroebnerBasis

    rng = random.Random(909)
    failures = 0
    for _ in range(50):
        monos = {
            (rng.randint(0, 8), rng.randint(0, 8))
            for _ in range(rng.randint(1, 6))
        }
        polys = [Polynomial(CTX_XY, {Monomial(m): Fraction(1)}) for m in monos]
        diagram = staircase(GroebnerBasis(tuple(polys), GRLEX, reduced=False))
        for u in range(0, 11):
            for v in range(0, 11):
                direct = any(a <= u and b <= v for a, b in monos)
                if diagram.contains(u, v) != direct:
                    failures += 1
    report(9, "staircase classification matches brute force", failures == 0,
           f"{failures} mismatches")


def test_criterion_10_cli_contract(capsys):
    code1 = run(["groebner", "--vars", "x,y", "--order", "grlex",
                 "x^3-2*x*y", "x^2*y-2*y^2+x"])
    out1 = capsys.readouterr().out
    first = code1 == 0 and out1 == "x^2\nx*y\ny^2 - 1/2*x\n"

    code2 = run(["member", "--vars", "x,y", "1", "--", "x", "y"])
    out2 = capsys.readouterr().out
    second = code2 == 0 and out2 == "false\n"

    code3 = run(["groebner", "--vars", "x,y", "x +"])
    captured = capsys.readouterr()
    third = code3 == 2 and "position 4" in captured.err and captured.out == ""

    with capsys.disabled():
        report(10, "CLI contract (three pinned invocations)",
               first and second and third,
               f"exits=({code1},{code2},{code3})")

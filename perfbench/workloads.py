"""The four workloads: seeded inputs, the timed operation and its oracle.

``build(gk, rng, rounds)`` generates and parses a workload's inputs and
computes any bases its operations query; it returns the operations in
the order they are timed. A round is a fixed mix of operations; every
run attempts whole rounds, so a failure that belongs to a fixed input
is the same share of every run.

The program is reached only through attributes of the ``groebnerkit``
package looked up at call time, so a traced run sees every call. Every
operation gets its own parsed copy of its inputs, so nothing a call
leaves on its input objects carries over to the next operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle
from oracle import grevlex_key, lex_key, p_add, p_eval
from systems import PointSystem, cyclic, format_flat, katsura, point_system, random_point_system

ROOT_TOL = 1e-9  # tol handed to univariate_real_roots, and the match tolerance


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # Returns (errors, miss): errors mean a wrong answer; miss names the
    # documented root-finding loss, counted as a failed operation.
    check: Callable[[object], tuple]
    # Operations sharing a key must return equal outputs; the first one
    # is checked against the oracle in full, the rest against it.
    key: Optional[str] = None


def as_dict(p) -> dict:
    return {tuple(m): c for m, c in p.terms.items()}


def as_dicts(basis) -> list:
    return [as_dict(g) for g in basis.generators]


def canonical(polys) -> tuple:
    return tuple(tuple(sorted(p.items())) for p in polys)


def _parse(gk, names, texts):
    return gk.parse_system(list(texts), gk.VariableContext(names))


def _basis_errors(basis, order) -> list:
    errors = []
    if basis.order is not order or not basis.reduced:
        errors.append("basis not tagged as the requested reduced basis")
    return errors


# ---- grevlex-bases -----------------------------------------------------

# Seeded point-system shapes per round: 2 to 4 variables, 4 to 12 points,
# each cheaper than katsura-4. Katsura-4 runs twice per round, a sixth of
# the operations, so the 90th percentile falls among its samples.
GREVLEX_SHAPES = ((3, 3), (4, 3), (2, 2, 1), (2, 2, 2), (2, 2, 2), (2, 2, 1, 1), (2, 2, 2, 1))


def grevlex_bases(gk, rng, rounds):
    named = {"cyclic-4": cyclic(4), "katsura-3": katsura(3), "katsura-4": katsura(4)}
    cyc_names, cyc_texts, cyc_inputs = named["cyclic-4"]

    def grevlex(polys):
        return lambda: gk.groebner_basis(polys, gk.GREVLEX)

    def check_katsura(n, inputs):
        def check(basis):
            g = as_dicts(basis)
            errors = _basis_errors(basis, gk.GREVLEX) + oracle.check_reduced_monic(g, grevlex_key)
            count = oracle.standard_monomial_count([oracle.lead(p, grevlex_key)[0] for p in g], n + 1)
            if count != 2**n:
                errors.append(f"{count} standard monomials, katsura-{n} has {2**n}")
            return errors + oracle.check_groebner(g, list(inputs), grevlex_key), None
        return check

    def check_cyclic(basis):
        g = as_dicts(basis)
        errors = _basis_errors(basis, gk.GREVLEX) + oracle.check_reduced_monic(g, grevlex_key)
        return errors + oracle.check_groebner(g, list(cyc_inputs), grevlex_key), None

    ops = []
    for _ in range(rounds):
        # The input order changes the work done several-fold, so each round
        # draws its own order and a run's total does not hinge on one draw.
        order = rng.sample(range(4), 4)
        while order == sorted(order):
            order = rng.sample(range(4), 4)
        ops.append(Op("cyclic-4", grevlex(_parse(gk, cyc_names, cyc_texts)), check_cyclic, "cyclic-4"))
        permuted = [cyc_texts[i] for i in order]
        ops.append(Op("cyclic-4 permuted", grevlex(_parse(gk, cyc_names, permuted)), check_cyclic, "cyclic-4"))
        for n in (3, 4, 4):
            names, texts, inputs = named[f"katsura-{n}"]
            ops.append(Op(f"katsura-{n}", grevlex(_parse(gk, names, texts)), check_katsura(n, inputs), f"katsura-{n}"))
        for shape in GREVLEX_SHAPES:
            system = random_point_system(rng, shape)
            ops.append(Op(f"points{shape}", grevlex(_parse(gk, system.names, system.texts)),
                          _point_check(system, gk.GREVLEX, grevlex_key)))
    return ops


def _point_check(system: PointSystem, order, key):
    def check(basis):
        return _basis_errors(basis, order) + oracle.check_point_basis(as_dicts(basis), list(system.points), key), None
    return check


# ---- lex-eliminate -----------------------------------------------------

# Per round: the fixed 3-variable system (the slowest operation, one in
# 72), katsura-3 ten times (the next 14%, where the 90th percentile falls)
# and sixty seeded systems cheaper than both.
LEX_SHAPES = ((3, 2), (3, 3), (2, 2, 1)) * 20
LEX_KATSURA3_PER_ROUND = 10


def eliminant(values) -> list:
    """Coefficients of the monic prod (t - c) over the distinct values,
    lowest degree first."""
    coeffs = [Fraction(1)]
    for c in sorted(set(values)):
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= c * coeffs[k + 1]
    return coeffs


def grid_resolves(last) -> bool:
    """Whether a 1024-cell grid over the Cauchy bound of the eliminant puts
    every pair of distinct roots at least two cells apart, the regime in
    which univariate_real_roots documents no loss."""
    values = sorted(set(last))
    coeffs = eliminant(values)
    cell = 2 * (1 + max(abs(c) for c in coeffs[:-1])) / 1024
    return all(b - a > 2 * cell for a, b in zip(values, values[1:]))


FIXED_FORMS = [[-3, 2, -1], [2, 1, -1], [3, 1, -1]]
FIXED_OFFSETS = [[-3, 4, 0], [2, -2], [1, -2]]


def fixed_lex_systems():
    """Two systems, the same for every seed, whose eliminant roots the grid
    in univariate_real_roots cannot resolve: last coordinates 1, 11/10
    and 1000 (two roots share a cell), and 3 variables with 12 points
    whose eliminant has a Cauchy bound near 1e13."""
    return [
        ("fixed roots 1, 11/10, 1000", point_system([[0, 10], [1, 1]], [[10, 11, 10000], [2, -3]])),
        ("fixed (3, 2, 2)", point_system(FIXED_FORMS, FIXED_OFFSETS)),
    ]


def lex_eliminate(gk, rng, rounds):
    k3_names, k3_texts, k3_inputs = katsura(3)
    fixed = fixed_lex_systems()

    def pipeline(polys):
        def call():
            basis = gk.groebner_basis(polys, gk.LEX)
            kept = gk.eliminate(basis, 1)
            return basis, kept, gk.univariate_real_roots(kept[0], ROOT_TOL)
        return call

    def check_points(system):
        def check(result):
            basis, kept, roots = result
            n = len(system.names)
            expected = eliminant(p[-1] for p in system.points)
            errors = _basis_errors(basis, gk.LEX) + oracle.check_point_basis(
                as_dicts(basis), list(system.points), lex_key)
            got = [as_dict(g) for g in kept]
            want = {(0,) * (n - 1) + (k,): c for k, c in enumerate(expected) if c}
            if got != [want]:
                errors.append("eliminant differs from prod(t - c) over the known last coordinates")
            miss = oracle.check_roots(roots, sorted(set(p[-1] for p in system.points)), ROOT_TOL)
            return errors, (miss[0] if miss else None)
        return check

    def check_katsura(result):
        basis, kept, roots = result
        g = as_dicts(basis)
        errors = _basis_errors(basis, gk.LEX) + oracle.check_reduced_monic(g, lex_key)
        errors += oracle.check_groebner(g, list(k3_inputs), lex_key)
        if oracle.standard_monomial_count([oracle.lead(p, lex_key)[0] for p in g], 4) != 8:
            errors.append("katsura-3 staircase does not hold 8 monomials")
        univariate = [p for p in g if all(not any(m[:3]) for m in p)]
        got = [as_dict(p) for p in kept]
        if got != univariate or len(univariate) != 1:
            errors.append("eliminate did not return the one basis element in u3 alone")
            return errors, None
        coeffs = [Fraction(0)] * (max(m[3] for m in univariate[0]) + 1)
        for m, c in univariate[0].items():
            coeffs[m[3]] = c
        miss = oracle.check_roots(roots, oracle.real_roots(coeffs, Fraction(ROOT_TOL)), ROOT_TOL)
        return errors, (miss[0] if miss else None)

    ops = []
    for _ in range(rounds):
        for _ in range(LEX_KATSURA3_PER_ROUND):
            ops.append(Op("katsura-3", pipeline(_parse(gk, k3_names, k3_texts)), check_katsura, "katsura-3"))
        for label, system in fixed:
            ops.append(Op(label, pipeline(_parse(gk, system.names, system.texts)), check_points(system), label))
        for shape in LEX_SHAPES:
            system = random_point_system(rng, shape)
            while not grid_resolves([p[-1] for p in system.points]):
                system = random_point_system(rng, shape)
            ops.append(Op(f"points{shape}", pipeline(_parse(gk, system.names, system.texts)),
                          check_points(system)))
    return ops


# ---- ik-sweep ----------------------------------------------------------

ARMS = ((1, 1), (2, 1), (Fraction(3, 2), Fraction(1, 2)))

# One operation solves a short trajectory of one arm: two float and two
# rational waypoints. A single ik_solve costs nearly the same for every
# target, so the tail of single calls would measure host noise, not the
# program; four calls per operation average it out.
WAYPOINT_KINDS = (False, True, False, True)  # exact (rational) or float

# ik_solve snaps a float coordinate to the nearest fraction with
# denominator at most 10^6, then keeps only poses whose forward kinematics
# land within 1e-8 of the float target. Next to a fraction of small
# denominator the snap can move a coordinate by up to about 5e-7, and then
# every pose is dropped. Float targets are drawn where the snap moves
# neither coordinate by more than SNAP_SLACK, the regime in which ik_solve
# loses no pose.
SNAP_DENOMINATOR = 10**6
SNAP_SLACK = 1e-9


def snap_keeps(value: float) -> bool:
    return abs(float(Fraction(value).limit_denominator(SNAP_DENOMINATOR)) - value) <= SNAP_SLACK


def ik_sweep(gk, rng, rounds):
    def target(l1, l2, exact: bool):
        inner, outer = abs(l1 - l2), l1 + l2
        while True:
            # Strictly inside the annulus, 10% of its width from either edge.
            radius = float(inner) + float(outer - inner) * rng.uniform(0.1, 0.9)
            phi = rng.uniform(-math.pi, math.pi)
            x, y = radius * math.cos(phi), radius * math.sin(phi)
            if exact:
                return Fraction(x).limit_denominator(97), Fraction(y).limit_denominator(97)
            if snap_keeps(x) and snap_keeps(y):
                return x, y

    def solve(arm, goals):
        return lambda: [gk.ik_solve(arm, goal) for goal in goals]

    def check(l1, l2, waypoints):
        def verdict(results):
            errors = []
            for (x, y), result in zip(waypoints, results):
                if result.diagnostic is not None:
                    errors.append(f"diagnostic {result.diagnostic!r} at ({x}, {y})")
                pairs = [(s.theta1, s.theta2) for s in result.solutions]
                errors += oracle.check_ik(pairs, float(l1), float(l2), float(x), float(y))
            if len(results) != len(waypoints):
                errors.append(f"{len(results)} results for {len(waypoints)} waypoints")
            return errors, None
        return verdict

    ops = []
    for _ in range(rounds):
        for l1, l2 in ARMS:
            waypoints = [target(l1, l2, exact) for exact in WAYPOINT_KINDS]
            goals = [gk.Target(x, y) for x, y in waypoints]
            ops.append(Op(f"ik trajectory arm ({l1}, {l2})", solve(gk.ArmSpec(l1, l2), goals), check(l1, l2, waypoints)))
    return ops


# ---- ideal-query -------------------------------------------------------

# Nine ideals of one shape, whose queries cost about what cyclic-4 queries
# cost, so that the percentiles fall inside one smooth distribution and no
# single draw sets a run's cost.
QUERY_SHAPES = ((2, 2, 2),) * 9


def cyclic4_points() -> list:
    """Rational points of the cyclic-4 variety: (t, s/t, -t, -s/t), s = +-1."""
    ts = (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 2))
    return [(t, s / t, -t, -s / t) for t in ts for s in (1, -1)]


def _random_poly(rng, n, degree, terms) -> dict:
    out = {}
    while not out:
        for _ in range(terms):
            exps = [0] * n
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(n)] += 1
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
            out = p_add(out, {tuple(exps): c})
    return out


def ideal_query(gk, rng, rounds):
    ideals = []
    for k, shape in enumerate(QUERY_SHAPES):
        s = random_point_system(rng, shape)
        ideals.append((f"points{shape}#{k}", s.names, s.texts, s.polys, list(s.points)))
    names, texts, polys = cyclic(4)
    ideals.append(("cyclic-4", names, texts, polys, cyclic4_points()))

    prepared = []
    for label, names, texts, polys, points in ideals:
        ctx = gk.VariableContext(names)
        basis = gk.groebner_basis(gk.parse_system(list(texts), ctx), gk.GREVLEX)
        leads = [oracle.lead(g, grevlex_key)[0] for g in as_dicts(basis)]
        prepared.append((label, names, texts, polys, points, ctx, basis, leads))

    verified = {}

    def basis_errors(label, basis, polys, points):
        """The queried bases come from set-up; check each once."""
        if label not in verified:
            g = as_dicts(basis)
            if label == "cyclic-4":
                errors = oracle.check_reduced_monic(g, grevlex_key) + oracle.check_groebner(g, list(polys), grevlex_key)
            else:
                errors = oracle.check_point_basis(g, points, grevlex_key)
            verified[label] = [f"set-up basis of {label}: {e}" for e in errors]
        return verified[label]

    def query(ctx, basis, text):
        def call():
            q = gk.parse_polynomial(text, ctx)
            member = gk.is_member(q, basis)
            remainder = gk.normal_form(q, list(basis.generators), gk.GREVLEX)
            return member, gk.format_polynomial(remainder, gk.GREVLEX)
        return call

    def check(ideal, extra, member):
        label, names, texts, polys, points, ctx, basis, leads = ideal

        def verdict(result):
            # Every generator vanishes at every known point, so the query
            # takes the value of its added part there.
            value_at = [p_eval(extra, pt) for pt in points]
            answer, text = result
            errors = list(basis_errors(label, basis, polys, points))
            if answer != member:
                errors.append(f"is_member returned {answer}, built {member}")
            rem = oracle.read_flat(text, names)
            if member != (not rem):
                errors.append(f"remainder {text!r} for a {'member' if member else 'non-member'}")
            for m in rem:
                if any(oracle.divides(lm, m) for lm in leads):
                    errors.append(f"remainder term {m} is divisible by a basis leading monomial")
            for point, value in zip(points, value_at):
                if p_eval(rem, point) != value:
                    errors.append(f"remainder differs from the query at {point}")
                    break
            return errors, None
        return verdict

    ops = []
    for _ in range(rounds):
        for ideal in prepared:
            label, names, texts, polys, points, ctx, basis, leads = ideal
            n = len(names)
            for member in (True, False):
                hs = [_random_poly(rng, n, 4, rng.randint(3, 5)) for _ in polys]
                parts = [f"({format_flat(h, names)})*({t})" for h, t in zip(hs, texts)]
                extra = {}
                if not member:
                    while not any(p_eval(extra, p) for p in points):
                        if rng.random() < 0.5:
                            extra = {(0,) * n: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))}
                        else:
                            extra = _random_poly(rng, n, 1, 2)
                    parts.append(f"({format_flat(extra, names)})")
                kind = "member" if member else "non-member"
                ops.append(Op(f"{label} {kind}", query(ctx, basis, " + ".join(parts)), check(ideal, extra, member)))
    return ops


WORKLOADS = {
    "grevlex-bases": grevlex_bases,
    "lex-eliminate": lex_eliminate,
    "ik-sweep": ik_sweep,
    "ideal-query": ideal_query,
}

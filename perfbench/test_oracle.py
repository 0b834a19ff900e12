"""Each oracle accepts the program's answer and rejects a corrupted one.

Run from the root of the checkout: python3 -m pytest perfbench
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import groebnerkit as gk  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from systems import cyclic, point_system  # noqa: E402


def first_ops(name, count=None):
    ops = workloads.WORKLOADS[name](gk, random.Random(f"{name}:test"), 1)
    return ops[:count] if count else ops


def with_coefficient_changed(basis):
    """The same basis with one trailing coefficient of its last element
    increased by one."""
    g = basis.generators[-1]
    lead = max(g.terms, key=basis.order.key_function())
    m = next(m for m in g.terms if m != lead)
    terms = dict(g.terms)
    terms[m] += 1
    return dataclasses.replace(basis, generators=basis.generators[:-1] + (gk.Polynomial(g.context, terms),))


@pytest.mark.parametrize("label", ["cyclic-4", "katsura-3", "katsura-4", "points(3, 3)"])
def test_grevlex_basis_with_one_coefficient_changed_is_rejected(label):
    op = next(o for o in first_ops("grevlex-bases") if o.label == label)
    basis = op.call()
    assert op.check(basis) == ([], None)
    errors, _ = op.check(with_coefficient_changed(basis))
    assert errors


def test_grevlex_basis_missing_an_element_is_rejected():
    op = next(o for o in first_ops("grevlex-bases") if o.label == "katsura-3")
    basis = op.call()
    errors, _ = op.check(dataclasses.replace(basis, generators=basis.generators[1:]))
    assert errors


def test_lex_answers_with_a_changed_coefficient_or_a_lost_root_are_rejected():
    op = next(o for o in first_ops("lex-eliminate") if o.label.startswith("points"))
    basis, kept, roots = op.call()
    assert op.check((basis, kept, roots)) == ([], None)
    errors, _ = op.check((with_coefficient_changed(basis), kept, roots))
    assert errors
    _, miss = op.check((basis, kept, roots[1:]))
    assert miss
    _, miss = op.check((basis, kept, [roots[0] + 1e-6] + roots[1:]))
    assert miss


def test_fixed_lex_systems_fail_only_on_their_roots():
    for op in first_ops("lex-eliminate"):
        if op.label.startswith("fixed"):
            errors, miss = op.check(op.call())
            assert errors == [] and miss, op.label


def test_ik_answer_with_a_dropped_or_moved_solution_is_rejected():
    op = first_ops("ik-sweep", 1)[0]
    results = op.call()
    assert op.check(results) == ([], None)
    first = results[0]
    dropped = dataclasses.replace(first, solutions=first.solutions[:1])
    assert op.check([dropped] + results[1:])[0]
    s = first.solutions[0]
    moved = dataclasses.replace(first, solutions=(dataclasses.replace(s, theta2=s.theta2 + 1e-4),) + first.solutions[1:])
    assert op.check([moved] + results[1:])[0]
    assert op.check(results[:-1])[0]


def test_ideal_query_with_a_flipped_answer_or_wrong_remainder_is_rejected():
    ops = first_ops("ideal-query", 2)  # a member and a non-member query
    for op in ops:
        member, text = op.call()
        assert op.check((member, text)) == ([], None)
        assert op.check((not member, text))[0]
    _, text = ops[1].call()
    assert ops[1].check((False, text + " + 1"))[0]


def test_point_systems_and_cyclic4_points_are_zeros():
    system = point_system(workloads.FIXED_FORMS, workloads.FIXED_OFFSETS)
    assert len(system.points) == 12
    for f in system.polys:
        assert all(oracle.p_eval(f, p) == 0 for p in system.points)
    _, _, polys = cyclic(4)
    for f in polys:
        assert all(oracle.p_eval(f, p) == 0 for p in workloads.cyclic4_points())


def test_sturm_roots_find_close_and_multiple_roots():
    close = workloads.eliminant([Fraction(1), Fraction(11, 10), Fraction(1000)])
    assert [round(r, 6) for r in map(float, oracle.real_roots(close, Fraction(1, 10**9)))] == [1.0, 1.1, 1000.0]
    # (x - 1/3)^2 (x - 2): the double root counts once.
    double = [Fraction(-2, 9), Fraction(13, 9), Fraction(-8, 3), Fraction(1)]
    roots = oracle.real_roots(double, Fraction(1, 10**9))
    assert [round(float(r), 6) for r in roots] == [round(1 / 3, 6), 2.0]


def test_read_flat_reads_the_program_format():
    ctx = gk.VariableContext(["x", "y"])
    p = gk.parse_polynomial("x^2*y - 3/2*y + 7 - x", ctx)
    text = gk.format_polynomial(p, gk.GREVLEX)
    assert oracle.read_flat(text, ["x", "y"]) == {(2, 1): 1, (0, 1): Fraction(-3, 2), (0, 0): 7, (1, 0): -1}

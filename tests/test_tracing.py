"""The benchmark's per-layer tracer still sees every layer of the program.

``perfbench/tracing.py`` counts calls by wrapping the public functions of
the package, so a refactor that routes work around one of them would
silently zero its counter. The tracer is compiled from its source text,
so nothing is imported from perfbench/ and no bytecode is written there.
"""

import types
from pathlib import Path

import groebnerkit as gk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

CTX = gk.VariableContext(["x", "y"])
SYSTEM = ["x^2 + y^2 - 4", "x*y - 1"]


def traced_metrics(run) -> dict:
    """Count and time metrics of one traced call of run()."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    tracer = module.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit in ("count", "ms")}


def touch_every_layer():
    system = gk.parse_system(SYSTEM, CTX)
    for g in gk.eliminate(gk.groebner_basis(system, gk.LEX), 1):
        gk.univariate_real_roots(g, 1e-9)
    grevlex = gk.groebner_basis(system, gk.GREVLEX)
    assert gk.is_member(gk.parse_polynomial("x^3*y - x^2", CTX), grevlex)
    rest = gk.normal_form(gk.parse_polynomial("x^3 + y", CTX), list(grevlex), gk.GREVLEX)
    gk.format_polynomial(rest, gk.LEX)
    # Nothing above reaches leading_term: the leads of a basis come from
    # the division kernel.
    gk.leading_term(rest, gk.GREVLEX)
    gk.ik_solve(gk.ArmSpec(1, 1), gk.Target(1, 1))


def test_every_layer_metric_is_nonzero():
    metrics = traced_metrics(touch_every_layer)
    del metrics["kinematics.completion_ms"]  # see the test below
    # Completion reduces its S-pairs inside the division kernel, and no
    # caller here builds an S-polynomial; see
    # test_completion_counts_its_own_reductions.
    del metrics["groebner.spoly_calls"]
    assert [k for k, v in metrics.items() if not v > 0] == []


def test_ik_solve_runs_no_completion():
    # ik_solve writes its reduced basis in closed form.
    metrics = traced_metrics(lambda: gk.ik_solve(gk.ArmSpec(1, 1), gk.Target(1, 1)))
    assert metrics["kinematics.completion_ms"] == 0
    assert metrics["kinematics.ik_solve_ms"] > 0


# Completion of SYSTEM as its own record counts it: (S-pairs reduced, new
# members, zero reductions).
TRACED_COMPLETION = {gk.LEX: (2, 2, 0), gk.GREVLEX: (1, 1, 0)}


def test_completion_counts_its_own_reductions():
    # Completion hands the kernel its pairs, so the tracer's wrappers see
    # none of its reductions; its own record counts them instead.
    system = gk.parse_system(SYSTEM, CTX)
    metrics = traced_metrics(lambda: gk.buchberger(system, gk.LEX))
    for name in ("groebner.spoly_calls", "groebner.normal_form_calls", "division.divide_calls"):
        assert metrics[name] == 0, name
    for order, (spolys, members, zeros) in TRACED_COMPLETION.items():
        stats = {}
        gk.buchberger(system, order, stats)
        assert (stats["s_pairs_reduced"], stats["new_members"], stats["zero_reductions"]) == (spolys, members, zeros)

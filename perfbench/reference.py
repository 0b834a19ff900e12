#!/usr/bin/env python3
"""Reference figures too slow to repeat in every run, each measured once.

    python3 perfbench/reference.py

Computes katsura-4 under lex and cyclic-5 under grevlex, prints the wall
time and the time scaled by the run.py probe, and checks each basis: monic,
reduced, the inputs reduce to zero, and the staircase holds 2^4 = 16 and
70 monomials (the solution counts of katsura-4 and cyclic-5).
"""

import statistics
import sys
import time

import oracle
from run import PROBE_REFERENCE_S, import_program, probe
from systems import cyclic, katsura

CASES = (
    ("katsura-4", "lex", katsura(4), 16),
    ("cyclic-5", "grevlex", cyclic(5), 70),
)


def main() -> int:
    gk = import_program()
    ok = True
    for label, order_name, (names, texts, inputs), solutions in CASES:
        order = gk.MonomialOrder(order_name)
        key = oracle.ORDER_KEYS[order_name]
        polys = gk.parse_system(list(texts), gk.VariableContext(names))
        probes = [probe() for _ in range(5)]
        start = time.perf_counter()
        basis = gk.groebner_basis(polys, order)
        elapsed = time.perf_counter() - start
        probes += [probe() for _ in range(5)]
        g = [{tuple(m): c for m, c in p.terms.items()} for p in basis.generators]
        errors = oracle.check_reduced_monic(g, key)
        errors += [f"input {i} does not reduce to zero" for i, f in enumerate(inputs) if oracle.reduce_full(f, g, key)]
        count = oracle.standard_monomial_count([oracle.lead(p, key)[0] for p in g], len(names))
        if count != solutions:
            errors.append(f"{count} standard monomials, {solutions} expected")
        scaled = elapsed * PROBE_REFERENCE_S / statistics.median(probes)
        print(f"{label} {order_name}: {elapsed:.2f} s wall, {scaled:.2f} s scaled, "
              f"{len(g)} generators, {'checked' if not errors else 'WRONG: ' + '; '.join(errors)}")
        ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

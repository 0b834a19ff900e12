"""Per-layer tracing from outside the program.

The tracer wraps every public function of the traced modules and puts the
wrapper into every ``groebnerkit`` module attribute that held the
original, so callers inside the package (``groebner.normal_form`` calling
``divide``, ``kinematics`` calling ``buchberger``) reach the wrapper too.
It also swaps the ``math`` module seen by ``fractions`` for a proxy that
counts ``gcd`` calls. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import json
import math
import sys
import time

LAYERS = ("parse", "order", "division", "groebner", "ideal", "kinematics")


class _CountingMath:
    """Stands in for ``math`` inside ``fractions``; counts gcd calls."""

    def __init__(self):
        self.gcd_calls = 0

    def gcd(self, *args):
        self.gcd_calls += 1
        return math.gcd(*args)

    def __getattr__(self, name):
        return getattr(math, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # [function index, start, end, parent span or -1, operation index, extra]
        self.spans: list[list] = []
        self.op = -1  # set by the caller; -1 is set-up
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._math = _CountingMath()

    # ---- patching ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"groebnerkit.{layer}"]
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[value] = self._wrap(f"{layer}.{name}", value)
        for module_name, module in list(sys.modules.items()):
            if module_name != "groebnerkit" and not module_name.startswith("groebnerkit."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrappers[value])
        self._undo.append((fractions, "math", fractions.math))
        fractions.math = self._math

    def untraced(self, fn):
        """Call fn with fractions using the real math module again."""
        fractions.math = math
        try:
            return fn()
        finally:
            fractions.math = self._math

    def uninstall(self) -> None:
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_result = name == "groebner.buchberger"
        flag_zero = name == "groebner.normal_form"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep_result:
                record[5] = result
            elif flag_zero:
                record[5] = result.is_zero()
            return result

        return wrapper

    # ---- per-layer metrics ---------------------------------------------

    def metrics(self, scale: float = 1.0) -> dict:
        """Per-layer metrics; times are multiplied by ``scale``."""
        names, spans = self.names, self.spans
        name_of = [names[s[0]] for s in spans]
        duration = [(s[2] - s[1]) * scale for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, duration):
            if s[3] >= 0:
                child_time[s[3]] += d

        def has_ancestor(i, wanted) -> bool:
            parent = spans[i][3]
            while parent >= 0:
                if name_of[parent] in wanted:
                    return True
                parent = spans[parent][3]
            return False

        def total_ms(wanted, inside=None) -> float:
            """Inclusive time of spans named in ``wanted`` that are not
            nested in another such span, optionally only under ``inside``."""
            return 1000 * sum(
                d
                for i, d in enumerate(duration)
                if name_of[i] in wanted
                and not has_ancestor(i, wanted)
                and (inside is None or has_ancestor(i, inside))
            )

        def self_ms(wanted) -> float:
            return 1000 * sum(d - child_time[i] for i, d in enumerate(duration) if name_of[i] == wanted)

        def count(wanted) -> int:
            return sum(1 for n in name_of if n == wanted)

        raw_bases = [s[5] for i, s in enumerate(spans) if name_of[i] == "groebner.buchberger"]
        sizes = [len(b.generators) for b in raw_bases]
        bits = [
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for b in raw_bases
            for g in b.generators
            for c in g.terms.values()
        ]
        nf_zero = [s[5] for i, s in enumerate(spans) if name_of[i] == "groebner.normal_form"]
        completion = ("groebner.buchberger", "groebner.reduce_basis")
        return {
            "parse.parse_ms": (total_ms({"parse.parse_polynomial", "parse.parse_system"}), "ms"),
            "parse.format_ms": (total_ms({"parse.format_polynomial"}), "ms"),
            "order.leading_term_calls": (count("order.leading_term"), "count"),
            "division.divide_calls": (count("division.divide"), "count"),
            "division.divide_ms": (total_ms({"division.divide"}), "ms"),
            "groebner.pairs_total": (sum(n * (n - 1) // 2 for n in sizes), "count"),
            "groebner.spoly_calls": (count("groebner.s_polynomial"), "count"),
            "groebner.normal_form_calls": (len(nf_zero), "count"),
            "groebner.zero_reductions": (sum(nf_zero), "count"),
            "groebner.useful_ratio": ((len(nf_zero) - sum(nf_zero)) / len(nf_zero) if nf_zero else 0.0, "ratio"),
            "groebner.raw_basis_size": (sum(sizes), "count"),
            "groebner.buchberger_self_ms": (self_ms("groebner.buchberger"), "ms"),
            "groebner.normal_form_ms": (total_ms({"groebner.normal_form"}), "ms"),
            "groebner.reduce_basis_ms": (total_ms({"groebner.reduce_basis"}), "ms"),
            "ring.coeff_bits_max": (max(bits, default=0), "bits"),
            "ring.gcd_calls": (self._math.gcd_calls, "count"),
            "ideal.real_roots_calls": (count("ideal.univariate_real_roots"), "count"),
            "ideal.real_roots_ms": (total_ms({"ideal.univariate_real_roots"}), "ms"),
            "ideal.eliminate_ms": (total_ms({"ideal.eliminate"}), "ms"),
            "ideal.is_member_ms": (total_ms({"ideal.is_member"}), "ms"),
            "kinematics.ik_solve_ms": (total_ms({"kinematics.ik_solve"}), "ms"),
            "kinematics.completion_ms": (total_ms(set(completion), inside={"kinematics.ik_solve"}), "ms"),
            "kinematics.roots_ms": (total_ms({"ideal.univariate_real_roots"}, inside={"kinematics.ik_solve"}), "ms"),
            "kinematics.backsub_ms": (self_ms("kinematics.ik_solve"), "ms"),
        }

    def dump(self, path) -> None:
        """Write spans as JSON: times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [s[0], round(s[1] - origin, 9), round(s[2] - origin, 9), s[3], s[4]]
            for s in self.spans
        ]
        with open(path, "w") as out:
            json.dump({"functions": self.names, "columns": ["function", "start", "end", "parent", "op"],
                       "spans": rows, "gcd_calls": self._math.gcd_calls}, out)

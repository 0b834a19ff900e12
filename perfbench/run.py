#!/usr/bin/env python3
"""Fixed-work benchmark of groebnerkit, run from the root of a checkout.

    python3 perfbench/run.py --workload grevlex-bases --seed 1 --seconds 15 --trace 0

Every run builds a fixed list of operations from the seed: whole rounds
of a per-workload mix, as many rounds as take about --seconds on the
reference machine (ROUND_SECONDS), whatever the speed of the machine
running it. Operations run one after another in one thread; each is
timed alone, and its output is checked against the oracle as soon as
its timer stops.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same list
untraced and then traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to perfbench/out/. --workload all runs
the four workloads in turn in this process. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Scaled seconds one round takes, that is, seconds on the reference machine
# on which probe() takes PROBE_REFERENCE_S; a run of S seconds attempts
# round(S / ROUND_SECONDS) rounds.
ROUND_SECONDS = {
    "grevlex-bases": 0.65,
    "lex-eliminate": 5.4,
    "ik-sweep": 0.3,
    "ideal-query": 0.28,
}
SETUP_REPEATS = 5

# Times are scaled to a reference machine on which probe() takes this long.
# On a shared host the speed of the processor drifts by a quarter within
# seconds; the probe, timed before every operation, drifts with it.
PROBE_REFERENCE_S = 0.0015
PROBE_WINDOW = 4


def probe() -> float:
    """Fixed pure-Python Fraction and dict work, independent of the program."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 500):
        acc += Fraction(i, i + 7)
        table[(i % 17, i % 5)] = acc
    return time.perf_counter() - start


def scaled(raw, probes) -> list:
    """raw[i] ran between probes[i] and probes[i + 1]; scale it by the
    median probe of the window around it."""
    half = PROBE_WINDOW // 2
    return [
        t * PROBE_REFERENCE_S / statistics.median(probes[max(0, i - half + 1): i + half + 1])
        for i, t in enumerate(raw)
    ]


def import_program():
    """Import groebnerkit afresh from this checkout's src/ and nowhere else."""
    for name in [n for n in sys.modules if n == "groebnerkit" or n.startswith("groebnerkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gk = importlib.import_module("groebnerkit")
    if Path(gk.__file__).resolve().parent != SRC / "groebnerkit":
        raise ImportError(f"groebnerkit was imported from {gk.__file__}, not from {SRC}")
    return gk


def set_up(name, seed, rounds, tracer=None):
    """Import the program, generate and parse the inputs and compute the
    bases the operations query. Returns the operations and the scaled
    set-up time. Under a tracer the program is not imported again: the
    tracer patched the modules already loaded."""
    timer = tracer.untraced if tracer else _call
    before = [timer(probe) for _ in range(3)]
    start = time.perf_counter()
    gk = sys.modules["groebnerkit"] if tracer else import_program()
    ops = workloads.WORKLOADS[name](gk, random.Random(f"{name}:{seed}"), rounds)
    elapsed = time.perf_counter() - start
    after = [timer(probe) for _ in range(3)]
    return ops, elapsed * PROBE_REFERENCE_S / statistics.median(before + after)


def _call(fn):
    return fn()


def run_ops(ops, tracer=None):
    """Run every operation once, in order, and check each output as soon
    as its timer stops, so no output outlives its check. Returns raw
    seconds, scaled seconds, the speed factor of the whole pass, and the
    messages for wrong answers and for failed operations."""
    untraced = tracer.untraced if tracer else _call
    raw, probes, wrong, failed, seen = [], [], [], [], {}
    # The inputs of operations still to come are the benchmark's objects,
    # not the program's: keep the collector from walking them inside
    # the program's calls.
    gc.collect()
    gc.freeze()
    for index, op in enumerate(ops):
        probes.append(untraced(probe))
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:
            out = exc
        raw.append(time.perf_counter() - start)
        errors, miss = untraced(lambda: check(op, out, seen))
        wrong.extend(f"{op.label}: {e}" for e in errors)
        if miss:
            failed.append(f"{op.label}: {miss}")
    probes.append(untraced(probe))
    gc.unfreeze()
    return raw, scaled(raw, probes), PROBE_REFERENCE_S / statistics.median(probes), wrong, failed


def check(op, out, seen):
    """The oracle's verdict (errors, miss) on one output. An operation
    with a key is held to the first output for its key, which is checked
    in full; ``seen`` keeps that output."""
    if isinstance(out, Exception):
        return [], f"raised {out!r}"
    if op.key is None:
        return op.check(out)
    if op.key not in seen:
        seen[op.key] = (out, op.check(out))
    first, verdict = seen[op.key]
    if out is not first and not _same(out, first):
        return [f"output differs from the first {op.key} output"], None
    return verdict


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "generators"):
        return workloads.canonical(workloads.as_dicts(a)) == workloads.canonical(workloads.as_dicts(b))
    if isinstance(a, list) and a and hasattr(a[0], "terms"):
        return [dict(p.terms) for p in a] == [dict(p.terms) for p in b]
    return a == b


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(times, setups) -> dict:
    ms = sorted(1000 * t for t in times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_workload(name, seed, seconds, trace):
    rounds = max(1, round(seconds / ROUND_SECONDS[name]))
    setups = []
    for _ in range(SETUP_REPEATS):
        ops = None  # drop the previous set-up's inputs before the next one
        ops, elapsed = set_up(name, seed, rounds)
        setups.append(elapsed)
    raw, times, _, wrong, failed = run_ops(ops)
    summary = {"ops": len(ops), "rounds": rounds, "wrong": wrong, "failed": failed}
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_ops, _ = set_up(name, seed, rounds, tracer)
            _, traced_times, factor, traced_wrong, traced_failed = run_ops(traced_ops, tracer)
        finally:
            tracer.uninstall()
        wrong.extend(f"traced: {w}" for w in traced_wrong)
        if len(traced_failed) != len(failed):
            wrong.append(f"traced run failed {len(traced_failed)} operations, untraced {len(failed)}")
        metrics = tracer.metrics(factor)
        metrics["trace.overhead_pct"] = (100 * (sum(traced_times) / sum(times) - 1), "%")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
    else:
        metrics = end_to_end(times, setups)
    summary["metrics"] = metrics
    summary["raw_wall_s"] = sum(raw)
    summary["ops_detail"] = [[op.label, round(1000 * r, 4), round(1000 * t, 4)] for op, r, t in zip(ops, raw, times)]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = summary
        for message in summary["wrong"][:10] + summary["failed"][:10]:
            print(f"{name}: {message}", file=sys.stderr)
        print(f"{name}: {summary['ops']} operations in {summary['rounds']} rounds, "
              f"{len(summary['failed'])} failed, {len(summary['wrong'])} wrong")
        for metric, (value, unit) in summary["metrics"].items():
            print(f"  {metric:28s} {value:14.4f} {unit}")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as out:
            json.dump(summary, out)

    def metric_key(name, metric):
        return metric if len(names) == 1 else f"{name}.{metric}"

    line = {
        "correct": all(not r["wrong"] for r in results.values()),
        "attempted": sum(r["ops"] for r in results.values()),
        "failed": sum(len(r["failed"]) for r in results.values()),
        "metrics": {
            metric_key(name, metric): {"value": value, "unit": unit}
            for name, r in results.items()
            for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The golden CLI table, replayed with the standard library alone: stdout,
stderr and exit code for a fixed table of invocations, covering every
subcommand and format, the usage and domain errors, and every --help. SVG
output is pinned by its SHA-256 digest, and the temporary paths an
invocation names appear in stderr as their {output}, {trajectory} or
{missing} placeholders.

The values live in cli_golden.json next to this file. Check them on any
interpreter, with no test runner, by

    PYTHONPATH=src python tests/cli_golden.py --check

which names each row that differs and exits 1 if any does. After a change
that is meant to alter CLI output, regenerate them with

    PYTHONPATH=src python tests/cli_golden.py

and review the diff of cli_golden.json row by row.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from groebnerkit.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")

# argparse wraps help to the terminal width, which it reads from COLUMNS.
COLUMNS = "80"

TRAJECTORY = "x,y\n1,1\n3,0\n2,0\n0.5,-0.25\n"

IK = ["ik", "--l1", "1", "--l2", "1"]
OSC = ["oscillator", "--m", "1", "--k", "1", "--y0", "0", "--y1", "1", "--t-end", "1", "--n", "4"]
WORKED = ["--vars", "x,y", "x^3-2*x*y", "x^2*y-2*y^2+x"]
CASES = {
    # groebner
    "groebner-text": ["groebner", *WORKED],
    "groebner-grlex": ["groebner", "--order", "grlex", *WORKED],
    "groebner-lex-json": ["groebner", "--order", "lex", "--format", "json", *WORKED],
    "groebner-no-reduce": ["groebner", "--no-reduce", "--order", "grlex", *WORKED],
    "groebner-output": ["groebner", "--output", "{output}", *WORKED],
    "groebner-zero": ["groebner", "--vars", "x", "0"],
    # divide
    "divide-text": ["divide", "--vars", "x,y", "--order", "lex", "x^2*y+x*y^2+y^2", "--", "x*y-1", "y^2-1"],
    "divide-json": ["divide", "--vars", "x,y", "--format", "json", "x^2*y+x*y^2+y^2", "--", "y^2-1", "x*y-1"],
    "divide-by-zero": ["divide", "--vars", "x,y", "x", "--", "0"],
    # member
    "member-true": ["member", "--vars", "x,y", "x^2*y", "--", "x^3-2*x*y", "x^2*y-2*y^2+x"],
    "member-false-json": ["member", "--vars", "x,y", "--format", "json", "x", "--", "x^2", "y"],
    "member-leading-minus": ["member", "--vars", "x,y,z", "-x*y", "--", "1"],
    # eliminate
    "eliminate-text": ["eliminate", "--vars", "x,y,z", "--keep", "1", "x^2+y+z-1", "x+y^2+z-1", "x+y+z^2-1"],
    "eliminate-json": ["eliminate", "--vars", "x,y", "--keep", "1", "--format", "json", "x^2-y", "x*y-1"],
    "eliminate-grevlex-note": ["eliminate", "--vars", "x,y", "--keep", "1", "--order", "grevlex", "x-y^2", "x-1"],
    "eliminate-keep-0": ["eliminate", "--vars", "x,y", "--keep", "0", "x-y"],
    "eliminate-keep-3": ["eliminate", "--vars", "x,y", "--keep", "3", "x-y"],
    # staircase
    "staircase-svg": ["staircase", "--vars", "x,y", "x^3", "x*y^2", "y^4"],
    "staircase-svg-cell": ["staircase", "--vars", "x,y", "--cell", "20", "--order", "lex", "x^2-y", "y^3"],
    "staircase-text": ["staircase", "--vars", "x,y", "--format", "text", "x^3", "x*y^2", "y^4"],
    "staircase-json": ["staircase", "--vars", "x,y", "--format", "json", "x^3", "x*y^2", "y^4"],
    "staircase-three-vars": ["staircase", "--vars", "x,y,z", "x"],
    "staircase-cell-0": ["staircase", "--vars", "x,y", "--cell", "0", "x"],
    "staircase-svg-over-bound": ["staircase", "--vars", "x,y", "x^1000000", "y^1000000"],
    # ik
    "ik-text": [*IK, "--x", "1", "--y", "1"],
    "ik-csv": [*IK, "--x", "1.2", "--y", "0.5", "--format", "csv"],
    "ik-json": [*IK, "--x", "0.5", "--y", "-1.1", "--format", "json"],
    "ik-unreachable": [*IK, "--x", "3", "--y", "0"],
    "ik-boundary": [*IK, "--x", "2", "--y", "0"],
    "ik-near-origin": [*IK, "--x", "1e-4", "--y", "0"],
    "ik-float-arm-tol": [
        "ik", "--l1", "0.3986196605015865", "--l2", "0.6013803394984135",
        "--x", "0.5999667845020998", "--y", "-0.5615315927524492", "--tol", "1e-12",
    ],
    "ik-unequal-arm": ["ik", "--l1", "2", "--l2", "0.5", "--x", "-1.7", "--y", "0.9", "--tol", "1e-6"],
    "ik-trajectory-text": [*IK, "--trajectory", "{trajectory}"],
    "ik-trajectory-csv": [*IK, "--trajectory", "{trajectory}", "--format", "csv"],
    "ik-trajectory-json": [*IK, "--trajectory", "{trajectory}", "--format", "json"],
    "ik-origin": [*IK, "--x", "0", "--y", "0"],
    "ik-missing-target": IK,
    "ik-missing-trajectory": [*IK, "--trajectory", "{missing}"],
    "ik-non-finite": [*IK, "--x", "inf", "--y", "0"],
    "ik-negative-link": ["ik", "--l1", "-1", "--l2", "1", "--x", "1", "--y", "0"],
    "ik-tol-below-floor": [*IK, "--x", "1.2", "--y", "0.5", "--tol", "1e-17"],
    "ik-exponent-target": [*IK, "--x", "1e-05", "--y", "1.25"],
    "ik-exponent-arm": ["ik", "--l1", "2.5e-1", "--l2", "1", "--x", "0.75", "--y", "5e-1"],
    "ik-shortest-decimal": [*IK, "--x", "0.30000000000000004", "--y", "1.2e0", "--format", "json"],
    # oscillator
    "oscillator-csv": OSC,
    "oscillator-damped-csv": ["oscillator", "--m", "2", "--k", "3", "--b", "0.5", "--t-end", "2", "--n", "3"],
    "oscillator-svg": [*OSC, "--format", "svg"],
    "oscillator-svg-size": [*OSC, "--format", "svg", "--svg-width", "500", "--svg-height", "300"],
    "oscillator-output": [*OSC, "--output", "{output}"],
    "oscillator-overdamped": ["oscillator", "--m", "1", "--k", "1", "--b", "5"],
    "oscillator-nan": ["oscillator", "--m", "1", "--k", "1", "--y0", "nan"],
    "oscillator-svg-width": [*OSC, "--format", "svg", "--svg-width", "100"],
    "oscillator-bad-n": ["oscillator", "--m", "1", "--k", "1", "--n", "many"],
    "oscillator-n-over-bound": ["oscillator", "--m", "1", "--k", "1", "--n", "100001"],
    # usage and syntax errors
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "unknown-flag": ["groebner", *WORKED, "--frobnicate"],
    "bad-format": ["groebner", "--format", "svg", *WORKED],
    "bad-order": ["groebner", "--order", "revlex", *WORKED],
    "missing-vars": ["groebner", "x"],
    "missing-exprs": ["groebner", "--vars", "x,y"],
    "duplicate-vars": ["groebner", "--vars", "x,x", "x"],
    "syntax-error": ["groebner", "--vars", "x,y", "x +"],
    "unknown-variable": ["member", "--vars", "x,y", "x*z", "--", "x"],
    "power-budget": ["groebner", "--vars", "x,y,z", "(x+y+z)^300"],
    "product-budget": ["groebner", "--vars", "x,y,z", "(x+y+z)^61*(3/2)^400000"],
    "sum-budget": ["groebner", "--vars", "x", " + ".join(f"(1/{p})^240000*x" for p in (3, 5, 7, 11, 13))],
    "long-literal": ["groebner", "--vars", "x", "1" * 5000 + "*x"],
    "unwritable-output": ["groebner", "--output", "{missing}/out.txt", *WORKED],
    # help
    "help": ["--help"],
    **{
        f"help-{name}": [name, "--help"]
        for name in ("groebner", "divide", "member", "eliminate", "staircase", "ik", "oscillator")
    },
}


def _pin(text: str):
    """SVG by digest, anything else verbatim."""
    if text.startswith("<svg"):
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    return text


def _invoke(argv: list[str], tmp: Path) -> dict:
    paths = {
        "output": str(tmp / "out"),
        "trajectory": str(tmp / "trajectory.csv"),
        "missing": str(tmp / "missing"),
    }
    (tmp / "trajectory.csv").write_text(TRAJECTORY)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run([arg.format(**paths) for arg in argv])
    err = stderr.getvalue()
    for name, path in paths.items():
        err = err.replace(path, f"{{{name}}}")
    record = {"exit": code, "stdout": _pin(stdout.getvalue()), "stderr": err}
    output = tmp / "out"
    if output.exists():
        record["file"] = _pin(output.read_text())
    return record


def _replay() -> dict:
    os.environ["COLUMNS"] = COLUMNS
    records = {}
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = _invoke(argv, Path(tmp))
    return records


def _regenerate() -> None:
    records = _replay()
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")


def _check() -> int:
    """Replay the table against cli_golden.json: 0 if every row matches,
    else 1, naming each row that differs or is missing on either side."""
    golden, records = json.loads(GOLDEN.read_text()), _replay()
    cases = golden.keys() | records.keys()
    differ = sorted(case for case in cases if golden.get(case) != records.get(case))
    for case in differ:
        print(f"differs: {case}")
    print(f"{len(records) - len(differ)} of {len(records)} rows match {GOLDEN.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args not in ([], ["--check"]):
        sys.exit("usage: cli_golden.py [--check]")
    sys.exit(_check() if args else _regenerate())

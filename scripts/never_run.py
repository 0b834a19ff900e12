"""List the statements of a package that no test runs.

Usage: python scripts/never_run.py PACKAGE TEST... [PYTEST OPTION...]

Runs pytest in this process on the TEST paths, every argument after
PACKAGE passed on as given, under a line tracer made of the standard
library alone (sys.settrace and threading.settrace). Then prints, for
each module of the PACKAGE directory (not searched recursively), the
lines holding a statement that no test ran, with their source, and the
totals. A statement is a line that some code object of the module
compiles to; a def or class line counts as the module's own statement,
run when the module is imported. pytest's own report goes to stderr, so
stdout holds the list alone. Exits with pytest's exit code.

Tracing makes the tests about three times slower.
"""

import contextlib
import os
import sys
import threading
from pathlib import Path

import pytest


def statements(path: Path) -> set[int]:
    """The lines of a module that its code objects compile to, less each
    function's and class's first line, which its enclosing code runs."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
    lines, stack = set(), [module]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code is not module:
            own.discard(code.co_firstlineno)
        lines |= own
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def traced(package: Path, pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest under the tracer: its exit code, and the lines of each
    module of package that ran."""
    modules = {os.path.realpath(m): m for m in sorted(package.glob("*.py"))}
    ran = {m: set() for m in modules.values()}
    local_tracers = {}  # co_filename -> the tracer of its module's frames, or None

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_tracers:
            module = modules.get(os.path.realpath(filename))
            local_tracers[filename] = None if module is None else recorder(ran[module])
        return local_tracers[filename]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def report(ran: dict[Path, set[int]]) -> None:
    total = missed = 0
    for module, lines in ran.items():
        expected = statements(module)
        never = sorted(expected - lines)
        total, missed = total + len(expected), missed + len(never)
        print(f"{module}: {len(never)} of {len(expected)} statements never ran")
        source = module.read_text(encoding="utf-8").splitlines()
        for line in never:
            print(f"{line:6}  {source[line - 1].strip()}")
    print(f"total: {missed} of {total} statements never ran")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: never_run.py PACKAGE TEST... [PYTEST OPTION...]", file=sys.stderr)
        return 2
    code, ran = traced(Path(argv[0]), argv[1:])
    report(ran)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the physical and the code lines of each Python module.

Usage: python scripts/line_count.py PATH...

Each PATH is a module or a directory of modules (not searched
recursively). Code lines leave out docstrings, comments and blank lines,
as read by tokenize: a string that opens a statement is a docstring.
Prints one row per module, then the totals.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int]:
    """The physical and the code lines of one module."""
    with tokenize.open(path) as source:
        text = source.read()
    lines, last = set(), tokenize.NEWLINE
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        docstring = token.type == tokenize.STRING and last in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
        if token.type not in (tokenize.COMMENT, tokenize.NL):
            last = token.type
    return len(text.splitlines()), len(lines)


def main(paths: list[str]) -> None:
    modules = [m for p in map(Path, paths) for m in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    print(f"{'physical':>8} {'code':>7}  module")
    physical = code = 0
    for module in modules:
        p, c = count(module)
        physical, code = physical + p, code + c
        print(f"{p:8} {c:7}  {module}")
    print(f"{physical:8} {code:7}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

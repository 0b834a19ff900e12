"""Command-line surface: parse inputs, run computations, emit results.

Subcommands cover basis computation, division, membership, elimination,
staircase diagrams, inverse kinematics, and oscillator sampling. Each
declares the output formats it accepts (text, JSON, CSV, SVG) for its
--format flag, the first being the default, so a bad format is a usage
error like any other bad flag. Every parser reads a token of one dash
other than -h, such as -x*y or -5e-1, as a value. Exit codes: 0 on
success, 1 on domain errors, 2 on usage or expression-syntax errors;
usage errors are reported before any computation starts.

Every subcommand follows one protocol. argparse reads --order into a
MonomialOrder and --format into args.fmt. Then run reads --vars, for
the commands that take it, into the ring args.ctx, and only then calls
the command's handler, handler(args) -> str, which returns the whole
output for run to write to stdout or --output. A handler refuses its
own bad flags before it parses an expression, and parses through
_parse. Each handler but the SVG outputs returns through _render, which
lays out the JSON payload (the order when the command reports one, then
vars when it reads --vars, then the command's fields) or else the
command's lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Optional, Sequence

from .division import divide
from .groebner import buchberger, groebner_basis, reduce_basis
from .ideal import StaircaseDiagram, eliminate, is_member, staircase
from .kinematics import ArmSpec, Target, ik_solve
from .order import MonomialOrder
from .oscillator import OscillatorParams, Sample, sample, solve_ivp
from .parse import ParseError, format_polynomial, parse_system
from .ring import Polynomial, VariableContext

ORDER_NAMES = tuple(order.value for order in MonomialOrder)

# Blank border, in px, on each side of the oscillator plot.
_PLOT_MARGIN = 50

# Most oscillator samples, and most staircase cells drawn as SVG (a
# 400 x 400 diagram). At its bound the oscillator renders in about a
# second, and the staircase in about 0.5 s with nearly every cell shaded,
# on a 2-core VM; the time and memory grow with the count.
MAX_SAMPLES = 100_000
MAX_SVG_CELLS = 400 * 400


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a token of one dash and more, such as
    -x*y or -5e-1, for a value, not for an unknown option; -h and every
    --flag are still read as options."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] not in ("", "-") and arg_string != "-h":
            return None  # a positional
        return super()._parse_optional(arg_string)


def _int_above(floor: int, ceiling: Optional[int] = None):
    """argparse type: an integer greater than floor and, when a ceiling is
    given, at most the ceiling."""

    def parse(text: str) -> int:
        value = int(text)
        if value <= floor:
            raise argparse.ArgumentTypeError(f"must be greater than {floor}, got {value}")
        if ceiling is not None and value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _choice_flag(p: argparse.ArgumentParser, flag: str, names: tuple[str, ...], kind, **kwargs) -> None:
    """Add flag taking one of names, read as kind(name) and shown as
    {a,b,...} in usage and help; argparse reads a default name the same
    way. A bad value is refused in the words argparse's choices used up
    to 3.13.0, worded here because later versions word it differently."""

    def parse(text: str):
        if text not in names:
            listed = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {listed})")
        return kind(text)

    p.add_argument(flag, type=parse, metavar="{" + ",".join(names) + "}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    # A metavar and a fixed help column keep argparse from laying out the
    # usage line and the command list differently on each Python version;
    # a column wider than 14 splits 3.12 from 3.13 again.
    parser = _Parser(
        prog="groebnerkit",
        description="Exact-arithmetic Groebner basis toolkit",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=14),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    @contextmanager
    def command(name, handler, formats, help, *, variables=True, order="grevlex"):
        """Declare subcommand name, run by handler. The arguments added in
        the with block come after --vars and before --order, --format and
        --output, the order help lists them in; order is the default of
        --order, None for no --order."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if variables:
            p.add_argument("--vars", required=True)
        yield p
        if order:
            _choice_flag(p, "--order", ORDER_NAMES, MonomialOrder, default=order)
        _choice_flag(p, "--format", formats, str, default=formats[0], dest="fmt")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    with command("groebner", _cmd_groebner, ("text", "json"),
                 "reduced Groebner basis of the input system") as p:
        p.add_argument("--no-reduce", action="store_true", help="print the raw completed basis")
        p.add_argument("exprs", nargs="+", metavar="EXPR")

    with command("divide", _cmd_divide, ("text", "json"),
                 "divide F by an ordered divisor list: F -- D1 D2 ...") as p:
        p.add_argument("f", metavar="F")
        p.add_argument("divisors", nargs="+", metavar="D")

    with command("member", _cmd_member, ("text", "json"),
                 "ideal membership: F -- G1 G2 ...") as p:
        p.add_argument("f", metavar="F")
        p.add_argument("generators", nargs="+", metavar="G")

    with command("eliminate", _cmd_eliminate, ("text", "json"),
                 "elimination ideal basis; always computed under lex", order="lex") as p:
        p.add_argument("--keep", type=int, required=True, help="trailing variables to keep")
        p.add_argument("exprs", nargs="+", metavar="EXPR")

    with command("staircase", _cmd_staircase, ("svg", "text", "json"),
                 "staircase diagram of the leading-term ideal") as p:
        p.add_argument("--cell", type=_int_above(0), default=40, help="cell size in px for SVG")
        p.add_argument("exprs", nargs="+", metavar="EXPR")

    with command("ik", _cmd_ik, ("text", "csv", "json"),
                 "two-link planar inverse kinematics", variables=False, order=None) as p:
        p.add_argument("--l1", type=float, required=True)
        p.add_argument("--l2", type=float, required=True)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--y", type=float, default=None)
        p.add_argument("--trajectory", default=None, help="CSV of x,y waypoints")
        p.add_argument("--tol", type=float, default=1e-9)

    with command("oscillator", _cmd_oscillator, ("csv", "svg"),
                 "sample the underdamped closed-form solution", variables=False, order=None) as p:
        p.add_argument("--m", type=float, required=True)
        p.add_argument("--k", type=float, required=True)
        p.add_argument("--b", type=float, default=0.0)
        p.add_argument("--y0", type=float, default=1.0)
        p.add_argument("--y1", type=float, default=0.0)
        p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
        p.add_argument("--n", type=_int_above(1, MAX_SAMPLES), default=200)
        p.add_argument("--svg-width", type=_int_above(2 * _PLOT_MARGIN), default=640)
        p.add_argument("--svg-height", type=_int_above(2 * _PLOT_MARGIN), default=400)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)

    try:
        if "vars" in args:
            args.ctx = _context(args.vars)
        text = args.handler(args)
    except (ParseError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        _emit(text, args.output)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _context(spec: str) -> VariableContext:
    names = [n.strip() for n in spec.split(",") if n.strip()]
    try:
        return VariableContext(names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse(args, *texts: str) -> list[Polynomial]:
    """The expressions texts over the ring args.ctx; any bad one rejects
    the lot."""
    return parse_system(list(texts), args.ctx)


def _render(args, order: Optional[MonomialOrder], fields: dict, lines: list[str]) -> str:
    """Under --format json the payload: the order the command reports
    (none when order is None), the ring's variables when it reads --vars,
    then fields. Under any other format the lines, one to a line."""
    if args.fmt != "json":
        return "".join(line + "\n" for line in lines)
    head = {"order": order.value} if order else {}
    if "ctx" in args:
        head["vars"] = list(args.ctx.names)
    return json.dumps({**head, **fields}, indent=2) + "\n"


# ---- subcommand handlers ------------------------------------------------


def _cmd_groebner(args) -> str:
    basis = buchberger(_parse(args, *args.exprs), args.order)
    if not args.no_reduce:
        basis = reduce_basis(basis)
    # Largest leading monomial first for display.
    lines = [format_polynomial(g, args.order) for g in reversed(basis.generators)]
    return _render(args, args.order, {"basis": lines}, lines)


def _cmd_divide(args) -> str:
    f, *divisors = _parse(args, args.f, *args.divisors)
    result = divide(f, divisors, args.order)
    quotients = [format_polynomial(q, args.order) for q in result.quotients]
    remainder = format_polynomial(result.remainder, args.order)
    lines = [f"q{i} = {q}" for i, q in enumerate(quotients, 1)] + [f"remainder = {remainder}"]
    return _render(args, args.order, {"quotients": quotients, "remainder": remainder}, lines)


def _cmd_member(args) -> str:
    f, *generators = _parse(args, args.f, *args.generators)
    verdict = is_member(f, groebner_basis(generators, args.order))
    return _render(args, args.order, {"member": verdict}, ["true" if verdict else "false"])


def _cmd_eliminate(args) -> str:
    if args.keep < 1 or args.keep > len(args.ctx):
        raise _UsageError(f"--keep must be between 1 and {len(args.ctx)}")
    if args.order is not MonomialOrder.LEX:
        print("note: elimination requires lex; computing under lex", file=sys.stderr)
    basis = groebner_basis(_parse(args, *args.exprs), MonomialOrder.LEX)
    lines = [format_polynomial(g, MonomialOrder.LEX) for g in reversed(eliminate(basis, args.keep))]
    return _render(args, MonomialOrder.LEX, {"keep": args.keep, "basis": lines}, lines)


def _cmd_staircase(args) -> str:
    if len(args.ctx) != 2:
        raise _UsageError("staircase supports 2 variables")
    diagram = staircase(groebner_basis(_parse(args, *args.exprs), args.order))
    if args.fmt == "svg":
        if diagram.width * diagram.height > MAX_SVG_CELLS:
            raise ValueError(
                f"staircase diagram of {diagram.width} x {diagram.height} cells is over "
                f"the SVG bound of {MAX_SVG_CELLS} cells; use --format text or json"
            )
        return _staircase_svg(diagram, args.ctx.names, args.cell)
    generators = diagram.minimal_generators
    fields = {"generators": [list(g) for g in generators], "width": diagram.width, "height": diagram.height}
    return _render(args, None, fields, [f"{a} {b}" for a, b in generators])


def _cmd_ik(args) -> str:
    arm = ArmSpec(args.l1, args.l2)
    if args.trajectory is not None:
        targets = _read_trajectory(args.trajectory)
    elif args.x is not None and args.y is not None:
        targets = [Target(args.x, args.y)]
    else:
        raise _UsageError("ik needs --x and --y, or --trajectory")
    # Every target is solved before anything is written, so a refusal at a
    # later waypoint prints its error line alone.
    results = [(t, ik_solve(arm, t, args.tol)) for t in targets]
    single = len(results) == 1
    rows, lines, entries = ["x,y,theta1,theta2,residual"], [], []
    for target, result in results:
        x, y = f"{target.x:.12g}", f"{target.y:.12g}"
        poses = [(f"{s.theta1:.12g}", f"{s.theta2:.12g}", f"{s.residual:.3g}") for s in result.solutions]
        rows += [f"{x},{y},{t1},{t2},{r}" for t1, t2, r in poses]
        if not single:
            lines.append(f"target ({x}, {y}):")
        if result.diagnostic:
            lines.append(result.diagnostic)
            if args.fmt == "csv":
                print(f"target ({x}, {y}): {result.diagnostic}", file=sys.stderr)
        else:
            lines += [f"theta1={t1} theta2={t2} residual={r}" for t1, t2, r in poses]
        entries.append({**asdict(target), **asdict(result)})  # x, y, solutions, diagnostic
    payload = entries[0] if single else {"targets": entries}
    return _render(args, None, payload, rows if args.fmt == "csv" else lines)


def _cmd_oscillator(args) -> str:
    params = OscillatorParams(m=args.m, k=args.k, b=args.b, y0=args.y0, y1=args.y1)
    rows = sample(solve_ivp(params), args.t_end, args.n)
    if args.fmt == "svg":
        return _oscillator_svg(rows, args.svg_width, args.svg_height)
    lines = [f"{r.t:.12g},{r.y:.12g},{r.env_hi:.12g},{r.env_lo:.12g}" for r in rows]
    return _render(args, None, {}, ["t,y,env_hi,env_lo", *lines])


# ---- inverse-kinematics input -------------------------------------------


def _read_trajectory(path: str) -> list[Target]:
    targets = []
    try:
        # utf-8-sig drops a byte-order mark, which would hide in row 1. A
        # byte that is not UTF-8 reads as a lone surrogate, refused below.
        fh = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise _UsageError(f"cannot read trajectory: {exc}") from None
    with fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                line.encode()
            except UnicodeEncodeError:
                raise _UsageError(f"bad trajectory row {line_number}: not UTF-8 text") from None
            line = line.strip()
            if not line:
                continue
            fields = [_number(part) for part in line.split(",")[:2]]
            if line_number == 1 and all(f is None for f in fields):
                continue  # a header row: no field reads as a number
            if len(fields) < 2 or None in fields:
                raise _UsageError(f"bad trajectory row {line_number}: {line!r}")
            try:
                targets.append(Target(*fields))
            except ValueError as exc:
                raise ValueError(f"trajectory row {line_number}: {exc}") from None
    if not targets:
        raise _UsageError("trajectory file holds no waypoints")
    return targets


def _number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


# ---- SVG rendering -------------------------------------------------------


def _tag(name: str, text="", **attrs) -> str:
    """One SVG element with attrs in the order given, an underscore in an
    attribute name printed as a hyphen; with no text it closes itself."""
    fields = "".join([f' {key.replace("_", "-")}="{value}"' for key, value in attrs.items()])
    text = str(text)
    return f"<{name}{fields}>{text}</{name}>" if text else f"<{name}{fields}/>"


def _svg(width: int, height: int, parts: list[str]) -> str:
    """An SVG document of width x height px: a white ground, then parts."""
    body = "\n".join(["", _tag("rect", width=width, height=height, fill="white"), *parts, ""])
    view = f"0 0 {width} {height}"
    return _tag("svg", body, xmlns="http://www.w3.org/2000/svg", viewBox=view, width=width, height=height) + "\n"


def _staircase_svg(diagram: StaircaseDiagram, names, cell: int) -> str:
    margin = 48
    w = diagram.width
    h = diagram.height
    width_px = 2 * margin + w * cell
    height_px = 2 * margin + h * cell

    def px(u: float, v: float) -> tuple[float, float]:
        return (margin + u * cell, height_px - margin - v * cell)

    parts = []
    for u in range(w):
        # (u, v) lies in the ideal once v reaches the floor, the lowest b of
        # a generator (a, b) with a <= u.
        floor = min((b for a, b in diagram.minimal_generators if a <= u), default=h)
        for v in range(floor, h):
            x, y = px(u, v + 1)
            parts.append(_tag("rect", x=x, y=y, width=cell, height=cell, fill="#cfe2f3", stroke="none"))
    grid = dict(stroke="#b0b0b0", stroke_width=1)
    for i in range(w + 1):
        x, _ = px(i, 0)
        parts.append(_tag("line", x1=x, y1=margin, x2=x, y2=height_px - margin, **grid))
    for j in range(h + 1):
        _, y = px(0, j)
        parts.append(_tag("line", x1=margin, y1=y, x2=width_px - margin, y2=y, **grid))
    for i in range(w + 1):
        x, y = px(i, 0)
        parts.append(_tag("text", i, x=x, y=y + 18, font_size=12, text_anchor="middle", fill="#333"))
    for j in range(h + 1):
        x, y = px(0, j)
        parts.append(_tag("text", j, x=x - 12, y=y + 4, font_size=12, text_anchor="end", fill="#333"))
    for a, b in diagram.minimal_generators:
        x, y = px(a, b)
        parts.append(_tag("circle", cx=x, cy=y, r=5, fill="#1f4e8c"))
    x_label, y_label = px(w, 0)
    parts.append(_tag("text", names[0], x=x_label + 10, y=y_label + 4, font_size=14, fill="#000"))
    x_top, y_top = px(0, h)
    parts.append(_tag("text", names[1], x=x_top, y=y_top - 10, font_size=14, text_anchor="middle", fill="#000"))
    return _svg(width_px, height_px, parts)


def _oscillator_svg(rows: list[Sample], width: int, height: int) -> str:
    margin = _PLOT_MARGIN
    t_end = rows[-1].t
    y_max = max(max(abs(r.env_hi) for r in rows), 1e-12) * 1.08

    def px(t: float, y: float) -> tuple[float, float]:
        x = margin + (t / t_end) * (width - 2 * margin)
        v = height / 2 - (y / y_max) * (height / 2 - margin)
        return (x, v)

    def polyline(points: list[tuple[float, float]], **style) -> str:
        body = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return _tag("polyline", fill="none", **style, points=body)

    axis_y0 = px(0, 0)[1]
    axis = dict(stroke="#444", stroke_width=1)
    envelope = dict(stroke="#888", stroke_width=1, stroke_dasharray="6 4")
    return _svg(width, height, [
        _tag("line", x1=margin, y1=f"{axis_y0:.2f}", x2=width - margin, y2=f"{axis_y0:.2f}", **axis),
        _tag("line", x1=margin, y1=margin, x2=margin, y2=height - margin, **axis),
        polyline([px(r.t, r.env_hi) for r in rows], **envelope),
        polyline([px(r.t, r.env_lo) for r in rows], **envelope),
        polyline([px(r.t, r.y) for r in rows], stroke="#1f4e8c", stroke_width=2),
        _tag("text", "t", x=width - margin, y=f"{axis_y0 + 18:.2f}", font_size=13, text_anchor="end", fill="#000"),
        _tag("text", "y", x=margin - 8, y=margin - 8, font_size=13, text_anchor="end", fill="#000"),
        _tag("text", 0, x=margin, y=f"{axis_y0 + 18:.2f}", font_size=11, fill="#333"),
        _tag("text", f"{t_end:.6g}", x=width - margin, y=f"{axis_y0 - 6:.2f}",
             font_size=11, text_anchor="end", fill="#333"),
        _tag("text", f"{y_max / 1.08:.6g}", x=margin + 6, y=f"{px(0, y_max / 1.08)[1] + 4:.2f}",
             font_size=11, fill="#333"),
    ])

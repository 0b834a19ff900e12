import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from groebnerkit import cli
from groebnerkit.cli import build_parser, run
from groebnerkit.ideal import StaircaseDiagram
from groebnerkit.parse import parse_polynomial
from groebnerkit.ring import VariableContext

from strategies import corrupted, grammar_texts

CTX_XY = VariableContext(["x", "y"])

WORKED = ["groebner", "--vars", "x,y", "--order", "grlex", "x^3-2*x*y", "x^2*y-2*y^2+x"]

SRC = Path(__file__).resolve().parents[1] / "src"


class TestEntryPoint:
    """``python -m groebnerkit`` runs main(), which exits with run's code."""

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (WORKED, 0, "x^2\nx*y\ny^2 - 1/2*x\n"),
            (["groebner", "--vars", "x,y", "x +"], 2, ""),
            (["groebner", "--vars", "x,y,z", "(x+y+z)^300"], 1, ""),
        ],
        ids=["success", "syntax-error", "domain-error"],
    )
    def test_module_exit_code_and_stdout(self, argv, code, out):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "groebnerkit", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, out)
        assert bool(done.stderr) == (code != 0)

    @pytest.mark.parametrize(
        "argv, code, out",
        [(WORKED, 0, "x^2\nx*y\ny^2 - 1/2*x\n"), (["groebner", "--vars", "x,y", "x +"], 2, "")],
        ids=["success", "syntax-error"],
    )
    def test_main_exits_with_run_code(self, argv, code, out, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["groebnerkit", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == code
        assert capsys.readouterr().out == out


class TestGroebnerCommand:
    def test_worked_ideal_text(self, capsys):
        assert run(WORKED) == 0
        assert capsys.readouterr().out == "x^2\nx*y\ny^2 - 1/2*x\n"

    def test_no_reduce_keeps_raw_basis(self, capsys):
        assert run(WORKED[:1] + ["--no-reduce"] + WORKED[1:]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5  # two inputs plus three discovered members

    def test_json_round_trip(self, capsys):
        assert run(WORKED + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == "grlex"
        assert payload["vars"] == ["x", "y"]
        assert payload["basis"] == ["x^2", "x*y", "y^2 - 1/2*x"]
        for text in payload["basis"]:
            parse_polynomial(text, CTX_XY)  # must re-parse cleanly

    def test_deterministic_output(self, capsys):
        run(WORKED)
        first = capsys.readouterr().out
        run(WORKED)
        assert capsys.readouterr().out == first

    def test_syntax_error_exits_2(self, capsys):
        assert run(["groebner", "--vars", "x,y", "x +"]) == 2
        err = capsys.readouterr().err
        assert "position 4" in err

    def test_superscript_exponent_exits_2(self, capsys):
        assert run(["groebner", "--vars", "x,y", "x^\u00b2"]) == 2
        assert "position 3" in capsys.readouterr().err

    def test_power_over_term_bound_exits_1(self, capsys):
        assert run(["groebner", "--vars", "x,y,z", "(x+y+z)^300"]) == 1
        assert capsys.readouterr().err == "error: expression would cost more than 450000 units of work (position 8)\n"

    @pytest.mark.parametrize(
        "expr, position",
        [("(x+y+z)^40*(x+y+z)^40", 11), ("3^30000000*x", 2), ("(x+y+z)^61*(3/2)^400000", 17)],
        ids=["term-pairs", "coefficient-bits", "pair-bits"],
    )
    def test_over_parse_budget_exits_1(self, capsys, expr, position):
        assert run(["groebner", "--vars", "x,y,z", expr]) == 1
        message = f"expression would cost more than 450000 units of work (position {position})"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_text_past_the_length_limit_exits_1(self, capsys):
        assert run(["groebner", "--vars", "x", "x" + " " * 131_072]) == 1
        assert capsys.readouterr().err == "error: expression of 131073 characters is longer than the limit of 131072\n"

    @pytest.mark.parametrize(
        "expr, position",
        [("7" * 5000 + "*x", 1), ("x^" + "7" * 5000, 3), ("1/" + "7" * 5000, 3)],
        ids=["coefficient", "exponent", "denominator"],
    )
    def test_literal_over_digit_limit_exits_1(self, capsys, expr, position):
        assert run(["groebner", "--vars", "x", expr]) == 1
        assert capsys.readouterr().err == f"error: integer literal longer than 4300 digits (position {position})\n"

    def test_deep_parentheses_exit_2(self, capsys):
        assert run(["groebner", "--vars", "x", "(" * 300 + "x" + ")" * 300]) == 2
        assert capsys.readouterr().err == "error: parentheses nested deeper than 100 (position 101)\n"

    def test_output_over_digit_limit_exits_1(self, capsys):
        assert run(["divide", "--vars", "x,y", "2^15000*x", "--", "y"]) == 1
        assert capsys.readouterr().err == "error: coefficient of x longer than 4300 digits (term 1)\n"

    def test_unknown_variable_exits_2(self, capsys):
        assert run(["groebner", "--vars", "x,y", "x*z"]) == 2
        assert "unknown variable" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, name", [("x,2y", "'2y'"), ("a b,c", "'a b'"), ("x-1", "'x-1'")])
    def test_bad_variable_name_exits_2(self, spec, name, capsys):
        assert run(["groebner", "--vars", spec, "x^2 - 1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad variable name {name}")

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "groebner" in capsys.readouterr().out

    def test_unwritable_output_exits_1(self, capsys):
        assert run(WORKED + ["--output", "/nonexistent/dir/out.txt"]) == 1
        assert "cannot write output" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run(WORKED + ["--frobnicate"]) == 2

    def test_bad_format_for_subcommand_exits_2(self, capsys):
        assert run(WORKED + ["--format", "svg"]) == 2
        assert "--format" in capsys.readouterr().err

    def test_help_lists_formats(self, capsys):
        assert run(["staircase", "--help"]) == 0
        assert "{svg,text,json}" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        assert run(WORKED + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == "x^2\nx*y\ny^2 - 1/2*x\n"


class TestLeadingMinus:
    """A token of one dash and more is a value to every parser: an
    expression read from the text as typed, or a number; -h and --flags
    stay options."""

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["groebner", "--vars", "x,y", "-x^2+y", "-y^2"], "x^2 - y\ny^2\n"),
            (["divide", "--vars", "x,y", "-x^2*y", "--", "-x", "y"], "q1 = x*y\nq2 = 0\nremainder = 0\n"),
            (["member", "--vars", "x,y,z", "-x*y", "--", "-1"], "true\n"),
            (["eliminate", "--vars", "x,y", "--keep", "1", "-x+y", "-y^2+1"], "y^2 - 1\n"),
            (["staircase", "--vars", "x,y", "--format", "text", "-x^2", "-y^3"], "0 3\n2 0\n"),
        ],
        ids=["groebner", "divide", "member", "eliminate", "staircase"],
    )
    def test_is_an_expression(self, argv, out, capsys):
        assert run(argv) == 0
        assert capsys.readouterr() == (out, "")

    def test_error_position_counts_from_the_text_as_typed(self, capsys):
        assert run(["member", "--vars", "x,y", "-x*$", "--", "1"]) == 2
        assert capsys.readouterr() == ("", "error: unexpected character '$' (position 4)\n")

    def test_a_dash_token_is_no_command(self, capsys):
        # A value, so an invalid command. Only the exit code is checked:
        # argparse words the choices differently across Python versions.
        # Negative numbers as flag values are rows of the golden table.
        assert run(["-q"]) == 2

    def test_help_and_unknown_flags_stay_options(self, capsys):
        assert run(["member", "--vars", "x,y", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: groebnerkit member")
        assert run(["member", "--vars", "x,y", "-x", "--frobnicate", "--", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: groebnerkit") and err.endswith("error: unrecognized arguments: --frobnicate\n")


class TestDivideCommand:
    ARGS = [
        "divide", "--vars", "x,y", "--order", "lex",
        "x^2*y + x*y^2 + y^2", "--", "x*y - 1", "y^2 - 1",
    ]

    def test_text(self, capsys):
        assert run(self.ARGS) == 0
        assert capsys.readouterr().out == (
            "q1 = x + y\nq2 = 1\nremainder = x + y + 1\n"
        )

    def test_json_round_trip(self, capsys):
        args = self.ARGS[:1] + ["--format", "json"] + self.ARGS[1:]
        assert run(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quotients"] == ["x + y", "1"]
        assert payload["remainder"] == "x + y + 1"
        for text in payload["quotients"] + [payload["remainder"]]:
            parse_polynomial(text, CTX_XY)

    def test_domain_error_exits_1(self, capsys):
        assert run(["divide", "--vars", "x,y", "x", "--", "0"]) == 1
        assert "zero divisor" in capsys.readouterr().err


class TestMemberCommand:
    def test_one_not_in_maximal_ideal(self, capsys):
        assert run(["member", "--vars", "x,y", "1", "--", "x", "y"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_positive_case(self, capsys):
        assert run(["member", "--vars", "x,y", "x^2*y", "--", "x^3-2*x*y", "x^2*y-2*y^2+x"]) == 0
        assert capsys.readouterr().out == "true\n"

    @staticmethod
    def _member_of_one(text):
        """The exit code, stdout and stderr of member, run in-process on text."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["member", "--vars", "x,y,z", text, "--", "1"])
        return code, out.getvalue(), err.getvalue()

    TEXTS = grammar_texts(0) | grammar_texts(2)

    @settings(max_examples=150, deadline=None)
    @given(TEXTS | corrupted(TEXTS))
    @example("-x*y")
    def test_any_text_exits_cleanly(self, text):
        # Every polynomial lies in the ideal of 1; a text that is not one
        # gets one error line, and a leading minus ("-x*y") is no option.
        code, out, err = self._member_of_one(text)
        assert code in (0, 1, 2)
        if code == 0:
            assert (out, err) == ("true\n", "")
        else:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert self._member_of_one(text)[:2] == (code, out)


class TestRefusalOrder:
    """run reads --vars before a handler runs, and each handler refuses its
    own flags before it parses an expression."""

    BAD = "x +"

    @pytest.mark.parametrize(
        "argv",
        [
            ["groebner", "--vars", "x,x", BAD],
            ["divide", "--vars", "x,x", BAD, "--", "x"],
            ["member", "--vars", "x,x", BAD, "--", "x"],
            ["eliminate", "--vars", "x,x", "--keep", "1", BAD],
            ["staircase", "--vars", "x,x", BAD],
        ],
        ids=lambda argv: argv[0],
    )
    def test_duplicate_vars_before_syntax(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: duplicate variable names: ('x', 'x')\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eliminate", "--vars", "x,y", "--keep", "0", BAD], "--keep must be between 1 and 2"),
            (["staircase", "--vars", "x,y,z", BAD], "staircase supports 2 variables"),
        ],
        ids=["eliminate-keep-0", "staircase-three-vars"],
    )
    def test_flags_before_syntax(self, argv, message, capsys):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestEliminateCommand:
    def test_circle_diagonal(self, capsys):
        args = ["eliminate", "--vars", "x,y", "--keep", "1", "x^2 + y^2 - 1", "x - y"]
        assert run(args) == 0
        assert capsys.readouterr().out == "y^2 - 1/2\n"

    def test_explicit_non_lex_order_notes_override(self, capsys):
        args = [
            "eliminate", "--vars", "x,y", "--keep", "1",
            "--order", "grevlex", "x^2 + y^2 - 1", "x - y",
        ]
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.out == "y^2 - 1/2\n"
        assert "lex" in captured.err

    def test_keep_bounds_checked(self, capsys):
        args = ["eliminate", "--vars", "x,y", "--keep", "5", "x"]
        assert run(args) == 2


class TestStaircaseCommand:
    ARGS = ["staircase", "--vars", "x,y", "x^3-2*x*y", "x^2*y-2*y^2+x"]

    def test_svg_well_formed(self, capsys):
        assert run(self.ARGS) == 0
        svg = capsys.readouterr().out
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        # three generator corner markers
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 3

    def test_json(self, capsys):
        assert run(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generators"] == [[0, 2], [1, 1], [2, 0]]

    def test_three_variables_rejected(self, capsys):
        assert run(["staircase", "--vars", "x,y,z", "x"]) == 2

    @pytest.mark.parametrize("cell", ["-5", "0"])
    def test_cell_must_be_positive(self, cell, capsys):
        assert run(self.ARGS + ["--cell", cell]) == 2
        captured = capsys.readouterr()
        assert f"argument --cell: must be greater than 0, got {cell}" in captured.err
        assert captured.out == ""

    def test_svg_over_cell_bound_exits_1(self, capsys):
        huge = ["staircase", "--vars", "x,y", "x^1000000", "y^1000000"]
        assert run(huge) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: staircase diagram of 1000002 x 1000002 cells is over the SVG "
            "bound of 160000 cells; use --format text or json\n"
        )
        assert captured.out == ""
        assert run(huge + ["--format", "text"]) == 0
        assert capsys.readouterr().out == "0 1000000\n1000000 0\n"
        assert run(huge + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["width"] == 1000002

    def test_svg_at_cell_bound_renders(self, monkeypatch, capsys):
        # x^3, x*y^2, y^4 draw a 5 x 6 diagram
        args = ["staircase", "--vars", "x,y", "x^3", "x*y^2", "y^4"]
        monkeypatch.setattr(cli, "MAX_SVG_CELLS", 30)
        assert run(args) == 0
        assert capsys.readouterr().out.startswith("<svg")
        monkeypatch.setattr(cli, "MAX_SVG_CELLS", 29)
        assert run(args) == 1
        assert "5 x 6 cells is over the SVG bound of 29 cells" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "generators",
        [((2, 3),), ((0, 4), (1, 1), (4, 0)), tuple((a, 398 - a) for a in range(399))],
        ids=["1", "3", "399"],
    )
    def test_svg_shades_the_ideal(self, generators):
        width = max(a for a, _ in generators) + 2
        height = max(b for _, b in generators) + 2
        diagram = StaircaseDiagram(generators, width, height)
        root = ET.fromstring(cli._staircase_svg(diagram, ("x", "y"), 1))
        bottom = 48 + height  # the y of the grid's bottom edge at 1 px a cell
        shaded = {
            (int(rect.get("x")) - 48, bottom - int(rect.get("y")) - 1)
            for rect in root.iter("{http://www.w3.org/2000/svg}rect")
            if rect.get("fill") == "#cfe2f3"
        }
        assert shaded == {(u, v) for u in range(width) for v in range(height) if diagram.contains(u, v)}


class TestIkCommand:
    def test_text_solutions(self, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1", "--x", "1", "--y", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("theta1=0 theta2=1.570796")

    def test_near_origin_target_gives_two_poses(self, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1", "--x", "1e-4", "--y", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("theta1=") for line in lines)

    def test_unreachable_text(self, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1", "--x", "3", "--y", "0"]) == 0
        assert capsys.readouterr().out == "unreachable\n"

    def test_csv(self, capsys):
        assert run(
            ["ik", "--l1", "1", "--l2", "1", "--x", "1", "--y", "1", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,y,theta1,theta2,residual"
        assert len(lines) == 3
        x, y, t1, t2, res = lines[1].split(",")
        assert (float(x), float(y)) == (1.0, 1.0)
        assert abs(float(t2) - math.pi / 2) < 1e-6

    def test_trajectory(self, tmp_path, capsys):
        waypoints = tmp_path / "path.csv"
        waypoints.write_text("x,y\n1,1\n3,0\n2,0\n")
        assert run(
            ["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints),
             "--format", "csv"]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "x,y,theta1,theta2,residual"
        assert len(lines) == 4  # 2 solutions + 0 (unreachable) + 1 boundary
        assert "unreachable" in captured.err

    @pytest.mark.parametrize("first", ["1.5,oops", "oops,1", "1"])
    def test_mistyped_first_waypoint_exits_2(self, first, tmp_path, capsys):
        waypoints = tmp_path / "path.csv"
        waypoints.write_text(f"{first}\n1,1\n")
        assert run(["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad trajectory row 1: {first!r}\n"

    @pytest.mark.parametrize("text", ["1,1\n2,0\n", "x,y\n1,1\n2,0\n"], ids=["no-header", "header"])
    def test_byte_order_mark_is_dropped(self, text, tmp_path, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        outputs = []
        for waypoints in (plain, marked):
            assert run(["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("target (1, 1):\n") and "target (2, 0):" in outputs[0].out

    @pytest.mark.parametrize("data, row", [(b"x,y\n1,1\n\xe9,0\n", 3), (b"\xef\xbb\xbfx\xe9,y\n1,1\n", 1),
                                           (b"1,1\r\n2,0\r\n1,\x80\n", 3), (b"1,1\n2,0 \xff\n", 2)])
    def test_non_utf8_row_exits_2_and_names_it(self, data, row, tmp_path, capsys):
        waypoints = tmp_path / "path.csv"
        waypoints.write_bytes(data)
        assert run(["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints)]) == 2
        assert capsys.readouterr() == ("", f"error: bad trajectory row {row}: not UTF-8 text\n")

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        waypoints = tmp_path / "path.csv"
        waypoints.write_text("x,y\n\n1,1\n  \n")
        assert run(["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,y,theta1,theta2,residual" and len(lines) == 3

    def test_header_alone_exits_2(self, tmp_path, capsys):
        waypoints = tmp_path / "path.csv"
        waypoints.write_text("x,y\n")
        assert run(["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints)]) == 2
        assert capsys.readouterr() == ("", "error: trajectory file holds no waypoints\n")

    def test_non_finite_waypoint_names_its_row(self, tmp_path, capsys):
        waypoints = tmp_path / "path.csv"
        waypoints.write_text("x,y\n1,1\nnan,1\n")
        assert run(["ik", "--l1", "1", "--l2", "1", "--trajectory", str(waypoints)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trajectory row 3: target coordinates must be finite\n"

    def test_missing_target_exits_2(self, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1"]) == 2

    def test_missing_trajectory_file_exits_2(self, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1",
                    "--trajectory", "/nonexistent/path.csv"]) == 2
        assert "cannot read trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--x", "inf", "--y", "0"],
            ["--x", "1", "--y", "nan"],
            ["--l1", "inf", "--x", "1", "--y", "1"],
            ["--tol", "inf", "--x", "1", "--y", "1"],
        ],
    )
    def test_non_finite_number_exits_1(self, flags, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

    def test_continuum_exits_1(self, capsys):
        assert run(["ik", "--l1", "1", "--l2", "1", "--x", "0", "--y", "0"]) == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--l1", "1", "--l2", "1", "--x", "1.2", "--y", "0.5", "--tol", "1e-17"],
            ["--l1", "1e8", "--l2", "1e8", "--x", "1.2e8", "--y", "0.5e8"],
        ],
    )
    def test_tol_below_the_floor_exits_1(self, flags, capsys):
        assert run(["ik", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol ") and "below the floor" in captured.err

    def test_reach_past_the_float_range_exits_1(self, capsys):
        flags = ["--l1", "1e308", "--l2", "1e308", "--x", "1e308", "--y", "1e308"]
        assert run(["ik", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the reach l1 + l2 is beyond the float range\n"


class TestOscillatorCommand:
    ARGS = ["oscillator", "--m", "1", "--k", "1", "--y0", "0", "--y1", "1"]

    def test_csv_shape(self, capsys):
        assert run(self.ARGS + ["--t-end", "1", "--n", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,y,env_hi,env_lo"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def test_svg(self, capsys):
        assert run(self.ARGS + ["--format", "svg", "--svg-width", "500",
                                "--svg-height", "300"]) == 0
        svg = capsys.readouterr().out
        root = ET.fromstring(svg)
        assert root.attrib["width"] == "500"
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 3  # solution plus two envelopes
        dashed = [e for e in polylines if "stroke-dasharray" in e.attrib]
        assert len(dashed) == 2

    def test_svg_height_must_clear_margins(self, capsys):
        assert run(self.ARGS + ["--format", "svg", "--svg-height", "-10"]) == 2
        captured = capsys.readouterr()
        assert "argument --svg-height: must be greater than 100, got -10" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--y0", "nan"], "y0 must be finite, got nan"),
            (["--t-end", "inf"], "t_end must be positive and finite, got inf"),
            (["--m", "inf"], "m must be finite, got inf"),
        ],
    )
    def test_non_finite_number_exits_1(self, flags, message, capsys):
        assert run(["oscillator", "--m", "1", "--k", "1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_n_at_most_max_samples(self, capsys):
        # parsing alone: the bound is admitted without sampling it
        args = build_parser().parse_args(self.ARGS + ["--n", str(cli.MAX_SAMPLES)])
        assert args.n == cli.MAX_SAMPLES == 100_000
        assert run(self.ARGS + ["--n", str(cli.MAX_SAMPLES + 1)]) == 2
        captured = capsys.readouterr()
        assert "argument --n: must be at most 100000, got 100001" in captured.err
        assert captured.out == ""

    def test_non_underdamped_exits_1(self, capsys):
        assert run(["oscillator", "--m", "1", "--k", "1", "--b", "5"]) == 1
        assert "underdamped regime required" in capsys.readouterr().err

    def test_extreme_magnitudes_sample(self, capsys):
        # 4mk overflows a float; the regime is decided exactly.
        assert run(["oscillator", "--m", "1e200", "--k", "1e200", "--n", "2"]) == 0
        assert capsys.readouterr().out.startswith("t,y,env_hi,env_lo\n0,1,1,-1\n")

    def test_times_past_half_the_float_range_sample(self, capsys):
        # t_end * j overflows a float from j = 2; the times do not
        assert run(["oscillator", "--m", "1", "--k", "1", "--b", "1", "--t-end", "1e308", "--n", "5"]) == 0
        times = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert times == ["0", "2.5e+307", "5e+307", "7.5e+307", "1e+308"]

    def test_angle_past_the_float_range_exits_1(self, capsys):
        assert run(["oscillator", "--m", "1", "--k", "1e300", "--t-end", "1e300", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the angle omega*t + phase overflows the float range at t = 5e+299\n"

    def test_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "wave.csv"
        assert run(self.ARGS + ["--t-end", "1", "--n", "3", "--output", str(path)]) == 0
        assert path.read_text().startswith("t,y,env_hi,env_lo\n")

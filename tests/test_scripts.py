import runpy
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SHOWCASE = ROOT / "scripts" / "render_showcase.py"
LINE_COUNT = ROOT / "scripts" / "line_count.py"


def test_render_showcase_writes_all_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SHOWCASE), str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SHOWCASE), run_name="__main__")
    assert exit_info.value.code == 0
    for name in ("staircase.svg", "oscillator.svg"):
        assert ET.parse(tmp_path / name).getroot().tag.endswith("svg")
    assert (tmp_path / "oscillator.csv").read_text().startswith("t,y,env_hi,env_lo\n")
    sweep = (tmp_path / "ik_sweep.csv").read_text().splitlines()
    assert sweep[0] == "x,y,theta1,theta2,residual"
    assert len(sweep) == 1 + 2 * 9  # two elbow poses per waypoint
    assert capsys.readouterr().out.count("wrote ") == 4


def test_line_count_reports_each_module_and_the_totals(monkeypatch, capsys):
    package = ROOT / "src" / "groebnerkit"
    monkeypatch.setattr(sys, "argv", [str(LINE_COUNT), str(package)])
    runpy.run_path(str(LINE_COUNT), run_name="__main__")
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["physical", "code", "module"]
    modules = sorted(package.glob("*.py"))
    assert [Path(name) for _, _, name in rows] == modules
    for (physical, code, _), module in zip(rows, modules):
        assert int(physical) == len(module.read_text().splitlines())
        assert 0 < int(code) <= int(physical)
    assert total[2] == "total"
    assert int(total[0]) == sum(len(m.read_text().splitlines()) for m in modules)
    assert int(total[1]) == sum(int(code) for _, code, _ in rows)


def test_line_count_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Doc."""\n\n# note\ndef f():\n    """Doc\n    more."""\n    return ("a"\n            "b")\n')
    count = runpy.run_path(str(LINE_COUNT))["count"]
    assert count(module) == (8, 3)

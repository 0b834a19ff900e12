import hashlib
import os
import runpy
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SHOWCASE = ROOT / "scripts" / "render_showcase.py"
LINE_COUNT = ROOT / "scripts" / "line_count.py"
NEVER_RUN = ROOT / "scripts" / "never_run.py"

# The artifacts' sha256: a change meant to leave the output alone must
# leave these bytes.
SHOWCASE_SHA256 = {
    "staircase.svg": "a7b2d65d7c3ab1e7cd69dd67146a63bba39e65211403e012ed14e024baba0a85",
    "oscillator.svg": "8f42cb96b72541e3d168f2c754d822fd673f096648b6ca8e05d6814e224ad088",
    "oscillator.csv": "d0b60b4f3fefc5d046f86d399d70c2366df1d91dc4c7c441a63a6a83ba8dc4fb",
    "ik_sweep.csv": "9883ae4a5755854804ed95f2bb2d553ad970ad50e90e6c831a9e63ef9dba8d86",
}


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
    for name, digest in SHOWCASE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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


def test_never_run_lists_the_statements_no_test_ran(tmp_path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "signs.py").write_text(
        "def sign(x):\n"
        "    if x > 0:\n"
        "        return 1\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 0\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return [n for n in range(3)]\n"
    )
    (tmp_path / "test_signs.py").write_text(
        "from signs import sign\n\n\ndef test_sign():\n    assert sign(2) == 1 and sign(0) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "lib")}
    done = subprocess.run(
        [sys.executable, str(NEVER_RUN), "lib", "test_signs.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "1 passed" in done.stderr
    assert done.stdout.splitlines() == [
        f"{Path('lib') / 'signs.py'}: 2 of 8 statements never ran",
        "     5  return -1",
        "    10  return [n for n in range(3)]",
        "total: 2 of 8 statements never ran",
    ]

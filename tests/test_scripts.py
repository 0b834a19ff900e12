import runpy
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

SHOWCASE = Path(__file__).resolve().parents[1] / "scripts" / "render_showcase.py"


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

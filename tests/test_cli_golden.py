"""Golden CLI outputs: every row of the table in cli_golden.py replays to
the stdout, stderr and exit code that cli_golden.json pins.

After a change that is meant to alter CLI output, regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of cli_golden.json row by row.
"""

import json

import pytest

from cli_golden import CASES, COLUMNS, GOLDEN, _invoke, _regenerate


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_table(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stdout_and_exit_code(case, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _invoke(CASES[case], tmp_path) == golden[case]


if __name__ == "__main__":
    _regenerate()

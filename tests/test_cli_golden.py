"""Golden CLI outputs: every row of the table in cli_golden.py replays to
the stdout, stderr and exit code that cli_golden.json pins.

tests/cli_golden.py says how to check the table with no test runner and
how to regenerate it after a change that is meant to alter CLI output.
"""

import json

import pytest

from cli_golden import CASES, COLUMNS, GOLDEN, _invoke


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_table(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stdout_and_exit_code(case, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _invoke(CASES[case], tmp_path) == golden[case]

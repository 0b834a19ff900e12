"""The package imports nothing but itself and the standard library, and
the tests nothing more than CI installs.

Every absolute import in ``src/groebnerkit`` names ``groebnerkit`` or a
module of ``sys.stdlib_module_names``, so ``dependencies = []`` in
``pyproject.toml`` stays true. The tier-1 files in ``tests/`` may import
``pytest`` and ``hypothesis`` too, the packages ``tier1.yml`` installs,
and the tests' own helper modules; anything else, though installed
where the tests run, is missing in CI.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groebnerkit"
TESTS = ROOT / "tests"


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def imports_outside(sources: list[Path], allowed: set[str]) -> list[tuple[str, str]]:
    assert sources
    return [
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | allowed
    ]


def test_only_the_standard_library_is_imported():
    assert imports_outside(sorted(PACKAGE.glob("*.py")), {"groebnerkit"}) == []


def test_tests_import_only_what_ci_installs():
    sources = sorted(TESTS.glob("*.py"))
    helpers = {path.stem for path in sources}
    assert imports_outside(sources, {"groebnerkit", "pytest", "hypothesis"} | helpers) == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines

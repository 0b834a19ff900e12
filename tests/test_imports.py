"""The package imports nothing but itself and the standard library.

Every absolute import in ``src/groebnerkit`` names ``groebnerkit`` or a
module of ``sys.stdlib_module_names``, so ``dependencies = []`` in
``pyproject.toml`` stays true.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groebnerkit"


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_only_the_standard_library_is_imported():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"groebnerkit"}
    ]
    assert outside == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines

"""Every imported name is used: the package (its ``__init__`` re-exports
aside), the tests, the demos and the benchmark harness.  No linter is
required to run the suite, so this stands in for one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for folder in ("src/aggdiff", "tests", "demos", "perfbench")
    for path in (ROOT / folder).glob("*.py")
    if path != ROOT / "src/aggdiff/__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read afterwards."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\nnp.zeros(1)\n") == [
        "math (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []

"""Static checks on the source that no linter in the test environment
makes: every name a module of the package, the tests or the benchmark
imports is read by that module. The check only reads the files."""

import ast
from pathlib import Path

import pytest

import warpdet

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*Path(warpdet.__file__).parent.glob("*.py"), *(ROOT / "tests").glob("*.py"),
     *(ROOT / "bench").glob("*.py")]
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression in
    the module reads. A dotted ``import a.b`` binds ``a``; ``__future__``
    imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_modules_are_found():
    found = {f"{m.parent.name}/{m.name}" for m in MODULES}
    assert {"warpdet/pipeline.py", "tests/conftest.py", "bench/run.py"} <= found


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: field"]

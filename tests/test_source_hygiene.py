"""Static checks on the source that no linter in the test environment
makes: every name a module of the package, the tests or the benchmark
imports is read by that module, and every dataclass field and property the
package defines is read as an attribute somewhere. The checks only read the
files."""

import ast
from pathlib import Path

import pytest

import warpdet

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(Path(warpdet.__file__).parent.glob("*.py"))
MODULES = sorted(
    [*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def defined_attributes(source: str) -> list[str]:
    """Class.name of every dataclass field and every property the module
    defines."""
    names = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (_is_dataclass(cls) and isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                names.append(f"{cls.name}.{node.target.id}")
            elif isinstance(node, ast.FunctionDef) and any(
                    getattr(deco, "id", None) == "property" for deco in node.decorator_list):
                names.append(f"{cls.name}.{node.name}")
    return names


def read_attributes(source: str) -> set[str]:
    """Names the module reads as attributes, of any object."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_field_and_property_is_read():
    """A field or property nothing reads is dead weight. The match is by
    name only, so a field whose name another class's attribute shares
    passes unread."""
    read = set().union(*(read_attributes(m.read_text()) for m in MODULES))
    unread = [
        f"{path.name}: {name}" for path in PACKAGE
        for name in defined_attributes(path.read_text())
        if name.split(".")[1] not in read
    ]
    assert unread == []


def test_an_unread_field_or_property_is_reported():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int\n"
        "    @property\n"
        "    def z(self):\n"
        "        return self.x\n"
        "class B:\n"
        "    w: int\n"
        "def f(a):\n"
        "    a.y = 1\n"
    )
    assert defined_attributes(source) == ["A.x", "A.y", "A.z"]
    assert read_attributes(source) == {"x"}

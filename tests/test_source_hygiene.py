"""Static checks on the source that no linter in the test environment
makes: every name a module of the package, the tests or the benchmark
imports is read by that module, every dataclass field and property the
package defines is read as an attribute outside the unit tests, every
top-level function and class of the package is read by the package or
the benchmark, every option the package offers is set by a caller
outside the unit tests, and no package function writes into its
arguments. The checks only read the files."""

import ast
from pathlib import Path

import pytest

import warpdet

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(Path(warpdet.__file__).parent.glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *BENCH])
# The scripts kept beside the tests, which pytest does not collect.
SCRIPTS = [ROOT / "tests" / name for name in ("quality.py", "fingerprint.py", "ab_step.py")]

# The package's option records (training's, detection's and the synthetic
# corpus's), and the callers outside the unit tests that choose among their
# values: the benchmark and the two scripts.
OPTION_RECORDS = ("TrainConfig", "DetectOptions", "CorpusParams")
OPTION_CALLERS = [*BENCH, ROOT / "tests" / "quality.py", ROOT / "tests" / "fingerprint.py"]

# The model file's writer and reader: the package's entry points for its
# users, which neither the package nor the benchmark calls.
ENTRY_POINTS = {"save_model", "load_model"}

# The package's functions that write into an argument: the glyph renderers,
# which exist to draw into the canvas they are handed.
DRAWS_INTO = {"synthetic.render_face: canvas", "synthetic._render_clutter: canvas"}


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
    """A field or property that only the unit tests read is dead weight:
    the reads counted are the package's, the benchmark's and the scripts'.
    The match is by name only, so a field whose name another class's
    attribute shares passes unread."""
    read = set().union(*(read_attributes(m.read_text()) for m in [*PACKAGE, *BENCH, *SCRIPTS]))
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


def top_level_definitions(source: str) -> list[str]:
    """Names of the functions and classes the module defines at top level."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def read_names(source: str) -> set[str]:
    """Names the module reads: as a name, as an attribute of any object, or
    by importing them from another module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_definition_is_read_by_the_package_or_the_benchmark():
    """A function or class only the tests call is a second copy of what
    the package already does, or dead code. The match is by name only, so
    a definition read under its name anywhere, by itself included, passes."""
    read = set().union(*(read_names(m.read_text()) for m in [*PACKAGE, *BENCH]))
    unread = [
        f"{path.name}: {name}" for path in PACKAGE
        for name in top_level_definitions(path.read_text())
        if name not in read | ENTRY_POINTS
    ]
    assert unread == []


def test_an_unread_definition_is_reported():
    source = (
        "from .ferns import scan as cascade_scan\n"
        "import numpy as np\n"
        "class A:\n"
        "    def method(self):\n"
        "        return np.zeros(1)\n"
        "def f(a):\n"
        "    return cascade_scan(a).size\n"
        "def g():\n"
        "    return f\n"
    )
    assert top_level_definitions(source) == ["A", "f", "g"]
    read = read_names(source)
    assert {"scan", "cascade_scan", "np", "zeros", "f", "size"} <= read
    assert not {"A", "g", "method"} & read


def keywords_passed(source: str, classes) -> set[str]:
    """Class.keyword of every keyword the module passes to a call of one of
    classes, called by its name or as an attribute of any object."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in classes:
                passed.update(f"{name}.{kw.arg}" for kw in node.keywords if kw.arg)
    return passed


def test_every_option_is_set_by_a_caller_outside_the_unit_tests():
    """An option that only the unit tests set has one value in use: it is a
    module constant, and tests that need another value patch the constant."""
    fields = [
        name for path in PACKAGE for name in defined_attributes(path.read_text())
        if name.split(".")[0] in OPTION_RECORDS
    ]
    assert {name.split(".")[0] for name in fields} == set(OPTION_RECORDS)
    passed = set().union(*(keywords_passed(m.read_text(), OPTION_RECORDS)
                           for m in OPTION_CALLERS))
    assert [name for name in fields if name not in passed] == []


def test_an_option_no_caller_sets_is_reported():
    source = (
        "import pipeline\n"
        "from pipeline import TrainConfig\n"
        "a = TrainConfig(epochs=1, **extra)\n"
        "b = pipeline.DetectOptions(use_roi_conv=True)\n"
        "c = Other(seed=2)\n"
    )
    assert keywords_passed(source, OPTION_RECORDS) == {
        "TrainConfig.epochs", "DetectOptions.use_roi_conv"}


def _written_names(target) -> list[str]:
    """Names an assignment target writes into rather than binds: the
    array under a subscript, through any chain of subscripts."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _written_names(elt)]
    if not isinstance(target, ast.Subscript):
        return []
    while isinstance(target, ast.Subscript):
        target = target.value
    return [target.id] if isinstance(target, ast.Name) else []


def argument_writes(source: str) -> list[str]:
    """function: parameter for every augmented assignment to a parameter
    and every assignment to a subscript of one, in any function the module
    defines, methods and nested functions included. A write through another
    name bound to the same array is not seen."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        args = func.args
        params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a is not None}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            written = [n for t in targets for n in _written_names(t)]
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                written.append(node.target.id)
            found.update(f"{func.name}: {name}" for name in written if name in params)
    return sorted(found)


def test_no_package_function_writes_into_its_arguments():
    """A function that adds into arrays its caller hands it splits one
    computation over two places; the caller owns its arrays and writes
    them itself."""
    found = {
        f"{path.stem}.{write}" for path in PACKAGE
        for write in argument_writes(path.read_text())
    }
    assert found == DRAWS_INTO


def test_a_write_into_an_argument_is_reported():
    source = (
        "def f(a, b, c, *rest, d, **kw):\n"
        "    a += 1\n"
        "    b[0] = 2\n"
        "    c[1][2] -= 3\n"
        "    x, rest[0] = 4, 5\n"
        "    kw['k']: int = 6\n"
        "    d = d + 1\n"
        "    d.y = 7\n"
        "    d.z[0] = 8\n"
        "    for acc in b:\n"
        "        acc += 9\n"
        "    def g(e):\n"
        "        e[:] = 0\n"
        "        return e\n"
        "    return g\n"
        "class A:\n"
        "    def m(self, v):\n"
        "        v[...] *= 2\n"
    )
    assert argument_writes(source) == [
        "f: a", "f: b", "f: c", "f: kw", "f: rest", "g: e", "m: v"]

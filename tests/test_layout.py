"""Rules on the package's layout, checked on its source.

The package reads and writes files in one module, ``data_model``.
Every other module hands it text or rows: no other module imports
``csv`` or calls the builtin ``open``. A method named ``open``, such as
``Traversable.open`` on a bundled resource, is not the builtin.

Every fit and likelihood takes a DesignMatrix or a plain array, and
only ``data_model`` tells the two apart: no other module tests for a
``matrix`` attribute or calls ``isinstance`` with DesignMatrix.

Code that only the tests use must justify its place or go: every
private name the package defines is referred to somewhere in the
package besides its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "misclass_prev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "data_model")


def _file_access(tree):
    """The lines of ``tree`` that import csv or call the builtin open."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import csv" for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(f"{node.lineno}: from csv import")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            found.append(f"{node.lineno}: open(...)")
    return found


def test_the_guard_sees_both_kinds_of_file_access():
    tree = ast.parse("import csv\nfrom csv import writer\nwith open(p) as fh:\n    pass\nres.open('r')\n")
    assert _file_access(tree) == ["1: import csv", "2: from csv import", "3: open(...)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_data_model_touches_files(path):
    assert _file_access(ast.parse(path.read_text(encoding="utf-8"))) == []


def _design_type_tests(tree):
    """The lines of ``tree`` that test whether a value is a DesignMatrix."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        args = node.args
        if node.func.id == "hasattr" and len(args) == 2 and isinstance(args[1], ast.Constant):
            if args[1].value == "matrix":
                found.append(f"{node.lineno}: hasattr(..., 'matrix')")
        elif node.func.id == "isinstance" and len(args) == 2:
            kinds = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
            names = [k.id if isinstance(k, ast.Name) else getattr(k, "attr", None) for k in kinds]
            if "DesignMatrix" in names:
                found.append(f"{node.lineno}: isinstance(..., DesignMatrix)")
    return found


def test_the_guard_sees_both_kinds_of_design_type_test():
    tree = ast.parse(
        "if hasattr(X, 'matrix'):\n    pass\n"
        "ok = isinstance(X, DesignMatrix)\n"
        "ok = isinstance(X, (np.ndarray, data_model.DesignMatrix))\n"
        "ok = hasattr(source, 'read') or isinstance(X, np.ndarray)\n"
    )
    assert _design_type_tests(tree) == [
        "1: hasattr(..., 'matrix')",
        "3: isinstance(..., DesignMatrix)",
        "4: isinstance(..., DesignMatrix)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_data_model_reads_a_design_type(path):
    assert _design_type_tests(ast.parse(path.read_text(encoding="utf-8"))) == []


def _private_definitions(tree):
    """``(name, first line, last line)`` of each private definition in ``tree``.

    Module-level functions, classes and constants whose names start with
    one underscore, and methods so named; dunder names are left out.
    """
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            found += [(m.name, m.lineno, m.end_lineno) for m in methods]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [(name, node.lineno, node.end_lineno) for name in names]
    return [d for d in found if d[0].startswith("_") and not d[0].startswith("__")]


def _references(tree):
    """``(name, line)`` of each name read, attribute and imported name in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name, node.lineno))
    return found


def _unreferenced(sources):
    """``"file: name"`` of each private definition in ``sources`` (file name -> text)
    that no line of them outside the definition itself refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = [(name, ref, line) for name, tree in trees.items() for ref, line in _references(tree)]
    return [
        f"{name}: {private}"
        for name, tree in trees.items()
        for private, first, last in _private_definitions(tree)
        if not any(r == private and (f != name or not first <= line <= last) for f, r, line in refs)
    ]


def test_the_guard_finds_private_names_nothing_else_uses():
    a = (
        "_USED = 1\n_UNUSED = 2\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "def _imported():\n    pass\n\n"
        "class _Kept:\n    def _spare(self):\n        return _USED\n\n"
        "    def __init__(self):\n        pass\n\n"
        "def public():\n    return _Kept()\n"
    )
    b = "from a import _imported\n"
    found = _unreferenced({"a.py": a, "b.py": b})
    assert found == ["a.py: _UNUSED", "a.py: _recursive", "a.py: _spare"]


def test_every_private_name_has_a_caller_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources) == []

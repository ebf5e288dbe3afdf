"""The package reads and writes files in one module, ``data_model``.

Every other module hands it text or rows: no other module imports
``csv`` or calls the builtin ``open``. A method named ``open``, such as
``Traversable.open`` on a bundled resource, is not the builtin.
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

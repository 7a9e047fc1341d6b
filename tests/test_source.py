"""Static checks of the package source.

No linter is assumed to be installed, so the rules the package keeps are
checked here with ``ast``: a module imports no name that it never uses
(``__init__.py`` is exempt, since its imports are the package's exports),
and every absolute import of the package is from the standard library or
numpy, its only runtime dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rtdlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(
        (line, name) for name, line in imported.items() if name not in used)]


def foreign_imports(source: str) -> list[str]:
    """The absolute imports of ``source`` from neither the standard library nor numpy."""
    allowed = sys.stdlib_module_names | {"numpy"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return [f"line {line}: {name}" for line, name in names
            if name.split(".")[0] not in allowed]


def test_modules_found():
    assert {"learner.py", "meanflow.py", "markov.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("source, foreign", [
    ("import numpy.linalg as la\nfrom json import dumps\n", []),
    ("from __future__ import annotations\nfrom .errors import A\n", []),
    ("import scipy.linalg\n", ["line 1: scipy.linalg"]),
    ("def f():\n    from pandas import DataFrame\n", ["line 2: pandas"]),
])
def test_import_checker(source, foreign):
    assert foreign_imports(source) == foreign


@pytest.mark.parametrize("source, unused", [
    ("import numpy as np\n", ["line 1: np"]),
    ("import os.path\nos.sep\n", []),
    ("from .errors import A, B\nraise A\n", ["line 1: B"]),
    ("from __future__ import annotations\nfrom x import T\ndef f(a: T): pass\n", []),
])
def test_checker(source, unused):
    assert unused_imports(source) == unused

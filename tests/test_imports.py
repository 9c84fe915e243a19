"""The imports of the ``elongate`` modules.

Every name a module imports is used in that module (``__init__.py`` is
left out: its imports are the package's re-exports), and every module
imports only the standard library, ``numpy`` and ``elongate`` itself:
numpy is the only runtime dependency.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "elongate"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "elongate"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _foreign_imports(source: str) -> list[str]:
    """Top-level packages imported from outside the standard library, numpy and elongate."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - ALLOWED)


def test_unused_imports_are_found():
    source = "import os, numpy as np\nfrom math import inf, pi\nprint(np.pi, inf)\n"
    assert _unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_imports_are_found():
    source = (
        "import os.path, numpy.linalg as la, scipy.linalg\n"
        "from __future__ import annotations\nfrom . import field\nfrom .geometry import Grid\n"
        "from elongate.solver import minimize\nfrom numpy import fft\nfrom sklearn import svm\n"
        "def f():\n    import pandas\n"
    )
    assert _foreign_imports(source) == ["pandas", "scipy", "sklearn"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == []

"""Every name a package module imports is used in that module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import fluctsel

PACKAGE = pathlib.Path(fluctsel.__file__).parent
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scanner_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_import_keeps_heavy_scipy_modules_out():
    # fluctsel binds four LAPACK routines from scipy's compiled extension
    # scipy.linalg._flapack alone; the scipy.linalg package would load
    # scipy._lib.array_api_compat, numpy.f2py and numpy.testing, about half
    # the import time. scipy.integrate would pull in scipy.special and
    # scipy.optimize, and scipy.sparse adds about 70 modules
    heavy = ("scipy.linalg", "scipy._lib.array_api_compat", "numpy.f2py",
             "numpy.testing", "scipy.integrate", "scipy.special",
             "scipy.optimize", "scipy.sparse")
    code = ("import sys, fluctsel\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == []

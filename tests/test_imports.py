"""Every name a package module imports is used in that module, and every
local a package function assigns is read."""

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


def _unused_locals(source: str) -> list[str]:
    """Names a function assigns and never reads in its body (nested
    functions included); names starting with _ are meant to be unused."""
    unused = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        unused.update((line, name) for name, line in stored.items()
                      if name not in read and not name.startswith("_"))
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def test_scanner_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]


def test_scanner_flags_an_unused_local():
    # b is never read, n only added to; c is read by the nested function
    source = ("def f(xs):\n"
              "    a, b = xs\n"
              "    _, c = xs\n"
              "    n = 0\n"
              "    n += a\n"
              "    def g():\n"
              "        return c\n"
              "    return g\n")
    assert _unused_locals(source) == ["line 2: b", "line 4: n"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert _unused_locals(path.read_text(encoding="utf-8")) == []


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

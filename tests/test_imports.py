"""Every name a package module imports is used in that module, every local
a package function assigns is read, and every field of a package dataclass
is read as an attribute somewhere in src/, demos/ or bench/."""

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
REPO = pathlib.Path(__file__).resolve().parents[1]
READERS = sorted(p for d in ("src", "demos", "bench") for p in (REPO / d).rglob("*.py"))


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


def _name(node):
    """Last identifier of a Name or Attribute, or of either side of X | None."""
    if isinstance(node, ast.BinOp):
        return _name(node.left) or _name(node.right)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scope_nodes(body):
    """Nodes of one scope; nested functions and classes are yielded, not entered."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_fields(package_sources, reader_sources) -> list[str]:
    """Fields of the package's dataclasses that no reader reads.

    A read is an attribute load (or asdict) on a receiver. Its type is
    inferred from annotations, self, constructor calls and the return
    annotations of package functions; a read on a receiver of unknown type
    counts for every field of that name, one on a package class only for
    that class's own field.
    """
    members, returns, unread = {}, {}, set()
    for source in package_sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                returns[node.name] = _name(node.returns)
            elif isinstance(node, ast.ClassDef):
                own = members[node.name] = {}
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        own[item.target.id] = _name(item.annotation)
                    elif isinstance(item, ast.FunctionDef):
                        own[item.name] = _name(item.returns)
                if any(_name(getattr(d, "func", d)) == "dataclass"
                       for d in node.decorator_list):
                    unread.update((node.name, item.target.id) for item in node.body
                                  if isinstance(item, ast.AnnAssign))
    fields = set(unread)

    def type_of(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            return members.get(type_of(node.value, env), {}).get(node.attr)
        if isinstance(node, ast.Call):
            func = _name(node.func)
            if func in members:
                return func
            if func == "replace" and node.args:
                return type_of(node.args[0], env)
            if isinstance(node.func, ast.Attribute):
                owner = type_of(node.func.value, env)
                if owner in members:
                    return members[owner].get(func)
            return returns.get(func)
        return None

    def read(cls, attr):
        unread.difference_update({(c, f) for c, f in fields if f == attr
                                  and (c == cls or cls not in members)})

    def scope(body, env, cls=None):
        env = dict(env)
        nodes = list(_scope_nodes(body))
        assigns = [n for n in nodes if isinstance(n, (ast.Assign, ast.AnnAssign))]
        for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
            kind = (type_of(node.value, env) if isinstance(node, ast.Assign)
                    else _name(node.annotation))
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    # a name bound to two types has none
                    env[target.id] = kind if env.get(target.id, kind) == kind else None
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read(type_of(node.value, env), node.attr)
            elif isinstance(node, ast.Call) and _name(node.func) == "asdict":
                kind = type_of(node.args[0], env)
                for _, f in fields:
                    read(kind, f)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                inner = {a.arg: _name(a.annotation) for a in args}
                if cls and args:
                    inner[args[0].arg] = cls
                scope(node.body, {**env, **inner})
            elif isinstance(node, ast.ClassDef):
                scope(node.body, env, node.name)

    for source in reader_sources:
        scope(ast.parse(source).body, {})
    return sorted(f"{cls}.{f}" for cls, f in unread)


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


def test_scanner_flags_an_unread_field():
    # A.grid is never read: b.grid is typed B by make_b's annotation;
    # other.kind, on a receiver of unknown type, counts for A.kind
    package = ("@dataclass\n"
               "class A:\n"
               "    grid: int\n"
               "    kind: str\n"
               "    size: int\n"
               "@dataclass\n"
               "class B:\n"
               "    grid: int\n"
               "def make_b() -> B:\n"
               "    return B(1)\n")
    reader = ("def f(a: A, other):\n"
              "    return a.size, other.kind\n"
              "b = make_b()\n"
              "print(b.grid)\n")
    assert _dead_fields([package], [reader]) == ["A.grid"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert _unused_locals(path.read_text(encoding="utf-8")) == []


def test_every_dataclass_field_is_read():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert _dead_fields(package, readers) == []


def _fresh(code: str) -> str:
    """The standard output of a fresh interpreter running code on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_keeps_heavy_scipy_modules_out():
    # fluctsel binds four LAPACK routines from the OpenBLAS numpy already
    # maps, and only when a solver first needs them, so the import runs no
    # scipy at all: the scipy package (whose __init__ loads
    # scipy._lib._testutils, subprocess and sysconfig) and scipy.linalg
    # (scipy._lib.array_api_compat, numpy.f2py and numpy.testing) stay out.
    # scipy.integrate would pull in scipy.special and scipy.optimize, and
    # scipy.sparse adds about 70 modules. Only the command line reads
    # argparse. The package has no logger, so logging (with traceback and
    # string) stays out too
    heavy = ("scipy", "scipy._lib", "argparse", "scipy.linalg",
             "scipy.linalg._flapack", "scipy._lib.array_api_compat", "numpy.f2py",
             "numpy.testing", "scipy.integrate", "scipy.special",
             "scipy.optimize", "scipy.sparse", "logging", "traceback", "string")
    code = ("import sys, fluctsel\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    assert _fresh(code).split() == []


def test_import_loads_18_modules_after_numpy():
    # the package's 10 modules, json's 5, dataclasses with copy, and
    # __future__; numpy has loaded ctypes, which the LAPACK binding uses
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import fluctsel\n"
            "print(*sorted(set(sys.modules) - before))")
    loaded = _fresh(code).split()
    assert len(loaded) == 18, loaded


def test_a_sigma0_run_never_maps_lapack(tmp_path):
    # the sigma = 0 limit runs no diffusion solve: resolve, run and emit
    code = ("import sys\n"
            "from fluctsel import cli_io, pde_solver\n"
            "cfg = cli_io.resolve_config(cli_io.RunConfig(\n"
            f"    experiment='sigma0-convergence', out_dir={str(tmp_path)!r}))\n"
            "print(len(cli_io.emit_bundle(cli_io.run_experiment(cfg), cfg.out_dir)),\n"
            "      pde_solver._lapack.cache_info().misses,\n"
            "      'scipy.linalg._flapack' in sys.modules)")
    assert _fresh(code).split() == ["4", "0", "False"]


_PDE_RUN = """
import ctypes, os, sys
import numpy as np
import fluctsel as fs
grid = fs.SimulationGrid(x_lo=-2.0, x_hi=2.0, nx=32, steps_per_period=256, sigma=0.01)
model = fs.make_oscillating_optimum(1.0, 1.0, 1.0, 1.0)
fs.find_periodic_orbit(grid, model)
fs.simulate(grid, model, np.ones(grid.nx), 2.0)
maps = "/proc/self/maps"
blas = ({line.split()[-1] for line in open(maps) if "openblas" in line.lower()}
        if os.path.exists(maps) else ())
numpys = fs.pde_solver._lapack().int is ctypes.c_int64
print(numpys, "scipy.linalg._flapack" in sys.modules, len(blas))
"""


def test_a_pde_run_maps_one_openblas():
    # the guess's eigenpair, the eigen-solve and the simulation bind the
    # routines in the OpenBLAS numpy maps; scipy's LAPACK extension, with
    # its own OpenBLAS, is never loaded. Where numpy's folders hold no
    # library with scipy_dpttrf_64_ (numpy 1.x wheels, Accelerate or MKL
    # builds) the routines come from scipy's extension instead.
    numpys, flapack, libraries = _fresh(_PDE_RUN).split()
    if numpys == "False":
        assert flapack == "True"
        return
    assert flapack == "False"
    if sys.platform.startswith("linux"):
        assert libraries == "1"

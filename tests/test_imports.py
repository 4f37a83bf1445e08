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


def test_import_keeps_heavy_scipy_modules_out():
    # fluctsel binds four LAPACK routines from scipy's compiled extension
    # scipy.linalg._flapack alone, found without running the scipy package
    # (whose __init__ loads scipy._lib._testutils, subprocess and sysconfig);
    # the scipy.linalg package would load scipy._lib.array_api_compat,
    # numpy.f2py and numpy.testing, about half the import time.
    # scipy.integrate would pull in scipy.special and scipy.optimize, and
    # scipy.sparse adds about 70 modules. Only the command line reads
    # argparse. The package has no logger, so logging (with traceback and
    # string) stays out too
    heavy = ("scipy", "scipy._lib", "argparse", "scipy.linalg",
             "scipy._lib.array_api_compat", "numpy.f2py",
             "numpy.testing", "scipy.integrate", "scipy.special",
             "scipy.optimize", "scipy.sparse", "logging", "traceback", "string")
    code = ("import sys, fluctsel\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == []

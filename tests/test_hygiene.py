"""Every module of the package and of the tests uses each name it
imports, every function of the package reads each parameter it takes, and
no module of the package imports scipy; nor does a `bioz` process load
argparse or gettext.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by `import` or `from ... import` must appear as a name
somewhere else in the module.  `__init__.py` re-exports and is skipped.
A function parameter other than `self` and `cls` must be read somewhere
in the function's body, nested functions included.

The package's public settable values are counted and pinned, so a new
option cannot slip in unnoticed, and every public dataclass field must be
read somewhere in the package, so no field is kept that nothing reads.
No public function gives a `seed` a default: every caller states its seed.

numpy is the one runtime dependency: importing scipy would cost a `bioz`
process about a second before it measures anything.  scipy stays a test
dependency, as an independent cross-check.

No module of the package calls BLAS: no `@`, no `dot`, `matmul`,
`inner`, `vdot`, `tensordot` or `einsum`, and no `linalg`.  A `bioz`
process that touches OpenBLAS maps its pages and, at the default thread
count, starts its threads, for products of a few states that elementwise
numpy does as well.  `np.outer` is a ufunc and stays allowed.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biozsim"
TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py")
                         + sorted(f"tests/{p.name}" for p in TESTS.glob("*.py")))
def test_no_unused_imports(module):
    path = TESTS.parent / module if module.startswith("tests/") else PACKAGE / module
    assert unused_imports(path) == []


def unused_parameters(path: Path) -> list:
    tree = ast.parse(path.read_text())
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{node.name}({p})" for p in params if p not in ("self", "cls") and p not in read]
    return unused


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_parameters(module):
    assert unused_parameters(PACKAGE / module) == []


def imported_modules(path: Path) -> set:
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_scipy_import(module):
    assert not {m for m in imported_modules(PACKAGE / module) if m.split(".")[0] == "scipy"}


def test_calibrate_and_sweep_load_no_scipy_and_no_numpy_submodule(tmp_path):
    # a fresh interpreter, as a `bioz` process is; numpy's lazily loaded
    # submodules must load with the package, not inside a measurement
    script = textwrap.dedent(f"""
        import json, sys
        from biozsim import cli
        loaded = set(sys.modules)
        scenario = {str(tmp_path / "scenario.json")!r}
        with open(scenario, "w") as f:
            json.dump({{"model": {{"type": "parallel_rc", "r": 150.0, "c": 2e-9}}, "seed": 5}}, f)
        table = {str(tmp_path / "cal.json")!r}
        assert cli.main(["calibrate", "--scenario", scenario, "--out", table]) == 0
        assert cli.main(["sweep", "--scenario", scenario, "--cal", table, "--repeats", "1",
                         "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
        print(sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] == "numpy"))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-2:] == ["[]", "[]"]


def test_the_cli_loads_no_argparse_or_gettext():
    # `bioz` reads its command line by `cli._VERBS`; importing argparse,
    # and the gettext it loads, would cost every process 2-3 ms
    script = textwrap.dedent("""
        import contextlib, io, sys
        import biozsim, biozsim.cli
        print(sorted({"argparse", "gettext"} & set(sys.modules)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert biozsim.cli.main(["plan"]) == 0
        print(sorted({"argparse", "gettext"} & set(sys.modules)))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120, check=True)
    assert out.stdout.split() == ["[]", "[]"]


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def public_settable_values(path: Path) -> int:
    """Fields of the module's public dataclasses plus defaulted parameters
    of its public functions and of public methods of its public classes."""
    def defaulted(fn):
        return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)

    count = 0
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += defaulted(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            count += sum(defaulted(s) for s in node.body
                         if isinstance(s, ast.FunctionDef) and not s.name.startswith("_"))
    return count


def test_public_settable_values():
    """Every field and defaulted parameter is a value a caller can set.  A
    new one must be justified in CHANGES.md, and this pin updated there."""
    counts = {p.stem: public_settable_values(p) for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"}
    assert sum(counts.values()) == 72, f"per module: {counts}"


def defaulted_seeds(source: str) -> list:
    """`name(seed)` for each public function, or public method of a public
    class, that gives its `seed` parameter a default."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            functions.append(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions += [s for s in node.body
                          if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")]
    found = []
    for fn in functions:
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + [
            p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        found += [f"{fn.name}(seed)" for p in defaulted if p.arg == "seed"]
    return found


def test_no_public_seed_has_a_default():
    """A caller states every seed: a default would draw unseeded noise, or
    choose a stream on the caller's behalf."""
    assert [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
            for name in defaulted_seeds(p.read_text())] == []


@pytest.mark.parametrize("source, found", [
    ("def f(a, seed=None): pass", ["f(seed)"]),
    ("def f(a, *, seed=1): pass", ["f(seed)"]),
    ("def f(seed, b=2): pass", []),
    ("def f(a, *, seed, b=2): pass", []),
    ("def _f(seed=1): pass", []),
    ("class A:\n    def f(self, seed=1): pass", ["f(seed)"]),
    ("class _A:\n    def f(self, seed=1): pass", []),
])
def test_defaulted_seeds_are_found(source, found):
    assert defaulted_seeds(source) == found


def unread_fields(sources: list) -> list:
    """`Class.field` for each public field of a public dataclass whose name
    nothing in the sources reads: no attribute load `x.field` and no
    `getattr(x, "field")`.  Names are matched, not types, so a field is
    read when any attribute of its name is."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return [f"{cls.name}.{s.target.id}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_") and is_dataclass(cls)
            for s in cls.body if isinstance(s, ast.AnnAssign)
            and not s.target.id.startswith("_") and s.target.id not in read]


def test_every_public_field_is_read():
    assert unread_fields([p.read_text() for p in sorted(PACKAGE.glob("*.py"))]) == []


@pytest.mark.parametrize("reader, unread", [
    ("a.x + a.y", []),
    ("a.x + getattr(a, 'y')", []),
    ("a.x", ["A.y"]),
    ("a.y.x", []),
    ("setattr(a, 'x', a.y)", ["A.x"]),
])
def test_unread_fields_are_found(reader, unread):
    source = textwrap.dedent(f"""
        @dataclass(frozen=True)
        class A:
            x: int
            y: int = 0
            _z: int = 0

        @dataclass
        class _B:
            w: int

        def f(a):
            a.x = 1
            return {reader}
    """)
    assert unread_fields([source]) == unread


#: Attribute and imported names that reach BLAS through numpy.
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}


def blas_uses(source: str) -> list:
    """Each `@`, BLAS-backed numpy name or `linalg` in the source, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names = set((node.module or "").split(".")[1:]) | {a.name for a in node.names}
            found += [f"{node.lineno}: import {name}" for name in sorted(names & BLAS_NAMES)]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "numpy" and set(a.name.split(".")) & BLAS_NAMES]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_blas(module):
    assert blas_uses((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("source", [
    "y = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)", "np.inner(a, b)",
    "np.vdot(a, b)", "np.tensordot(a, b)", "np.einsum('ij,j', a, b)", "np.linalg.solve(a, b)",
    "from numpy.linalg import solve", "from numpy import dot", "import numpy.linalg",
])
def test_blas_uses_are_found(source):
    assert len(blas_uses(source)) == 1


def test_outer_products_and_decorators_are_not_blas():
    assert blas_uses("@functools.cache\ndef f(a, b):\n    return np.outer(a, b)\n") == []

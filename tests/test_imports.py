"""Import and ownership guards on the library's source.

No linter is a dependency, so this parses each module of src/biopt with
ast: every name an import statement binds must be read somewhere in the
same module (__init__.py is skipped, as its imports are the package's
public names), and no import sits inside a function, where it would hide
an import cycle.  No module imports a private (_-prefixed) name of
another.  psi's faces and B's diagonal have one owner each
(SimpleOracle.face, Metric.diagonal), so the drivers and the lower level
read neither psi's parameters nor B.  B's factor has one owner too
(Metric.W): no module but numerics calls cholesky or inv, and the drivers
and the lower level construct no Metric.  Whether B = I is asked only in
numerics (Metric) and in segment's exact-oracle dispatch: the driver, the
lower level and the acceptance test read no is_identity, as every metric
takes one path there.  So does a quadratic's spectrum
(QuadraticOracle.eigenbasis): no module but numerics and problems calls
eigh, eigvalsh or svd, and QuadraticOracle makes one such call, in
__init__.  And so does the scalar root finder (monotone_root): no module
but numerics holds a `while True` loop or calls ulp.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "biopt"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_guard_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[int]:
    """Lines of the import statements inside a function body."""
    return [node.lineno for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_guard_sees_a_function_import():
    assert function_imports("import os\ndef f():\n    import math\n") == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_function_imports(path):
    assert function_imports(path.read_text()) == []


def owner_reads(source: str) -> list[str]:
    """Reads of psi's weight, lo or hi or of a metric's B, and comparisons
    of a kind with anything but "zero"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("weight", "lo", "hi", "B"):
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides) \
                    and not any(isinstance(s, ast.Constant) and s.value == "zero"
                                for s in sides):
                found.append(f"{node.lineno}: .kind")
    return found


def test_guard_sees_owner_reads():
    source = ('psi.lo\nm.B\nm.B_cert\npsi.kind == "l1"\npsi.kind == "zero"\n'
              'psi.kind in kinds\n')
    assert owner_reads(source) == ["1: .lo", "2: .B", "4: .kind", "6: .kind"]


@pytest.mark.parametrize("name", ["lower.py", "driver.py"])
def test_faces_and_diagonal_have_one_owner(name):
    assert owner_reads((SRC / name).read_text()) == []


def identity_reads(source: str) -> list[str]:
    """Reads of a metric's is_identity."""
    return [f"{node.lineno}: .is_identity" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "is_identity"]


def test_guard_sees_identity_reads():
    source = "m.is_identity\nm.is_diagonal\nif metric.is_identity:\n    pass\n"
    assert identity_reads(source) == ["1: .is_identity", "3: .is_identity"]


@pytest.mark.parametrize("name", ["lower.py", "driver.py", "acceptance.py"])
def test_one_path_for_every_metric(name):
    assert identity_reads((SRC / name).read_text()) == []


def private_imports(source: str) -> list[str]:
    """_-prefixed names imported from a biopt module."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "biopt")
            for alias in node.names if alias.name.startswith("_")]


def test_guard_sees_a_private_import():
    source = ("from .driver import _a, b\nfrom biopt.cli import _c\n"
              "from os import _exit\nfrom __future__ import annotations\n")
    assert private_imports(source) == ["_a", "_c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def named_calls(source: str, names: tuple[str, ...],
                loops: bool = False) -> list[str]:
    """Calls of any of names, and with loops also `while True` loops, as
    "function: name" (or "function: while True") with the function or
    method (Class.method) whose body holds them."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in names:
                    found.append(f"{scope}: {name}")
            elif (loops and isinstance(child, ast.While)
                  and isinstance(child.test, ast.Constant) and child.test.value is True):
                found.append(f"{scope}: while True")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def factor_calls(source: str) -> list[str]:
    """Calls of cholesky, inv or Metric."""
    return named_calls(source, ("cholesky", "inv", "Metric"))


def test_guard_sees_factor_calls():
    source = ("class M:\n    def __init__(self, B):\n"
              "        self.W = np.linalg.inv(np.linalg.cholesky(B)).T\n"
              "def f(B):\n    return Metric(B), inv\n")
    assert factor_calls(source) == ["M.__init__: inv", "M.__init__: cholesky",
                                    "f: Metric"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_b_is_factored_once(path):
    # Metric.__init__ factors B (Metric.W) and nothing else factors or
    # inverts; the drivers and the lower level take the metric they are
    # given, as problems.py's builders make it
    calls = factor_calls(path.read_text())
    owner = ["Metric.__init__: inv", "Metric.__init__: cholesky"]
    assert [c for c in calls if not c.endswith("Metric")] == (
        owner if path.name == "numerics.py" else [])
    if path.name in ("lower.py", "driver.py", "segment.py", "acceptance.py"):
        assert calls == []


SPECTRAL = ("eigh", "eigvalsh", "svd")


def test_guard_sees_spectral_calls():
    source = ("class Q:\n    def __init__(self, A):\n        np.linalg.eigh(A)\n"
              "    def bound(self):\n        return svd(self.A)\n"
              "def f(A):\n    return np.linalg.eigvalsh(A), np.linalg.norm(A)\n")
    assert named_calls(source, SPECTRAL) == ["Q.__init__: eigh", "Q.bound: svd",
                                             "f: eigvalsh"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_spectra_have_owners(path):
    # QuadraticOracle.__init__ decomposes Q once, for the PSD check, M_2
    # and the eigenbasis that the exact segment prox and the radial solver
    # read; besides it only numerics (the radial solver's own basis, a
    # dense B's lambda_min) and problems (||A||_2^2 for the log-barrier)
    # decompose
    calls = named_calls(path.read_text(), SPECTRAL)
    if path.name not in ("numerics.py", "problems.py"):
        assert calls == []
    assert [c for c in calls if c.startswith("QuadraticOracle.")] == (
        ["QuadraticOracle.__init__: eigh"] if path.name == "problems.py" else [])


def test_guard_sees_root_finder_parts():
    source = ("def root(phi):\n    while True:\n        math.ulp(1.0)\n"
              "def scan():\n    while x:\n        ulp(x)\n    while 1:\n        pass\n")
    assert named_calls(source, ("ulp",), loops=True) == [
        "root: while True", "root: ulp", "scan: ulp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_scalar_root_finder_has_one_owner(path):
    # monotone_root owns the open-ended Newton loop and its ulp stop; every
    # other scalar root search hands it a (phi, phi') callable
    found = named_calls(path.read_text(), ("ulp",), loops=True)
    assert found == (["monotone_root: while True", "monotone_root: ulp"]
                     if path.name == "numerics.py" else [])

"""No numpy transcendental, BLAS or LAPACK call sets a logged value.

Run logs are pinned byte for byte, and numpy's transcendental loops and
its BLAS and LAPACK calls may round differently with the SIMD code a host
dispatches to. ``tests/test_golden.py`` reruns the pins with that dispatch
cut to its baseline, but only on x86. This test reads the package source
instead, so it holds on every host: it fails on any use of a numpy
transcendental, ``numpy.linalg``, a numpy product that may go to BLAS, or
the ``@`` operator, unless ``ALLOWED`` names it with the reason it is exact.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "percsched"

TRANSCENDENTAL = {
    "log", "log1p", "log2", "log10", "logaddexp", "logaddexp2",
    "exp", "expm1", "exp2", "power", "float_power",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "hypot",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
}
PRODUCTS = {"dot", "matmul", "einsum", "vdot", "inner", "tensordot"}
SUBMODULES = {"linalg"}

# (file, enclosing function, construct) -> why the result is exact
ALLOWED = {
    ("change_detect.py", "rgb_histograms", "@"): (
        "integer bin counts times a 0/1 matrix: every product and partial sum "
        "is an integer below 2**53, exact in any summation order"
    ),
}


class _Finder(ast.NodeVisitor):
    """Collects (enclosing function, construct) for every forbidden use."""

    def __init__(self) -> None:
        self.numpy_names = set()  # names bound to numpy or numpy.linalg
        self.found = []
        self.scope = ["<module>"]

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                bound = alias.asname or alias.name.partition(".")[0]
                self.numpy_names.add(bound)
                if alias.asname and alias.name.partition(".")[2] in SUBMODULES:
                    self.found.append((self.scope[-1], alias.name))

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if module == "numpy" or module.startswith("numpy."):
            for alias in node.names:
                if module != "numpy" or alias.name in TRANSCENDENTAL | PRODUCTS | SUBMODULES:
                    self.found.append((self.scope[-1], f"{module}.{alias.name}"))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.numpy_names:
            if node.attr in TRANSCENDENTAL | PRODUCTS | SUBMODULES:
                self.found.append((self.scope[-1], f"np.{node.attr}"))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self.found.append((self.scope[-1], "@"))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self.found.append((self.scope[-1], "@"))
        self.generic_visit(node)


def forbidden_uses(source: str):
    finder = _Finder()
    finder.visit(ast.parse(source))
    return finder.found


def test_package_uses_no_unlisted_numpy_math():
    found = {
        (path.name, scope, construct)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, construct in forbidden_uses(path.read_text(encoding="utf-8"))
    }
    assert sorted(found - set(ALLOWED)) == []
    # an entry whose use is gone leaves the list, so that it stays reviewed
    assert sorted(set(ALLOWED) - found) == []


@pytest.mark.parametrize(
    "source, construct",
    [
        ("import numpy as np\ndef f(x):\n    return np.log(x)", "np.log"),
        ("import numpy\ndef f(x):\n    return numpy.expm1(x)", "np.expm1"),
        ("import numpy as np\ndef f(x):\n    return np.arctan2(x, x)", "np.arctan2"),
        ("import numpy as np\nf = np.power", "np.power"),
        ("import numpy as np\ndef f(a):\n    return np.linalg.slogdet(a)", "np.linalg"),
        ("import numpy.linalg as la\ndef f(a):\n    return la.det(a)", "numpy.linalg"),
        ("from numpy.linalg import cholesky", "numpy.linalg.cholesky"),
        ("from numpy import exp", "numpy.exp"),
        ("import numpy as np\ndef f(a, b):\n    return np.einsum('ij,j', a, b)", "np.einsum"),
        ("def f(a, b):\n    return a @ b", "@"),
        ("def f(a, b):\n    a @= b\n    return a", "@"),
    ],
)
def test_finder_catches(source, construct):
    assert [c for _, c in forbidden_uses(source)] == [construct]


def test_finder_passes_exact_numpy_and_math():
    source = (
        "import math\nimport numpy as np\n"
        "def f(x):\n"
        "    y = np.sqrt(np.maximum(x, 0.0)) + np.abs(x) * 2.0\n"
        "    return math.log(float(y.sum())), np.clip(x, 0, 1), np.bincount([1])\n"
    )
    assert forbidden_uses(source) == []

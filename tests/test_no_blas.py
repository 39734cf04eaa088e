"""No kernel of ``src/jcm4`` may call BLAS.

OpenBLAS splits a product over its threads, and the split changes the
rounding, so a reduction through BLAS makes the output bytes depend on
``OPENBLAS_NUM_THREADS``.  This walks the syntax tree of every module and
names each ``@``, each call of a BLAS-backed numpy function and each use of
``linalg``.
"""

import ast
from pathlib import Path

import pytest

import jcm4

SRC = Path(jcm4.__file__).parent
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(source: str) -> list[str]:
    """``line: what`` for each BLAS-backed construct in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                what = f"{name}()"
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            what = "linalg"
        elif isinstance(node, ast.Name) and node.id == "linalg":
            what = "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name.split(".") for name in names):
                what = "import of linalg"
        if what:
            found.append(f"{node.lineno}: {what}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_calls_no_blas(path):
    assert blas_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "c = a @ b",
    "a @= b",
    "np.dot(a, b)",
    "a.dot(b)",
    "vdot(a, b)",
    "np.inner(a, b)",
    "np.matmul(a, b)",
    "np.tensordot(a, b, 1)",
    "np.einsum('i,i', a, b)",
    "np.linalg.norm(a)",
    "from numpy import linalg",
    "from numpy.linalg import norm",
    "import numpy.linalg",
])
def test_guard_names_each_blas_use(source):
    assert len(blas_uses(source)) == 1


def test_guard_passes_numpy_sums():
    assert blas_uses("s = np.sum(np.conj(a) * b)\nq = a * b.real") == []

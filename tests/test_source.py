"""Rules over the library's own source."""

import ast
import sys
from pathlib import Path

import weylkit


def test_library_has_no_assert():
    # python -O strips assert, so every check a verdict rests on goes
    # through errors.ensure or raises a coded error
    root = Path(weylkit.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_harmonic_imports_only_stdlib_numpy_and_errors():
    # the analytic layer sits below the exact and bundle layers: it may use
    # the shared error codes but nothing else of the package
    path = Path(weylkit.__file__).parent / "harmonic.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("weylkit." if node.level else "") + (node.module or "")
            found += [base] if node.module else [base + alias.name for alias in node.names]
    allowed = sys.stdlib_module_names | {"numpy"}
    bad = [n for n in found if n != "weylkit.errors" and n.split(".")[0] not in allowed]
    assert found and bad == []


def test_exact_modules_multiply_only_through_matmul():
    # the exact-only modules have one matrix product, linalg.matmul: a dense
    # object @ spends nearly all of its time on zero entries
    root = Path(weylkit.__file__).parent
    found = [
        f"{name}.py:{node.lineno}"
        for name in ("linalg", "rootsys", "repthy", "spherical", "sympoly")
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert found == []

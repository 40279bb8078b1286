"""Rules over the library's own source."""

import ast
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

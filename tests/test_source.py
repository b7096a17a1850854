"""Rules the package source itself must follow."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "mengerian"


def test_no_assert_statements():
    # python -O strips asserts, so a check that carries weight raises instead
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

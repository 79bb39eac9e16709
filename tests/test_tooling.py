"""Checks on the library's source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vconn"


def test_no_assert_statements_in_library():
    # ``python -O`` strips assert statements, so a check that guards a
    # result must raise instead.
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

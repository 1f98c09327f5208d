"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ciprop"


def test_package_has_no_assert_statements():
    # python -O strips assert statements; postconditions must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py"))
    assert found == []

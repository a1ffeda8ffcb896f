"""Checks on the package source itself."""

import ast
from pathlib import Path

import tamebars

SRC = Path(tamebars.__file__).resolve().parent


def test_no_assert_statements():
    # invariants must raise typed errors: ``python -O`` strips asserts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

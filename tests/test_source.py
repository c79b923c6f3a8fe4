"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import mondrianforest

SOURCES = sorted(Path(mondrianforest.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # invariants are checked with exceptions: `python -O` strips assert
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

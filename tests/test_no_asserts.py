"""No library module uses an assert statement.

`python -O` strips asserts, so a check in library code must raise an error
instead (the library raises AlgebraError and its subclasses). Each module
under src/gaugequandles/ is parsed with ast.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugequandles"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_finds_asserts():
    source = "def f(x):\n    assert x, 'no'\n    if x:\n        assert x > 1\n    return 'assert'\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []

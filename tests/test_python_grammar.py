"""Every Python file of the project parses under the Python 3.10 grammar.

pyproject.toml declares requires-python >= 3.10, and a newer interpreter
accepts syntax that 3.10 rejects, such as an `except*` handler or a `type`
alias statement. So each .py file under src/, ci/, tests/ and bench/ is read
and parsed with ast.parse(..., feature_version=(3, 10)); nothing is imported
or written.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for top in ("src", "ci", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def test_the_files_are_found():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {"src", "ci", "tests", "bench"}
    assert Path(__file__).resolve() in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_check_rejects_newer_syntax():
    # An exception group handler, new in Python 3.11.
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))

"""No library module defines a top-level function or class that nothing uses.

Each module under src/gaugequandles/ is parsed with ast. A top-level
function or class must be named somewhere under src/ outside its own
definition, as a name or as an attribute, or be exported by __init__.py.
A definition that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugequandles"


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level definition in sources, module name to text, that no other statement names
    and that the module "__init__" does not import."""
    exported: set[str] = set()
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        if module == "__init__":
            exported |= {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
            continue
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append((module, own))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    named.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in named | exported)


def test_the_check_finds_unreferenced_definitions():
    sources = {
        "__init__": "from .a import Exported\n",
        "a": "class Exported: pass\ndef called(): pass\ndef recursive(n): return recursive(n - 1)\ndef _unused(): pass\n",
        "b": "from . import a\nfrom .a import called\ndef _helper(): return a.attribute()\nx = called() + _helper()\n",
        "c": "def attribute(): pass\n",
    }
    assert unreferenced(sources) == ["a._unused", "a.recursive"]


def test_every_library_definition_is_used_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == []

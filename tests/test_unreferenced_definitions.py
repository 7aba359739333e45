"""No library module defines a top-level function or class that nothing uses.

Each module under src/gaugequandles/ is parsed with ast. A top-level
function or class must be named somewhere under src/ outside its own
definition, as a name or as an attribute, or be exported by __init__.py.
A definition that only tests call belongs in the tests. An export that
nothing else under src/ names must be documented in README.md, so that
every public name has a caller or a reader.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gaugequandles"


def _names(sources: dict[str, str]) -> tuple[set[str], list[tuple[str, str]], set[str]]:
    """The names the module "__init__" imports, the (module, name) of every other module's top-level function or
    class, and every name those modules use outside the definition of that name, in sources, module name to text."""
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
    return exported, defined, named


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level definition in sources that no other statement names and that "__init__"
    does not import."""
    exported, defined, named = _names(sources)
    return sorted(f"{module}.{name}" for module, name in defined if name not in named | exported)


def undocumented_exports(sources: dict[str, str], readme: str) -> list[str]:
    """Each name "__init__" imports that no other module of sources names and that readme does not mention."""
    exported, _, named = _names(sources)
    return sorted(name for name in exported - named if not re.search(rf"\b{re.escape(name)}\b", readme))


def test_the_check_finds_unreferenced_definitions():
    sources = {
        "__init__": "from .a import Exported\n",
        "a": "class Exported: pass\ndef called(): pass\ndef recursive(n): return recursive(n - 1)\ndef _unused(): pass\n",
        "b": "from . import a\nfrom .a import called\ndef _helper(): return a.attribute()\nx = called() + _helper()\n",
        "c": "def attribute(): pass\n",
    }
    assert unreferenced(sources) == ["a._unused", "a.recursive"]


def test_every_library_definition_is_used_or_exported():
    assert unreferenced(_library()) == []


def test_the_check_finds_exports_that_only_the_readme_could_explain():
    sources = {
        "__init__": "from .a import Called, documented, orphan, orphan_too\n",
        "a": "class Called: pass\ndef documented(): pass\ndef orphan(): pass\ndef orphan_too(): pass\n",
        "b": "from .a import Called\nx = Called()\n",
    }
    readme = "Call `documented()` for the answer; not_orphan and orphan_tool are other words.\n"
    assert undocumented_exports(sources, readme) == ["orphan", "orphan_too"]


def test_every_export_is_used_or_documented():
    assert undocumented_exports(_library(), (ROOT / "README.md").read_text()) == []


def _library() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}

"""The library imports nothing outside the standard library, and its search has one entry, ``semantics``."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mmarg"


def absolute_imports(path: Path) -> list[str]:
    """The top-level package of every absolute import in one module, in source order."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_library_modules_import_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    outside = {
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


SEARCH = {"_index", "_complete_masks", "_grounded_mask"}
REPO = SRC.parents[1]


def referenced_names(path: Path) -> set[str]:
    """Every name one module reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def search_callers(path: Path) -> dict[str, list[str]]:
    """For each name of :data:`SEARCH`, the top-level function of every call to it, in source order."""
    callers: dict[str, list[str]] = {name: [] for name in SEARCH}
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in SEARCH:
                callers[node.func.id].append(getattr(top, "name", "<module>"))
    return callers


def test_the_search_is_entered_only_through_semantics():
    modules = [p for d in ("src/mmarg", "scripts", "tests", "bench") for p in sorted((REPO / d).glob("*.py"))]
    assert SRC / "semantics.py" in modules
    outside = {(p.name, n) for p in modules if p != SRC / "semantics.py" for n in referenced_names(p) & SEARCH}
    assert not outside
    callers = search_callers(SRC / "semantics.py")
    assert callers["_index"] == ["semantics"]
    assert set(callers["_complete_masks"]) == {"semantics"}
    assert set(callers["_grounded_mask"]) == {"semantics", "_complete_masks"}

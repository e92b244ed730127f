"""The library imports nothing outside the standard library."""

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

"""The library imports nothing outside the standard library, its search has one entry, ``semantics``,
the solver's module defines nothing else public, the preference module defines only ``adjust`` and
``derive_inter``, a verdict is computed in one place, ``dynamics.step``, no solve is cached, the
scenario parser builds no violation but the trust cap's, and ``frames.py`` imports nothing of the package."""

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


SEARCH = {"_complete_masks", "_preferred_masks", "_grounded_mask"}
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


def callers_of(path: Path, names: set[str]) -> dict[str, list[str]]:
    """For each of ``names``, the top-level function of every call to it in one module, in source order."""
    callers: dict[str, list[str]] = {name: [] for name in names}
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                callers[node.func.id].append(getattr(top, "name", "<module>"))
    return callers


def naming_modules(names: set[str], home: Path) -> set[tuple[str, str]]:
    """(module, name) for every module of the repo other than ``home`` that names one of ``names``."""
    modules = [p for d in ("src/mmarg", "scripts", "tests", "bench") for p in sorted((REPO / d).glob("*.py"))]
    assert home in modules
    return {(p.name, n) for p in modules if p != home for n in referenced_names(p) & names}


def test_the_search_is_entered_only_through_semantics():
    assert not naming_modules(SEARCH, SRC / "semantics.py")
    callers = callers_of(SRC / "semantics.py", SEARCH)
    # Each search is called by name, once, from `semantics`, which alone builds their starting labelling.
    assert callers == {"_complete_masks": ["semantics"], "_preferred_masks": ["semantics"], "_grounded_mask": ["semantics"]}


def defined_names(path: Path) -> set[str]:
    """Every name one module binds at top level by a ``def``, a ``class`` or an assignment."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names.update(node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name))
    return names


def test_the_solver_module_defines_only_the_solver():
    # The clause tests (conflict-free, defends) live in the oracle, and detection never asks for acceptance.
    public = {name for name in defined_names(SRC / "semantics.py") if not name.startswith("_")}
    assert public == {"ExtensionSet", "SemanticsKind", "semantics", "sorted_extensions"}


def test_the_preference_module_defines_only_adjust_and_derive_inter():
    # A fact split is a frozenset of arguments and a trust order a frozenset of pairs; no class wraps either.
    public = {name for name in defined_names(SRC / "preferences.py") if not name.startswith("_")}
    assert public == {"adjust", "derive_inter"}


def test_a_verdict_is_computed_only_by_the_replay_step():
    # A second entry to `_verdict` (a one-pair `detect`, say) fails here.
    assert not naming_modules({"_verdict"}, SRC / "dynamics.py")
    assert callers_of(SRC / "dynamics.py", {"_verdict"}) == {"_verdict": ["step"]}


def _is_cache(node: ast.expr) -> bool:
    """Whether an expression is ``cache`` or ``lru_cache``, bare, as a module attribute or called with options."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in {"cache", "lru_cache"}


def cached(path: Path) -> list[str]:
    """What one module wraps in ``functools.cache`` or ``lru_cache``: each decorated function's name and
    each wrapped expression's source."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.FunctionDef):
            found += [node.name for d in node.decorator_list if _is_cache(d)]
        elif isinstance(node, ast.Call) and _is_cache(node.func) and node.args:
            found.append(ast.unparse(node.args[0]))
    return found


def test_no_solve_is_cached():
    # Every solve calls `semantics` as it is bound at that moment, so the oracle rebinding and the tracer
    # see each one; the CLI's parser is the library's only cache.
    assert [(p.name, name) for p in sorted(SRC.glob("*.py")) for name in cached(p)] == [("cli.py", "build_parser")]


PARSE_HELPERS = {"load_scenario", "parse_scenario", "_as_frame", "_matrix"}


def eager_messages(path: Path, functions: set[str]) -> list[tuple[str, int]]:
    """(function, line) of every message built outside a ``raise`` statement in ``functions``:
    an f-string with a ``!r`` conversion, a ``.format`` call, a ``%`` on a string or a ``repr`` call."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if getattr(top, "name", None) not in functions:
            continue
        raised = {id(node) for stmt in ast.walk(top) if isinstance(stmt, ast.Raise) for node in ast.walk(stmt)}
        for node in ast.walk(top):
            eager = (
                isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "format"
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "repr"
                or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and (
                    isinstance(node.left, ast.JoinedStr)
                    or isinstance(node.left, ast.Constant) and isinstance(node.left.value, str))
            )
            if eager and id(node) not in raised:
                found.append((top.name, node.lineno))
    return found


def test_parse_checks_build_their_message_only_when_they_raise():
    tops = {getattr(top, "name", None) for top in ast.parse((SRC / "scenario.py").read_text(encoding="utf-8")).body}
    assert PARSE_HELPERS <= tops
    assert eager_messages(SRC / "scenario.py", PARSE_HELPERS) == []


def test_frames_is_the_bottom_layer():
    # Both attack-graph shapes and the id rule live in frames.py, which imports nothing of the package,
    # so no import cycle (a TYPE_CHECKING one included) can return; no module reaches into it for a private name.
    tree = ast.parse((SRC / "frames.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert {"ArgumentationFrame", "AnnouncementEvent"} <= defined_names(SRC / "frames.py")
    private = {
        (path.name, alias.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "frames"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private


def test_no_library_module_imports_importlib():
    # Bundled fixtures are found by path beside scenario.py, not through importlib.resources.
    assert not {p.name for p in SRC.glob("*.py") if "importlib" in absolute_imports(p)}


def violation_conditions(path: Path) -> list[object]:
    """The condition of every ``Violation`` one module builds: the string, or ``None`` where it is not a literal."""
    conditions = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Violation":
            first = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "condition"), None)
            conditions.append(first.value if isinstance(first, ast.Constant) else None)
    return conditions


def test_the_parser_states_no_condition_of_validate():
    # `validate` and the frame constructors state every condition on the state; the parser adds only the trust cap.
    assert set(violation_conditions(SRC / "scenario.py")) <= {"trust range"}

"""Mutation fuzzing of the bundled fixtures: scenario parsing is total.

Every mutated document either loads or raises one of the two scenario
errors, and ``mmarg validate`` on it exits with the code that outcome
maps to.  Runs are derandomized, so the examples are the same every time.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mmarg.cli import EX_OK, EX_PARSE, EX_VALIDATION, main
from mmarg.scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    bundled_scenarios,
    dumps_scenario,
    fixture_path,
    load_scenario,
)


def _read(name: str) -> bytes:
    with open(fixture_path(name), "rb") as fh:
        return fh.read()


FIXTURES = {name: _read(name) for name in bundled_scenarios()}
# The same fixtures written back with every optional key present, so
# structural mutations reach ``omega_overrides`` too.
DOCUMENTS = {name: dumps_scenario(load_scenario(raw)) for name, raw in FIXTURES.items()}


def _pick(data, doc) -> list:
    """Path to a node of ``doc``, drawn by descending from a top-level key.

    Shallow nodes come up far more often than a uniform draw over all
    nodes would make them, so every top-level key is replaced or deleted
    many times per run.
    """
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or data.draw(st.booleans())):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        path.append(keys[data.draw(st.integers(0, len(keys) - 1))])
        node = node[path[-1]]
    return path


def _strings(node) -> set[str]:
    if isinstance(node, str):
        return {node}
    if isinstance(node, dict):
        return set(node).union(*(_strings(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(_strings(v) for v in node))
    return set()


# Leaves include the fixtures' own ids and keywords, so replacements often
# stay close enough to a scenario to reach validation.
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2000, 2000)
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(sorted(set().union(*(_strings(json.loads(text)) for text in DOCUMENTS.values()))))
)
JSON = LEAVES | st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)

FUZZ = settings(max_examples=250, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


def _check(raw: bytes, path) -> None:
    try:
        load_scenario(raw)
        expected = EX_OK
    except ScenarioValidationError:
        expected = EX_VALIDATION
    except ScenarioParseError:
        expected = EX_PARSE
    path.write_bytes(raw)
    assert main(["validate", str(path)]) == expected


@FUZZ
@given(data=st.data())
def test_replaced_or_deleted_nodes_parse_or_raise_a_scenario_error(scratch_file, data):
    doc = json.loads(DOCUMENTS[data.draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        path = _pick(data, doc)
        if not path:
            doc = data.draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
    _check(json.dumps(doc).encode("utf-8"), scratch_file)


@FUZZ
@given(data=st.data())
def test_flipped_bytes_parse_or_raise_a_scenario_error(scratch_file, data):
    raw = bytearray(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(data.draw(st.integers(1, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    _check(bytes(raw), scratch_file)

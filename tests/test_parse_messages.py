"""Every scenario parse outcome is pinned, message text included.

Two goldens under ``tests/data/``:

- ``parse_messages.json``: for each raise site of ``load_scenario``,
  ``parse_scenario`` and its helpers, one malformed variant of
  ``mafia_endgame`` (see :data:`VARIANTS`) and the exact exception it raises;
- ``parse_corpus.json``: a seeded corpus of node replacements and deletions
  over the bundled fixtures as ``dumps_scenario`` writes them, each with its
  outcome (``ok``, or the exception type and message).

Both were written by the code before its checks were rewritten, and
regenerated when the parser stopped restating conditions of the state.  Scope
overlap, awareness or public outside the global frame and an override of an
unknown subject now read as ``validate`` words them; a global attack on an
undeclared argument and an empty announcer list as the frame constructors word
them.  No outcome moved between ``ok`` and an error then.  They were last
regenerated when the parser began rejecting unknown keys, which moved five
corpus outcomes: three from ``ok`` and one from a validation error to a parse
error, and one parse error to another message.  Regenerate them only when a
message is meant to change::

    PYTHONPATH=src python tests/test_parse_messages.py

No outcome may depend on the string hash seed, so the corpus is replayed in
child processes under several values of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any

from mmarg.scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    bundled_scenarios,
    dumps_scenario,
    fixture_path,
    load_scenario,
)

DATA = Path(__file__).parent / "data"
MESSAGES = DATA / "parse_messages.json"
CORPUS = DATA / "parse_corpus.json"
CORPUS_SEED = 0
CORPUS_SIZE = 2000

DELETE = object()

# name -> (path into the dumped mafia_endgame document, new value or DELETE);
# an empty path replaces the whole document, and bytes are loaded as they are.
VARIANTS: dict[str, Any] = {
    "invalid JSON": b'{"notes": }',
    "document not an object": ([], []),
    "missing top-level key": (["trust"], DELETE),
    "notes not a string": (["notes"], 7),
    "unknown top-level key": (["omega_override"], {"e1": {}}),
    "arguments not a list": (["arguments"], {}),
    "argument owner not a string": (["arguments", 0, "owner"], 7),
    "argument label null": (["arguments", 0, "label"], None),
    "argument declaration not an object": (["arguments", 0], "a1"),
    "empty argument id": (["arguments", 0, "id"], ""),
    "duplicate argument id": (["arguments", 1, "id"], "a1"),
    "argument declaration unknown key": (["arguments", 0, "lable"], "x"),
    "scopes empty": (["scopes"], {}),
    "scopes not an object": (["scopes"], ["e1"]),
    "agent name holds a colon": (["scopes", "e:1"], []),
    "argument owned by an unknown agent": (["arguments", 0, "owner"], "e9"),
    "scope not a list of ids": (["scopes", "e1"], ["a1", 2]),
    "overlapping scopes": (["scopes", "e2"], ["a1", "a4", "a5", "a6"]),
    "scope lists an argument twice": (["scopes", "e2"], ["a4", "a5", "a6", "a6"]),
    "scope disagrees with the owners": (["scopes", "e1"], ["a1", "a2"]),
    "global attacks not a list": (["global_attacks"], {}),
    "global attack entry too short": (["global_attacks", 0], ["a1"]),
    "global attack entry not a list": (["global_attacks", 0], "a1"),
    "global attack entry not strings": (["global_attacks", 0], ["a1", 2]),
    "global attack on an undeclared argument": (["global_attacks", 0], ["a1", "zz"]),
    "awareness misses an agent": (["awareness", "e3"], DELETE),
    "awareness not an object": (["awareness"], []),
    "awareness frame not an object": (["awareness", "e1"], []),
    "awareness args not a list": (["awareness", "e1", "args"], "a1"),
    "awareness arg not a string": (["awareness", "e1", "args", 0], 1),
    "awareness attacks not a list": (["awareness", "e1", "attacks"], {}),
    "awareness frame unknown key": (["awareness", "e1", "atacks"], []),
    "awareness attack entry not strings": (["awareness", "e1", "attacks", 0], [1, 2]),
    "awareness attack dangles": (["awareness", "e1", "attacks", 0], ["a1", "a9"]),
    "awareness empty argument id": (["awareness", "e1", "args", 0], ""),
    "awareness uses an undeclared argument": (["awareness", "e1", "args"], ["a1", "a2", "a3", "zz"]),
    "public not an object": (["public"], 1),
    "public uses an undeclared argument": (["public", "args"], ["zz"]),
    "public attack dangles": (["public", "attacks"], [["a1", "a2"]]),
    "gsem not an object": (["gsem"], []),
    "gsem misses a row": (["gsem", "e2"], DELETE),
    "gsem row not an object": (["gsem", "e2"], "preferred"),
    "gsem misses an entry": (["gsem", "e2", "e3"], DELETE),
    "gsem row for an unknown agent": (["gsem", "e9"], {"e1": "grounded"}),
    "unknown semantics": (["gsem", "e1", "e2"], "stable"),
    "unhashable semantics": (["gsem", "e1", "e2"], ["preferred"]),
    "factual not an object": (["factual"], 1),
    "factual misses an entry": (["factual", "e3", "e1"], DELETE),
    "factual not a list of ids": (["factual", "e1", "e1"], "a1"),
    "factual entry for an unknown agent": (["factual", "e1", "e9"], []),
    "factual outside awareness": (["factual", "e1", "e1"], ["a1", "a9"]),
    "trust misses a row": (["trust", "e1"], DELETE),
    "trust entry for an unknown agent": (["trust", "e1", "e9"], 0),
    "trust not an integer": (["trust", "e1", "e2"], 0.5),
    "trust a boolean": (["trust", "e1", "e2"], True),
    "trust over the cap": (["trust", "e1", "e2"], 1001),
    "omega_overrides not an object": (["omega_overrides"], []),
    "override row for an unknown agent": (["omega_overrides"], {"e9": {}}),
    "override row not an object": (["omega_overrides"], {"e1": []}),
    "override for an unknown subject": (["omega_overrides"], {"e1": {"e9": {"args": ["a1"], "attacks": []}}}),
    "override frame not an object": (["omega_overrides"], {"e1": {"e2": 3}}),
    "override attack entry bad": (["omega_overrides"], {"e1": {"e2": {"args": [], "attacks": [3]}}}),
    "override escapes its bounds": (["omega_overrides"], {"e1": {"e2": {"args": ["a9"], "attacks": []}}}),
    "self override not the awareness": (["omega_overrides"], {"e1": {"e1": {"args": ["a1"], "attacks": []}}}),
    "script not a list": (["script"], {}),
    "script step not an object": (["script", 0], []),
    "script announcers empty": (["script", 0, "announcers"], []),
    "script announcers not strings": (["script", 0, "announcers"], [1]),
    "script unknown announcer": (["script", 0, "announcers"], ["e9"]),
    "script args not a list": (["script", 0, "args"], "a9"),
    "script attacks not a list": (["script", 1, "attacks"], "a4"),
    "script attack entry bad": (["script", 1, "attacks", 0], ["a4"]),
    "script attack touching none of its args": (["script", 1, "attacks"], [["y", "z"]]),
    "script empty argument id": (["script", 1, "args"], ["a4", ""]),
    "script step unknown key": (["script", 1, "atacks"], [["a4", "a5"]]),
    "policy not an object": (["policy"], []),
    "policy step negative": (["policy", "honest"], -1),
    "policy step not an integer": (["policy", "dishonest"], "1"),
    "policy unknown key": (["policy", "honset"], 5),
    "policy holds a frame": (["policy"], {"args": [], "attacks": []}),
}


def dumped(name: str) -> str:
    with open(fixture_path(name), "rb") as fh:
        return dumps_scenario(load_scenario(fh))


def mutate(doc: Any, path: list, value: Any) -> Any:
    """``doc`` with the node at ``path`` set to ``value`` or deleted; the new document."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def outcome(source: str | bytes) -> list[str]:
    """``["ok", ""]``, or the exception's type name and message."""
    try:
        load_scenario(source)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", ""]


def variant_outcomes() -> dict[str, list[str]]:
    base = json.loads(dumped("mafia_endgame"))
    out = {}
    for name, case in VARIANTS.items():
        if isinstance(case, bytes):
            out[name] = outcome(case)
        else:
            out[name] = outcome(json.dumps(mutate(copy.deepcopy(base), *case)))
    return out


def _leaves(node: Any) -> set:
    if isinstance(node, dict):
        return set(node).union(*(_leaves(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(_leaves(v) for v in node))
    return {node} if isinstance(node, str) else set()


def corpus() -> list[list]:
    """``[fixture, path, value or "<delete>", type, message]`` for each seeded mutation.

    A path starts at a drawn top-level key and descends through one drawn key
    or index at a time, stopping at each level with probability 0.3; half the
    mutations delete the node the path reaches.  Replacements come from a
    fixed list of small JSON values, the fixtures' own strings among them, so
    many mutations get past the schema checks into validation.
    """
    docs = {name: dumped(name) for name in bundled_scenarios()}
    strings = sorted(set().union(*(_leaves(json.loads(text)) for text in docs.values())) - {""})
    strings = [s for s in strings if len(s) <= 20]
    values = [None, True, False, 0, 1, -1, 2, 1001, -1001, 1.5, "", "x", [], {}, [[]], ["a1"], ["a1", "a2"],
              [["a1", "a2"]], [["a1", 2]], {"args": [], "attacks": []}, {"e1": {}}, *strings]
    rng = random.Random(CORPUS_SEED)
    names = sorted(docs)
    rows = []
    for _ in range(CORPUS_SIZE):
        name = rng.choice(names)
        doc = json.loads(docs[name])
        path, node = [], doc
        while isinstance(node, (dict, list)) and node and (not path or rng.random() < 0.7):
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            path.append(rng.choice(keys))
            node = node[path[-1]]
        value = DELETE if rng.random() < 0.5 else copy.deepcopy(rng.choice(values))
        new = mutate(doc, path, value)
        rows.append([name, path, "<delete>" if value is DELETE else value, *outcome(json.dumps(new))])
    return rows


def test_every_raise_site_keeps_its_message():
    assert variant_outcomes() == json.loads(MESSAGES.read_text(encoding="utf-8"))


def test_the_seeded_corpus_keeps_every_outcome():
    # Hash seeds 0-3 and one drawn at random, each in its own child, all at once.
    want = json.loads(CORPUS.read_text(encoding="utf-8"))
    src = str(Path(__file__).parents[1] / "src")
    children = {
        seed: subprocess.Popen([sys.executable, __file__, "--print-corpus"], stdout=subprocess.PIPE, text=True,
                               env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src))
        for seed in (0, 1, 2, 3, random.randrange(4, 2**32))
    }
    outputs = {seed: child.communicate()[0] for seed, child in children.items()}
    for seed, out in outputs.items():
        assert children[seed].returncode == 0, f"PYTHONHASHSEED={seed}: exit {children[seed].returncode}"
        got = json.loads(out)
        assert len(got) == len(want) == CORPUS_SIZE
        diffs = [(i, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
        assert not diffs, f"PYTHONHASHSEED={seed}: {len(diffs)} outcomes differ; first: {diffs[0]}"


def test_the_corpus_reaches_every_outcome():
    kinds = [row[3] for row in json.loads(CORPUS.read_text(encoding="utf-8"))]
    assert min(kinds.count(kind) for kind in ("ok", "ScenarioParseError", "ScenarioValidationError")) >= 50


def _write(path: Path, rows: Any) -> None:
    if isinstance(rows, dict):
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()]
        text = "{\n" + ",\n".join(lines) + "\n}\n"
    else:
        text = "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"
    path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--print-corpus"]:
        json.dump(corpus(), sys.stdout)
    else:
        _write(MESSAGES, variant_outcomes())
        _write(CORPUS, corpus())

"""The benchmark workloads.

A workload has three parts, kept apart so that only the middle one is
timed as set-up:

* ``generate(seed)`` returns plain data (no ``mmarg`` import): a list of
  items whose bytes depend on the seed alone.
* ``load(mods, items)`` turns the items into program objects: parse and
  validate for scenarios, frame construction for ``solve-dense``.
* ``ops(mods, items, loaded)`` lists the operations as ``(call, canon)``
  pairs, the same number for every item.  ``call()`` is one timed
  operation; ``canon(result)`` renders its output as text for the
  correctness check, outside the timed interval.

Every program entry point is looked up on its module at call time
(``mods.cli.main``, ``mods.scenario.run``, ``mmarg.semantics``), so a
function rebound by the solver substitution or by the tracer is the one
that runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

# Pool sizes and input shapes; README.md says why each workload looks as it does.
SYNTH_GAMES = 120
SYNTH_SHAPE = dict(n_agents=10, n_args=10, density=0.15, n_steps=15)
DENSE_FRAMES = 1000
DENSE_SHAPE = dict(n=13, density=0.3)


class Modules:
    """The ``mmarg`` submodules a workload calls into, resolved after import."""

    def __init__(self) -> None:
        self.pkg = sys.modules["mmarg"]
        self.cli = sys.modules.get("mmarg.cli")
        self.scenario = sys.modules["mmarg.scenario"]
        self.frames = sys.modules["mmarg.frames"]


def canon_extensions(exts) -> str:
    return json.dumps(sorted(sorted(e) for e in exts))


def _identity(text: str) -> str:
    return text


@dataclass(frozen=True)
class Workload:
    name: str
    op_unit: str
    modules: tuple[str, ...]
    generate: Callable[[int], list]
    load: Callable[[Modules, list], list]
    ops: Callable[[Modules, list, list], list]


# ---------------------------------------------------------------------------
# cli-session

def _session_commands(fixture: str, steps: int, agents: list[str]) -> list[list[str]]:
    cmds = [["run", fixture, "--with-semantics"]]
    for at in range(steps + 1):
        where = [fixture, "--at", str(at)]
        for view in ("public", "local"):
            for v in agents:
                for s in agents:
                    cmds.append(["query", *where, "--viewer", v, "--subject", s, "--view", view])
        for v in agents:
            cmds.append(["query", *where, "--viewer", v, "--view", "trust-adjusted"])
            cmds.append(["export", *where, "--view", f"trust-adjusted:{v}"])
    return cmds


def _fixture_docs() -> list[tuple[str, dict]]:
    root = Path(__file__).resolve().parents[1] / "src" / "mmarg" / "fixtures"
    return [(name, json.loads((root / f"{name}.json").read_text(encoding="utf-8"))) for name in gen.FIXTURES]


def cli_generate(seed: int) -> list:
    """The session's commands, in an order fixed by the seed."""
    cmds = []
    for name, doc in _fixture_docs():
        cmds += _session_commands(name, len(doc["script"]), sorted(doc["scopes"]))
    gen.rng_for("cli-session", seed).shuffle(cmds)
    return cmds


def cli_load(mods: Modules, items: list) -> list:
    scenario = mods.scenario
    loaded = []
    for name in gen.FIXTURES:
        with open(scenario.fixture_path(name), "rb") as fh:
            loaded.append(scenario.load_scenario(fh))
    return loaded


def _cli_call(mods: Modules, argv: list[str]) -> Callable[[], str]:
    def call() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors exit through SystemExit
                code = exc.code
        return f"exit {code}\n{out.getvalue()}\n{err.getvalue()}"
    return call


def cli_ops(mods: Modules, items: list, loaded: list) -> list:
    return [(_cli_call(mods, argv), _identity) for argv in items]


# ---------------------------------------------------------------------------
# synth-replay

def synth_generate(seed: int) -> list:
    rng = gen.rng_for("synth-replay", seed)
    return [gen.dumps(gen.game_document(rng, **SYNTH_SHAPE)) for _ in range(SYNTH_GAMES)]


def synth_load(mods: Modules, items: list) -> list:
    return [mods.scenario.load_scenario(text) for text in items]


def _replay_call(mods: Modules, sc) -> Callable[[], str]:
    def call() -> str:
        return mods.scenario.dumps_trace(mods.scenario.run(sc, with_semantics=True))
    return call


def synth_ops(mods: Modules, items: list, loaded: list) -> list:
    return [(_replay_call(mods, sc), _identity) for sc in loaded]


# ---------------------------------------------------------------------------
# solve-dense

def dense_generate(seed: int) -> list:
    rng = gen.rng_for("solve-dense", seed)
    return [gen.dense_frame(rng, **DENSE_SHAPE) for _ in range(DENSE_FRAMES)]


def frames_load(mods: Modules, items: list) -> list:
    frame = mods.frames.ArgumentationFrame
    return [frame(frozenset(args), frozenset((s, t) for s, t in attacks)) for args, attacks in items]


def _solve_call(mods: Modules, kind: str, f) -> Callable[[], object]:
    def call():
        return mods.pkg.semantics(kind, f)
    return call


def frames_ops(mods: Modules, items: list, loaded: list) -> list:
    return [(_solve_call(mods, kind, f), canon_extensions) for f in loaded for kind in gen.KINDS]


def fingerprint(name: str, items: list) -> str:
    """The text the references for ``items`` are keyed by."""
    text = json.dumps(items, sort_keys=True)
    if name == "cli-session":
        # CLI outputs also depend on the bundled fixture files.
        text += json.dumps(_fixture_docs(), sort_keys=True)
    return text


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-session",
            "CLI command",
            ("mmarg", "mmarg.cli"),
            cli_generate,
            cli_load,
            cli_ops,
        ),
        Workload(
            "synth-replay",
            "game replay",
            ("mmarg",),
            synth_generate,
            synth_load,
            synth_ops,
        ),
        Workload(
            "solve-dense",
            "single solve",
            ("mmarg",),
            dense_generate,
            frames_load,
            frames_ops,
        ),
    )
}

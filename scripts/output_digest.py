#!/usr/bin/env python3
"""Print one digest of this checkout's outputs, to show that a change keeps them byte-identical.

Usage: python3 scripts/output_digest.py

Prints ``<count> <sha256>``: how many outputs were hashed and the hash of
all of them in order.  The outputs are, for every bundled fixture and for
the 120 seed-0 games of the benchmark's synth-replay workload, the trace
with and without semantics and the scenario dump; then, at each fixture's
last step, the DOT export of every :data:`mmarg.state.VIEWS` entry for
every tuple of its agents; then, at every step of each fixture, the
:func:`mmarg.query` extensions of every entry that takes one or two agents,
for every tuple of its agents, under the scenario's kind and under each
semantics kind; then both traces of the five seeded 4-agent, 12-argument
games of ``tests/independent_replay.wide_awareness_game``, in which every
agent is aware of the whole global frame, so verdicts solve and detect
deception (synth-replay's verdicts never solve); last, both traces of each
fixture with its last step repeated, which halt at the repeat with a "no
repetition" error.  The checkout's own ``src/``, ``bench/`` and ``tests/``
are put first on the import path, so running the script in two checkouts
compares their code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from mmarg import (  # noqa: E402
    VIEWS,
    SemanticsKind,
    bundled_scenarios,
    dumps_scenario,
    dumps_trace,
    export_graph,
    fixture_path,
    load_scenario,
    query,
    run,
    sorted_extensions,
    state_at,
)
from independent_replay import wide_awareness_game  # noqa: E402
from workloads import synth_generate  # noqa: E402


def outputs():
    fixtures = []
    for name in bundled_scenarios():
        with open(fixture_path(name), "rb") as fh:
            fixtures.append(load_scenario(fh))
    for sc in fixtures + [load_scenario(text) for text in synth_generate(0)]:
        for ws in (False, True):
            yield dumps_trace(run(sc, with_semantics=ws))
        yield dumps_scenario(sc)
    for sc in fixtures:
        m = state_at(sc, len(sc.script))
        for name, n in VIEWS:
            for agents in itertools.product(sorted(m.agents), repeat=n):
                yield export_graph(m, ":".join((name, *agents)), sc.labels)
    for sc in fixtures:
        for k in range(len(sc.script) + 1):
            m = state_at(sc, k)
            for (name, n), kind in itertools.product([key for key in VIEWS if key[1]], [None, *SemanticsKind]):
                for agents in itertools.product(sorted(m.agents), repeat=n):
                    yield json.dumps(sorted_extensions(query(m, agents[0], agents[1] if n == 2 else None, name, kind)))
    for sc in map(wide_awareness_game, range(5)):
        for ws in (False, True):
            yield dumps_trace(run(sc, with_semantics=ws))
    for sc in fixtures:
        halted = replace(sc, script=sc.script + sc.script[-1:])
        for ws in (False, True):
            yield dumps_trace(run(halted, with_semantics=ws))


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for text in outputs():
        digest.update(text.encode("utf-8") + b"\0")
        count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

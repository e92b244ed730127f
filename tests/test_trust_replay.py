"""A detected deception revises trust, and revised trust changes a later judgement.

Only the ``trust-adjusted`` view reads trust, so ``mmarg query`` and ``mmarg
export`` replay verdicts and revision for it alone; these tests pin both
halves of that rule.
"""

import itertools
import json
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

import pytest

from mmarg import cli
from mmarg.cli import EX_OK, main
from mmarg.dynamics import Verdict
from mmarg.export import export_graph
from mmarg.scenario import load_scenario, query, run, state_at
from mmarg.semantics import sorted_extensions
from mmarg.state import VIEWS, view

from conftest import load_bundled

DECEPTION = Path(__file__).parent / "data" / "detected_deception.json"


@pytest.fixture(scope="module")
def deception():
    return load_scenario(DECEPTION.read_bytes())


class TrustRead(Exception):
    pass


class NoTrust(Mapping):
    """A trust matrix that raises on every read."""

    def __getitem__(self, key):
        raise TrustRead(key)

    def __iter__(self):
        raise TrustRead("iter")

    def __len__(self):
        raise TrustRead("len")


def test_a_detected_deception_changes_a_later_judgement(deception, capsys):
    # e1 announces x2 but hides x3 -> x2, which e2 holds factual: e2 judges e1 dishonest.
    assert run(deception).steps[-1].verdicts[("e2", "e1")] is Verdict.DISHONEST
    m = state_at(deception, 3)
    assert m.trust[("e2", "e1")] < m.trust[("e2", "e3")]
    # e2 now trusts e3's y1 over e1's x1 in their public mutual conflict.
    assert sorted_extensions(query(m, "e2", None, "trust-adjusted")) == [["x2", "y1"]]
    assert main(["query", str(DECEPTION), "--at", "3", "--viewer", "e2", "--view", "trust-adjusted"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["x2", "y1"]]
    assert main(["export", str(DECEPTION), "--at", "3", "--view", "trust-adjusted:e2"]) == EX_OK
    dot = capsys.readouterr().out
    assert '"y1" -> "x1"' in dot and '"x1" -> "y1"' not in dot
    # On the initial trust the same query leaves the conflict undecided.
    unrevised = replace(m, trust=deception.initial.trust)
    assert sorted_extensions(query(unrevised, "e2", None, "trust-adjusted")) == [["x2"]]


@pytest.mark.parametrize("name,arity", [key for key in VIEWS if key[0] != "trust-adjusted"])
def test_no_view_but_trust_adjusted_reads_trust(deception, name, arity):
    for at in range(len(deception.script) + 1):
        m = replace(state_at(deception, at), trust=NoTrust())
        for agents in itertools.product(sorted(m.agents), repeat=arity):
            view(m, name, *agents)
            export_graph(m, ":".join((name, *agents)))
            if arity:
                query(m, agents[0], agents[1] if arity == 2 else None, name)


def test_trust_adjusted_reads_trust(deception):
    m = replace(state_at(deception, 3), trust=NoTrust())
    with pytest.raises(TrustRead):
        view(m, "trust-adjusted", "e2")


@pytest.mark.parametrize("name,arity", sorted(VIEWS))
def test_each_view_reads_the_same_frame_from_the_cli_replay(deception, name, arity):
    for sc in (deception, load_bundled("mafia_endgame_trusts_e2")):
        for at in range(len(sc.script) + 1):
            full, replayed = state_at(sc, at), cli._state(sc, at, name)
            for agents in itertools.product(sorted(full.agents), repeat=arity):
                assert view(replayed, name, *agents) == view(full, name, *agents)

"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random

import pytest

from mmarg import (
    AnnouncementEvent,
    ArgumentationFrame,
    MmaState,
    Scenario,
    SemanticsKind,
    check_announcement,
    fixture_path,
    load_scenario,
    validate,
)


def f(args, attacks=()) -> ArgumentationFrame:
    return ArgumentationFrame.of(args, attacks)


def ext(*groups) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(g) for g in groups)


def load_bundled(name: str) -> Scenario:
    with open(fixture_path(name), "rb") as fh:
        return load_scenario(fh)


@pytest.fixture(scope="session")
def mafia() -> Scenario:
    return load_bundled("mafia_endgame")


@pytest.fixture(scope="session")
def mafia_dprime() -> Scenario:
    return load_bundled("mafia_endgame_dprime")


@pytest.fixture(scope="session")
def mafia_trusts_e1() -> Scenario:
    return load_bundled("mafia_endgame_trusts_e1")


@pytest.fixture(scope="session")
def mafia_trusts_e2() -> Scenario:
    return load_bundled("mafia_endgame_trusts_e2")


def random_state(rng: random.Random, n_agents: int = 3, max_scope: int = 3, density: float = 0.25) -> MmaState:
    """A random well-formed state; raises if the construction itself is buggy.

    Every draw from ``rng`` walks a list or a sorted sequence, never a set,
    so the state depends on ``rng`` alone and not on ``PYTHONHASHSEED``.
    """
    agents = [f"e{i}" for i in range(1, n_agents + 1)]
    scope_args: dict[str, list[str]] = {}
    counter = 0
    for e in agents:
        size = rng.randint(1, max_scope)
        scope_args[e] = [f"x{counter + j}" for j in range(size)]
        counter += size
    all_args = [a for args in scope_args.values() for a in args]
    owner = {a: e for e, args in scope_args.items() for a in args}

    g_pairs = [(x, y) for x in all_args for y in all_args if rng.random() < density]
    g_attacks = frozenset(g_pairs)
    global_af = ArgumentationFrame(frozenset(all_args), g_attacks)

    scope = {e: frozenset(scope_args[e]) for e in agents}

    pub_args = frozenset(a for a in all_args if rng.random() < 0.4)
    pub_attacks = frozenset(
        p for p in g_pairs if p[0] in pub_args and p[1] in pub_args and rng.random() < 0.6
    )
    public_af = ArgumentationFrame(pub_args, pub_attacks)

    aware = {}
    for e in agents:
        fa_args = scope[e] | pub_args | frozenset(a for a in all_args if rng.random() < 0.3)
        fa_attacks = (
            frozenset(p for p in g_attacks if p[0] in scope[e] and p[1] in scope[e])
            | pub_attacks
            | frozenset(p for p in g_pairs if p[0] in fa_args and p[1] in fa_args and rng.random() < 0.5)
        )
        aware[e] = ArgumentationFrame(fa_args, fa_attacks)

    sem_model = {
        (v, s): rng.choice(list(SemanticsKind)) for v in agents for s in agents
    }

    factual: dict[tuple[str, str], set[str]] = {
        (v, s): {a for a in sorted(aware[v].args) if rng.random() < (0.3 if v == s else 0.15)}
        for v in agents
        for s in agents
    }
    # Knowledge closure: a fact about an argument forces the owner's own split
    # and the knower's model of the owner to agree.
    changed = True
    while changed:
        changed = False
        for k in agents:
            for a in sorted(factual[(k, k)]):
                o = owner[a]
                if a not in factual[(o, o)]:
                    factual[(o, o)].add(a)
                    changed = True
                if a not in factual[(k, o)]:
                    factual[(k, o)].add(a)
                    changed = True

    intra = {pair: frozenset(facts) for pair, facts in factual.items()}
    trust = {(v, s): rng.randint(-3, 3) for v in agents for s in agents}

    m = MmaState(
        global_af=global_af,
        public_af=public_af,
        scope=scope,
        aware=aware,
        sem_model=sem_model,
        intra=intra,
        trust=trust,
    )
    problems = validate(m)
    assert not problems, f"random state generator produced an invalid state: {problems}"
    return m


def random_announcement(
    rng: random.Random, m: MmaState, avoid_scope: str | None = None, tries: int = 60
) -> AnnouncementEvent | None:
    """A random event valid for ``m``; None if no attempt succeeded."""
    pool = m.global_af.args
    if avoid_scope is not None:
        pool = pool - m.scope[avoid_scope]
    pool = sorted(pool)
    if not pool:
        return None
    for _ in range(tries):
        payload_args = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        on_table = sorted(payload_args | m.public_af.args)
        candidates = [
            (x, y)
            for x in on_table
            for y in on_table
            if x in payload_args or y in payload_args
        ]
        attacks = frozenset(p for p in candidates if rng.random() < 0.2) - m.public_af.attacks
        ev = AnnouncementEvent(payload_args, attacks, frozenset([rng.choice(sorted(m.agents))]))
        if not check_announcement(m, ev):
            return ev
    return None

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mmarg.frames import ArgumentationFrame
from mmarg.preferences import (
    InterPreference,
    IntraPreference,
    adjust,
    derive_inter,
)
from mmarg.dynamics import update
from mmarg.scenario import state_at

from conftest import random_announcement, random_state


def f(args, attacks=()):
    return ArgumentationFrame.of(args, attacks)


def strict_pairs(order, args):
    return {(a, b) for a in args for b in args if order.strictly_less(a, b)}


def test_binary_split_orders_guesses_below_facts():
    assert strict_pairs(IntraPreference.of(["a1"]), ["a1", "a3"]) == {("a3", "a1")}


def test_no_facts_means_no_strict_pairs():
    assert strict_pairs(IntraPreference.of([]), ["a1", "a2"]) == set()


def test_all_facts_means_no_strict_pairs():
    assert strict_pairs(IntraPreference.of(["a1", "a2"]), ["a1", "a2"]) == set()


def test_adjust_reverses_single_attack():
    frame = f(["a1", "a2"], [("a1", "a2")])
    for order in (InterPreference(frozenset({("a1", "a2")})), IntraPreference.of(["a2"])):
        assert adjust(frame, order).attacks == {("a2", "a1")}


def test_adjust_without_strict_pairs_is_identity():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert adjust(frame, InterPreference(frozenset())) is frame
    assert adjust(frame, IntraPreference.of([])) is frame
    # Strict pairs that no attack runs against flip nothing either.
    assert adjust(frame, InterPreference(frozenset({("a2", "a1")}))) is frame
    assert adjust(frame, IntraPreference.of(["a1"])) is frame


def test_adjust_collapses_mutual_attack():
    frame = f(["a1", "a3"], [("a1", "a3"), ("a3", "a1")])
    order = IntraPreference.of(["a1"])
    assert adjust(frame, order).attacks == {("a1", "a3")}


def test_derive_inter_orders_only_strictly_less_trusted_owners(mafia_trusts_e2):
    # e3 trusts e2 (owner of a5) above e1 (owner of a3): one direction only.
    m = state_at(mafia_trusts_e2, 4)
    inter = derive_inter(m, "e3")
    assert inter.strict == {("a3", "a5")}
    assert adjust(m.public_af, inter).attacks == m.public_af.attacks - {("a3", "a5")}


@st.composite
def frame_and_split(draw):
    n = draw(st.integers(1, 6))
    args = [f"p{i}" for i in range(n)]
    attacks = draw(st.sets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=12))
    factual = draw(st.sets(st.sampled_from(args)))
    return ArgumentationFrame.of(args, attacks), IntraPreference.of(factual)


def reference_adjust(f, order):
    """Reverse each attack on its own; the argument set never changes."""
    attacks = frozenset((t, s) if order.strictly_less(s, t) else (s, t) for s, t in f.attacks)
    return ArgumentationFrame(f.args, attacks)


@st.composite
def frame_and_order(draw):
    frame, intra = draw(frame_and_split())
    if draw(st.booleans()):
        return frame, intra
    args = sorted(frame.args)
    pairs = draw(st.frozensets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=4))
    # Strict pairs taken from the frame's own attacks make reversals common.
    flips = draw(st.frozensets(st.sampled_from(sorted(frame.attacks)))) if frame.attacks else frozenset()
    return frame, InterPreference(pairs | flips)


@given(frame_and_order())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example((f(["a1", "a3"], [("a1", "a3"), ("a3", "a1")]), InterPreference(frozenset({("a3", "a1")}))))
@example((f(["a1", "a3"], [("a1", "a3"), ("a3", "a1")]), IntraPreference.of(["a1"])))
def test_adjust_is_the_per_attack_reversal(case):
    frame, order = case
    adjusted = adjust(frame, order)
    assert adjusted == reference_adjust(frame, order)
    if not any(order.strictly_less(s, t) for s, t in frame.attacks):
        assert adjusted is frame


@given(frame_and_split())
@settings(max_examples=150, deadline=None)
def test_adjust_invariants(case):
    frame, order = case
    adjusted = adjust(frame, order)
    assert adjusted.args == frame.args
    assert len(adjusted.attacks) <= len(frame.attacks)
    reversed_pairs = {(t, s) for s, t in frame.attacks}
    assert adjusted.attacks <= frame.attacks | reversed_pairs
    assert adjust(adjusted, order) == adjusted


def test_derive_inter_requires_known_agent(mafia):
    with pytest.raises(ValueError):
        derive_inter(mafia.initial, "e9")


def test_equal_trusts_yield_symmetric_leq_and_identity_adjustment(mafia):
    m = state_at(mafia, 4)
    # a3 and a5 attack each other publicly, and e3 trusts both owners equally.
    assert {("a3", "a5"), ("a5", "a3")} <= m.public_af.attacks
    inter = derive_inter(m, "e3")
    assert inter.strict == frozenset()
    pub = m.public_af
    assert adjust(pub, inter) == pub


def test_derived_leq_pairs_are_public_mutual_conflicts():
    # Denser than the default random state, so public mutual attacks occur.
    rng = random.Random(99)
    found = 0
    for _ in range(20):
        m = random_state(rng, max_scope=4, density=0.5)
        for e in sorted(m.agents):
            inter = derive_inter(m, e)
            found += len(inter.strict)
            assert isinstance(inter, InterPreference)
            owner = {a: o for o in m.agents for a in m.scope[o]}
            for a1, a2 in inter.strict:
                assert (a1, a2) in m.public_af.attacks and (a2, a1) in m.public_af.attacks
                assert m.trust[(e, owner[a1])] < m.trust[(e, owner[a2])]
                assert a1 in m.aware[e].args and a2 in m.aware[e].args
                assert a1 not in m.intra[(e, e)].factual
                assert a2 not in m.intra[(e, e)].factual
    assert found


def reference_derive_inter(m, e):
    """The trust order with the argument -> owner map built up front, every filter in its original order."""
    if e not in m.agents:
        raise ValueError(f"unknown agent {e!r}")
    owner: dict[str, str] = {}
    for agent in m.agents:
        for a in m.scope[agent]:
            owner[a] = agent
    aware_args = m.aware[e].args
    factual = m.intra[(e, e)].factual
    pub = m.public_af.attacks
    strict = set()
    for a1, a2 in pub:
        if (a2, a1) not in pub:
            continue
        if a1 not in owner or a2 not in owner:
            continue
        if a1 not in aware_args or a2 not in aware_args:
            continue
        if a1 in factual or a2 in factual:
            continue
        if m.trust[(e, owner[a1])] < m.trust[(e, owner[a2])]:
            strict.add((a1, a2))
    return InterPreference(frozenset(strict))


def test_derive_inter_matches_the_eager_owner_map_reference():
    rng = random.Random(404)
    mutual_counts = []
    ordered = 0
    for _ in range(150):
        m = random_state(rng, max_scope=4, density=rng.choice([0.1, 0.5]))
        for _ in range(rng.randint(0, 3)):
            event = random_announcement(rng, m)
            if event is None:
                break
            m = update(m, event)
        m = replace(m, trust={pair: rng.randint(-2, 2) for pair in sorted(m.trust)})
        pub = m.public_af.attacks
        mutual_counts.append(sum(1 for a1, a2 in pub if a1 < a2 and (a2, a1) in pub))
        for e in sorted(m.agents):
            inter = derive_inter(m, e)
            assert inter == reference_derive_inter(m, e)
            ordered += bool(inter.strict)
    assert ordered > 20
    assert mutual_counts.count(0) > 20
    assert sum(1 for n in mutual_counts if n >= 2) > 20

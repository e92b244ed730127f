import random

import pytest
from hypothesis import given, settings, strategies as st

from mmarg.frames import ArgumentationFrame
from mmarg.preferences import (
    InterPreference,
    IntraPreference,
    adjust,
    derive_inter,
)
from mmarg.scenario import state_at

from conftest import random_state


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
    for order in (InterPreference("e1", frozenset({("a1", "a2")})), IntraPreference.of(["a2"])):
        assert adjust(frame, order).attacks == {("a2", "a1")}


def test_adjust_without_strict_pairs_is_identity():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert adjust(frame, InterPreference("e1", frozenset())) == frame
    assert adjust(frame, IntraPreference.of([])) == frame


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
            owner = {a: o for o in m.agents for a in m.scope[o].args}
            for a1, a2 in inter.strict:
                assert (a1, a2) in m.public_af.attacks and (a2, a1) in m.public_af.attacks
                assert m.trust[(e, owner[a1])] < m.trust[(e, owner[a2])]
                assert a1 in m.aware[e].args and a2 in m.aware[e].args
                assert a1 not in m.intra[(e, e)].factual
                assert a2 not in m.intra[(e, e)].factual
    assert found

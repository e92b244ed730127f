import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mmarg.frames import ArgumentationFrame
from mmarg.preferences import adjust, derive_inter
from mmarg.dynamics import TrustPolicy, update
from mmarg.scenario import state_at
from mmarg.state import trust_adjusted_public_model

from conftest import f, random_announcement, random_state


def reversed_by_split(factual, args):
    """The attacks a split reverses in the frame where every argument attacks every argument:
    a reversed attack collapses onto its opposite there, so exactly the reversed ones are gone."""
    full = f(args, [(a, b) for a in args for b in args])
    return full.attacks - adjust(full, frozenset(factual)).attacks


def test_binary_split_orders_guesses_below_facts():
    assert reversed_by_split(["a1"], ["a1", "a3"]) == {("a3", "a1")}


def test_no_facts_means_no_strict_pairs():
    assert reversed_by_split([], ["a1", "a2"]) == set()


def test_all_facts_means_no_strict_pairs():
    assert reversed_by_split(["a1", "a2"], ["a1", "a2"]) == set()


def test_adjust_reverses_single_attack():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert adjust(frame, frozenset(), frozenset({("a1", "a2")})).attacks == {("a2", "a1")}
    assert adjust(frame, frozenset({"a2"})).attacks == {("a2", "a1")}


def test_adjust_without_strict_pairs_is_identity():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert adjust(frame, frozenset()) is frame
    # Strict pairs that no attack runs against flip nothing either.
    assert adjust(frame, frozenset(), frozenset({("a2", "a1")})) is frame
    assert adjust(frame, frozenset({"a1"})) is frame


def test_adjust_collapses_mutual_attack():
    frame = f(["a1", "a3"], [("a1", "a3"), ("a3", "a1")])
    assert adjust(frame, frozenset({"a1"})).attacks == {("a1", "a3")}


def test_derive_inter_orders_only_less_trusted_owners_below(mafia_trusts_e2):
    # e3 trusts e2 (owner of a5) above e1 (owner of a3): one direction only.
    m = state_at(mafia_trusts_e2, 4)
    strict = derive_inter(m, "e3")
    assert strict == {("a3", "a5")}
    assert adjust(m.public_af, frozenset(), strict).attacks == m.public_af.attacks - {("a3", "a5")}


@st.composite
def frame_factual_strict(draw):
    n = draw(st.integers(1, 6))
    args = [f"p{i}" for i in range(n)]
    attacks = draw(st.sets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=12))
    factual = draw(st.frozensets(st.sampled_from(args)))
    strict = frozenset()
    if draw(st.booleans()):
        pairs = draw(st.frozensets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=4))
        # Strict pairs taken from the frame's own attacks make reversals common.
        flips = draw(st.frozensets(st.sampled_from(sorted(attacks)))) if attacks else frozenset()
        strict = pairs | flips
    return ArgumentationFrame.of(args, attacks), factual, strict


def below(s, t, factual, strict):
    """``s`` is strictly less preferred than ``t``: a guess below a fact, or a strict pair of the trust order."""
    return (t in factual and s not in factual) or (s, t) in strict


def reference_adjust(f, factual, strict):
    """Reverse each attack on its own; the argument set never changes."""
    attacks = frozenset((t, s) if below(s, t, factual, strict) else (s, t) for s, t in f.attacks)
    return ArgumentationFrame(f.args, attacks)


MUTUAL = f(["a1", "a3"], [("a1", "a3"), ("a3", "a1")])


@given(frame_factual_strict())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example((MUTUAL, frozenset(), frozenset({("a3", "a1")})))
@example((MUTUAL, frozenset({"a1"}), frozenset()))
def test_adjust_is_the_per_attack_reversal(case):
    frame, factual, strict = case
    adjusted = adjust(frame, factual, strict)
    assert adjusted == reference_adjust(frame, factual, strict)
    if not any(below(s, t, factual, strict) for s, t in frame.attacks):
        assert adjusted is frame


@given(frame_factual_strict())
@settings(max_examples=150, deadline=None)
def test_adjust_invariants(case):
    frame, factual, strict = case
    adjusted = adjust(frame, factual, strict)
    assert adjusted.args == frame.args
    assert len(adjusted.attacks) <= len(frame.attacks)
    reversed_pairs = {(t, s) for s, t in frame.attacks}
    assert adjusted.attacks <= frame.attacks | reversed_pairs
    # A split alone leaves no attack from a guess to a fact, so it is idempotent;
    # arbitrary strict pairs may hold both directions of a pair and are not.
    split = adjust(frame, factual)
    assert adjust(split, factual) == split


def test_derive_inter_requires_known_agent(mafia):
    with pytest.raises(ValueError):
        derive_inter(mafia.initial, "e9")


def test_equal_trusts_yield_symmetric_leq_and_identity_adjustment(mafia):
    m = state_at(mafia, 4)
    # a3 and a5 attack each other publicly, and e3 trusts both owners equally.
    assert {("a3", "a5"), ("a5", "a3")} <= m.public_af.attacks
    strict = derive_inter(m, "e3")
    assert strict == frozenset()
    pub = m.public_af
    assert adjust(pub, frozenset(), strict) is pub


def test_derived_leq_pairs_are_public_mutual_conflicts():
    # Denser than the default random state, so public mutual attacks occur.
    rng = random.Random(99)
    found = 0
    for _ in range(20):
        m = random_state(rng, max_scope=4, density=0.5)
        for e in sorted(m.agents):
            strict = derive_inter(m, e)
            found += len(strict)
            assert isinstance(strict, frozenset)
            owner = {a: o for o in m.agents for a in m.scope[o]}
            for a1, a2 in strict:
                assert (a1, a2) in m.public_af.attacks and (a2, a1) in m.public_af.attacks
                assert m.trust[(e, owner[a1])] < m.trust[(e, owner[a2])]
                assert a1 in m.aware[e].args and a2 in m.aware[e].args
                assert a1 not in m.intra[(e, e)]
                assert a2 not in m.intra[(e, e)]
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
    factual = m.intra[(e, e)]
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
    return frozenset(strict)


def announced_states_with_random_trust(seed, count=150):
    """Random states after up to three random announcements, each with a fresh random trust matrix."""
    rng = random.Random(seed)
    for _ in range(count):
        m = random_state(rng, max_scope=4, density=rng.choice([0.1, 0.5]))
        for _ in range(rng.randint(0, 3)):
            event = random_announcement(rng, m)
            if event is None:
                break
            m = update(m, event, TrustPolicy())
        yield replace(m, trust={pair: rng.randint(-2, 2) for pair in sorted(m.trust)})


def test_derive_inter_matches_the_eager_owner_map_reference():
    mutual_counts = []
    ordered = 0
    for m in announced_states_with_random_trust(404):
        pub = m.public_af.attacks
        mutual_counts.append(sum(1 for a1, a2 in pub if a1 < a2 and (a2, a1) in pub))
        for e in sorted(m.agents):
            strict = derive_inter(m, e)
            assert strict == reference_derive_inter(m, e)
            ordered += bool(strict)
    assert ordered > 20
    assert mutual_counts.count(0) > 20
    assert sum(1 for n in mutual_counts if n >= 2) > 20


def test_the_one_pass_trust_adjusted_model_is_the_fact_split_then_the_trust_order():
    # The paper's definition adjusts the public record by the agent's own split, then by its trust order.
    moved = 0
    for m in announced_states_with_random_trust(404):
        for e in sorted(m.agents):
            by_facts = adjust(m.public_af, m.intra[(e, e)])
            two_step = adjust(by_facts, frozenset(), derive_inter(m, e))
            assert trust_adjusted_public_model(m, e) == two_step
            moved += two_step != by_facts
    assert moved > 20

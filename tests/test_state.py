import itertools
import random
from dataclasses import replace

import pytest

from mmarg.frames import DUNG, ArgumentationFrame, combine, UNION
from mmarg.preferences import IntraPreference
from mmarg.export import export_graph, to_dot
from mmarg.scenario import query, state_at
from mmarg.semantics import SemanticsKind, semantics, sorted_extensions
from mmarg.state import (
    VIEWS,
    MmaState,
    adjusted_perceived,
    perceived,
    perceived_lower_bound,
    public_model,
    trust_adjusted_public_semantics,
    trust_neutral_public_semantics,
    validate,
    view,
)

from conftest import random_state


def f(args, attacks=()):
    return ArgumentationFrame.of(args, attacks)


def conditions(violations):
    return {v.condition for v in violations}


def two_agent_state(**overrides) -> MmaState:
    global_af = f(["a1", "a2", "b1"], [("a1", "b1"), ("b1", "a1")])
    scope = {"e1": f(["a1", "a2"]), "e2": f(["b1"])}
    aware = {
        "e1": f(["a1", "a2", "b1"], [("a1", "b1"), ("b1", "a1")]),
        "e2": f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")]),
    }
    agents = ["e1", "e2"]
    fields = dict(
        global_af=global_af,
        public_af=f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")]),
        agents=frozenset(agents),
        scope=scope,
        aware=aware,
        sem_model={(v, s): SemanticsKind.PREFERRED for v in agents for s in agents},
        intra={(v, s): IntraPreference.of([]) for v in agents for s in agents},
        trust={(v, s): 0 for v in agents for s in agents},
        overrides={},
    )
    fields.update(overrides)
    return MmaState(**fields)


def test_fixture_and_handmade_states_validate(mafia):
    assert validate(mafia.initial) == []
    assert validate(two_agent_state()) == []


def test_overlapping_scopes_flagged():
    m = two_agent_state(scope={"e1": f(["a1", "a2"]), "e2": f(["a1"])},
                        global_af=f(["a1", "a2", "b1"], []),
                        public_af=f([]),
                        aware={"e1": f(["a1", "a2"]), "e2": f(["a1"])})
    assert "local scopes" in conditions(validate(m))


def test_scope_attacks_must_match_global_restriction():
    # The global mutual conflict between a1 and a2 is missing from e1's scope frame.
    m = two_agent_state(global_af=f(["a1", "a2", "b1"], [("a1", "a2"), ("a2", "a1"), ("a1", "b1"), ("b1", "a1")]))
    assert "local scopes" in conditions(validate(m))


def test_awareness_must_subsume_scope():
    m = two_agent_state(aware={
        "e1": f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")]),  # a2 missing
        "e2": f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")]),
    })
    assert "local agent argumentation" in conditions(validate(m))


def test_awareness_must_subsume_public():
    m = two_agent_state(aware={
        "e1": f(["a1", "a2", "b1"], [("a1", "b1"), ("b1", "a1")]),
        "e2": f(["b1"]),
    })
    assert "public subsumption" in conditions(validate(m))


def test_empty_scope_flagged():
    m = two_agent_state()
    m = replace(m, scope=dict(m.scope, e2=f([])), public_af=f([]),
                global_af=f(["a1", "a2", "b1"], []),
                aware={"e1": f(["a1", "a2"]), "e2": f(["b1"])})
    assert "structure" in conditions(validate(m))


def test_factual_outside_awareness_flagged():
    m = two_agent_state()
    bad = dict(m.intra)
    bad[("e2", "e1")] = IntraPreference.of(["a2"])
    assert "partial order 1" in conditions(validate(replace(m, intra=bad)))


def test_knowledge_propagation_violation_flagged():
    m = two_agent_state()
    bad = dict(m.intra)
    # e1 holds b1 (owned by e2) factual, but neither e2's own split nor
    # e1's model of e2 does.
    bad[("e1", "e1")] = IntraPreference.of(["b1"])
    assert conditions(validate(replace(m, intra=bad))) == {"knowledge"}


def test_missing_matrix_entry_flagged():
    m = two_agent_state()
    sem = dict(m.sem_model)
    del sem[("e1", "e2")]
    assert "structure" in conditions(validate(replace(m, sem_model=sem)))


def test_perceived_self_is_awareness(mafia):
    m = mafia.initial
    for e in sorted(m.agents):
        assert perceived(m, e, e) == m.aware[e]


def test_perceived_defaults_to_lower_bound(mafia):
    m = state_at(mafia, 3)
    got = perceived(m, "e2", "e1")
    assert got.args == frozenset({"a1", "a2", "a3", "a4", "a5", "a9"})
    assert got.attacks == {
        ("a1", "a3"), ("a3", "a1"), ("a1", "a2"),
        ("a3", "a4"), ("a3", "a5"), ("a4", "a9"),
    }
    assert got == perceived_lower_bound(m, "e2", "e1")


def test_perceived_with_no_shared_scope_is_public(mafia):
    m = state_at(mafia, 2)
    # e3's scope is invisible to e1 beyond the public record at this point.
    lower = perceived_lower_bound(m, "e1", "e3")
    assert lower.args == m.public_af.args | (m.aware["e1"].args & m.scope["e3"].args)


def test_override_is_honoured_within_bounds():
    m = two_agent_state()
    om = combine(perceived_lower_bound(m, "e1", "e2"), f(["a2"]), UNION)
    m2 = replace(m, overrides={("e1", "e2"): om})
    assert validate(m2) == []
    assert perceived(m2, "e1", "e2") == om


def test_override_outside_bounds_flagged():
    m = two_agent_state()
    m2 = replace(m, overrides={("e1", "e2"): f(["a1"])})  # misses the public frame
    assert "epistemic bounds" in conditions(validate(m2))


def test_self_override_must_equal_awareness():
    m = two_agent_state()
    m2 = replace(m, overrides={("e1", "e1"): f(["a1"])})
    assert "epistemic bounds" in conditions(validate(m2))
    m3 = replace(m, overrides={("e1", "e1"): m.aware["e1"]})
    assert validate(m3) == []


def test_perceived_unknown_agent_rejected(mafia):
    with pytest.raises(ValueError):
        perceived(mafia.initial, "e1", "zz")


def test_adjusted_perceived_identity_without_facts(mafia):
    m = state_at(mafia, 3)
    assert adjusted_perceived(m, "e3", "e1") == perceived(m, "e3", "e1")


@pytest.mark.parametrize("name,arity", [key for key in VIEWS if key[1]])
def test_query_and_export_read_the_view_table(mafia, name, arity):
    m = state_at(mafia, 3)
    for agents in itertools.product(sorted(m.agents), repeat=arity):
        frame = view(m, name, *agents)
        subject = agents[1] if arity == 2 else None
        assert query(m, agents[0], subject, name) == semantics(m.sem_model[(agents[0], agents[-1])], frame)
        selector = ":".join((name, *agents))
        assert export_graph(m, selector) == to_dot(m, frame, title=selector)


def test_view_reads_trust_adjusted_with_an_underscore(mafia):
    m = state_at(mafia, 3)
    assert view(m, "trust_adjusted", "e2") == view(m, "trust-adjusted", "e2")
    assert query(m, "e2", None, "trust_adjusted") == query(m, "e2", None, "trust-adjusted")


@pytest.mark.parametrize("name,agents", [
    ("secret", ("e1",)),
    ("aware", ()),
    ("public", ("e1", "e2", "e3")),
    ("aware", ("zz",)),
    ("perceived", ("e1", "zz")),
    ("trust-adjusted", ("zz",)),
])
def test_view_rejects_unknown_names_and_agents(mafia, name, agents):
    m = state_at(mafia, 3)
    with pytest.raises(ValueError):
        view(m, name, *agents)
    with pytest.raises(ValueError):
        export_graph(m, ":".join((name, *agents)))


def test_public_model_identity_when_nothing_factual(mafia):
    m = state_at(mafia, 4)
    assert public_model(m, "e3", "e1") == m.public_af


def test_trust_adjusted_equals_trust_neutral_without_mutual_conflicts(mafia):
    m = state_at(mafia, 3)  # public record at D has no mutual conflict
    for e in sorted(m.agents):
        assert trust_adjusted_public_semantics(m, e) == trust_neutral_public_semantics(m, e, e)


def test_empty_public_record_semantics(mafia):
    m = mafia.initial
    assert sorted_extensions(trust_neutral_public_semantics(m, "e1", "e2")) == [[]]


def prop1_holds(m) -> bool:
    for e in sorted(m.agents):
        fe = m.scope[e]
        fa = m.aware[e]
        lhs = frozenset(
            (s, t)
            for s, t in fa.attacks | m.global_af.attacks
            if s in fe.args and t in fe.args
        )
        if lhs != fe.attacks:
            return False
    return True


def test_scope_attacks_faithfully_reflected_on_fixture(mafia):
    for step in range(len(mafia.script) + 1):
        assert prop1_holds(state_at(mafia, step))


def test_scope_attacks_faithfully_reflected_on_random_states():
    rng = random.Random(4242)
    for _ in range(30):
        assert prop1_holds(random_state(rng))

import itertools
import random
import re
from dataclasses import replace

import pytest

from mmarg.frames import combine, restrict
from mmarg.preferences import derive_inter
from mmarg.export import export_graph
from mmarg.scenario import bundled_scenarios, query, state_at
from mmarg.semantics import SemanticsKind, semantics, sorted_extensions
from mmarg.state import (
    VIEWS,
    MmaState,
    adjusted_perceived,
    perceived,
    perceived_lower_bound,
    public_model,
    trust_adjusted_public_model,
    validate,
    view,
)

from conftest import f, load_bundled, random_state


def conditions(violations):
    return {v.condition for v in violations}


def two_agent_state(**overrides) -> MmaState:
    global_af = f(["a1", "a2", "b1"], [("a1", "b1"), ("b1", "a1")])
    scope = {"e1": frozenset({"a1", "a2"}), "e2": frozenset({"b1"})}
    aware = {
        "e1": f(["a1", "a2", "b1"], [("a1", "b1"), ("b1", "a1")]),
        "e2": f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")]),
    }
    agents = ["e1", "e2"]
    fields = dict(
        global_af=global_af,
        public_af=f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")]),
        scope=scope,
        aware=aware,
        sem_model={(v, s): SemanticsKind.PREFERRED for v in agents for s in agents},
        intra={(v, s): frozenset() for v in agents for s in agents},
        trust={(v, s): 0 for v in agents for s in agents},
        overrides={},
    )
    fields.update(overrides)
    return MmaState(**fields)


def test_fixture_and_handmade_states_validate(mafia):
    assert validate(mafia.initial) == []
    assert validate(two_agent_state()) == []


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
def test_trust_entries_must_be_integers(value):
    m = two_agent_state()
    m = replace(m, trust={**m.trust, ("e1", "e2"): value})
    assert [v.condition for v in validate(m)] == ["structure"]


def test_overlapping_scopes_flagged():
    m = two_agent_state(scope={"e1": frozenset({"a1", "a2"}), "e2": frozenset({"a1"})},
                        global_af=f(["a1", "a2", "b1"], []),
                        public_af=f([]),
                        aware={"e1": f(["a1", "a2"]), "e2": f(["a1"])})
    assert "local scopes" in conditions(validate(m))


def messages(m):
    return [str(v) for v in validate(m)]


def test_every_global_argument_lies_in_a_scope():
    m = two_agent_state(scope={"e1": frozenset({"a1"}), "e2": frozenset({"b1"})})
    assert messages(m) == ["(local scopes) arguments ['a2'] of the global frame lie in no scope"]


def test_scope_outside_the_global_frame_flagged():
    m = two_agent_state(scope={"e1": frozenset({"a1", "a2"}), "e2": frozenset({"b1", "zz"})})
    assert messages(m) == ["(structure) scope of e2 lists arguments outside the global frame"]


def test_public_frame_outside_the_global_frame_flagged():
    # A public self-attack on a1 that the global frame lacks; the awareness
    # frames hold it too, so they subsume the public record.
    loop = [("a1", "a1"), ("a1", "b1"), ("b1", "a1")]
    m = two_agent_state(public_af=f(["a1", "b1"], loop),
                        aware={"e1": f(["a1", "a2", "b1"], loop), "e2": f(["a1", "b1"], loop)})
    assert "(structure) public frame is not a sub-frame of the global frame" in messages(m)


def test_scope_attacks_must_match_global_restriction():
    # e1's scope attacks are the global ones between its arguments, here the
    # mutual conflict between a1 and a2; e1's awareness misses them.
    m = two_agent_state(global_af=f(["a1", "a2", "b1"], [("a1", "a2"), ("a2", "a1"), ("a1", "b1"), ("b1", "a1")]))
    assert conditions(validate(m)) == {"local agent argumentation"}


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
    m = replace(m, scope=dict(m.scope, e2=frozenset()), public_af=f([]),
                global_af=f(["a1", "a2", "b1"], []),
                aware={"e1": f(["a1", "a2"]), "e2": f(["b1"])})
    assert "structure" in conditions(validate(m))


def test_factual_outside_awareness_flagged():
    m = two_agent_state()
    bad = dict(m.intra)
    bad[("e2", "e1")] = frozenset({"a2"})
    assert "partial order 1" in conditions(validate(replace(m, intra=bad)))


def test_knowledge_propagation_violation_flagged():
    m = two_agent_state()
    bad = dict(m.intra)
    # e1 holds b1 (owned by e2) factual, but neither e2's own split nor
    # e1's model of e2 does.
    bad[("e1", "e1")] = frozenset({"b1"})
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
    assert lower.args == m.public_af.args | (m.aware["e1"].args & m.scope["e3"])


def test_perceived_lower_bound_is_its_definition():
    # The definition: the public record joined with the viewer's awareness
    # restricted to the subject's scope.  The public record itself comes
    # back exactly when that join adds nothing.
    states = [state_at(sc, k) for sc in map(load_bundled, bundled_scenarios()) for k in range(len(sc.script) + 1)]
    rng = random.Random(2019)
    states += [random_state(rng, n_agents=rng.choice([2, 3, 4]), density=rng.choice([0.25, 0.5])) for _ in range(240)]
    public = joined = private_attack = 0
    for m in states:
        for v, s in itertools.product(sorted(m.agents), repeat=2):
            got = perceived_lower_bound(m, v, s)
            want = combine(m.public_af, restrict(m.aware[v], m.scope[s]))
            assert got == want, (v, s)
            assert (got is m.public_af) == (want == m.public_af)
            public += got is m.public_af
            joined += got is not m.public_af
            # Every argument seen is public, but a private attack joins two of them.
            private_attack += m.aware[v].args & m.scope[s] <= m.public_af.args and want != m.public_af
    assert public > 500 and joined > 500 and private_attack > 50


def test_override_is_honoured_within_bounds():
    m = two_agent_state()
    om = combine(perceived_lower_bound(m, "e1", "e2"), f(["a2"]))
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


@pytest.mark.parametrize("pair", [("e1", "zz"), ("zz", "e1")])
def test_override_naming_an_unknown_agent_flagged(pair):
    m = two_agent_state(overrides={pair: f(["a1", "b1"], [("a1", "b1"), ("b1", "a1")])})
    assert messages(m) == [f"(structure) override ({pair[0]},{pair[1]}) names an unknown agent"]


@pytest.mark.parametrize("pair", [("e2", "e1"), ("e2", "e2")])
def test_override_by_a_viewer_without_awareness_is_reported_once(pair):
    m = two_agent_state(aware={"e1": two_agent_state().aware["e1"]}, overrides={pair: f(["a1", "b1"])})
    assert [str(v) for v in validate(m)] == ["(structure) agent e2 has no awareness"]


def test_perceived_unknown_agent_rejected(mafia):
    with pytest.raises(ValueError, match=r"^unknown agent 'zz'$"):
        perceived(mafia.initial, "e1", "zz")


@pytest.mark.parametrize("pair", [("e1", "zz"), ("zz", "e1")])
def test_public_model_unknown_agent_rejected(mafia, pair):
    with pytest.raises(ValueError, match=r"^unknown agent 'zz'$"):
        public_model(mafia.initial, *pair)


@pytest.mark.parametrize("call", [
    lambda m: adjusted_perceived(m, "zz", "e1"),
    lambda m: derive_inter(m, "zz"),
    lambda m: trust_adjusted_public_model(m, "zz"),
    lambda m: view(m, "aware", "zz"),
    lambda m: view(m, "perceived", "e1", "zz"),
    lambda m: view(m, "trust-adjusted", "zz"),
])
def test_every_accessor_reports_an_unknown_agent_in_one_text(mafia, call):
    with pytest.raises(ValueError, match=r"^unknown agent 'zz'$"):
        call(mafia.initial)


def test_view_names_the_first_unknown_agent(mafia):
    with pytest.raises(ValueError, match=r"^unknown agent 'yy'$"):
        view(mafia.initial, "local", "yy", "zz")


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
        dot = export_graph(m, selector)
        assert dot.startswith(f'digraph "{selector}" {{\n')
        assert set(re.findall(r'^    "(\w+)" \[', dot, re.M)) == frame.args
        assert set(re.findall(r'^  "(\w+)" -> "(\w+)";$', dot, re.M)) == frame.attacks


@pytest.mark.parametrize("call", [
    lambda m: view(m, "trust_adjusted", "e2"),
    lambda m: query(m, "e2", None, "trust_adjusted"),
    lambda m: export_graph(m, "trust_adjusted:e2"),
], ids=["view", "query", "export_graph"])
def test_trust_adjusted_with_an_underscore_is_an_unknown_view(mafia, call):
    with pytest.raises(ValueError, match=r"^unknown view 'trust_adjusted' for [12] agent\(s\)$"):
        call(state_at(mafia, 3))


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
        assert query(m, e, None, "trust-adjusted") == query(m, e, e, "public")


def test_empty_public_record_semantics(mafia):
    m = mafia.initial
    assert sorted_extensions(query(m, "e1", "e2", "public")) == [[]]


def prop1_holds(m) -> bool:
    for e in sorted(m.agents):
        fe = m.scope[e]
        fa = m.aware[e]
        lhs = frozenset(
            (s, t)
            for s, t in fa.attacks | m.global_af.attacks
            if s in fe and t in fe
        )
        if lhs != restrict(m.global_af, fe).attacks:
            return False
    return True


def test_scope_attacks_faithfully_reflected_on_fixture(mafia):
    for step in range(len(mafia.script) + 1):
        assert prop1_holds(state_at(mafia, step))


def test_scope_attacks_faithfully_reflected_on_random_states():
    rng = random.Random(4242)
    for _ in range(30):
        assert prop1_holds(random_state(rng))

import json
import os
import random
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Any

import pytest
from hypothesis import example, given, settings, strategies as st

from mmarg.dynamics import AnnouncementEvent, TrustPolicy, Verdict, announce
from mmarg.frames import ArgumentationFrame
from mmarg.scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    Trace,
    TraceStep,
    _frame_doc,
    _pair_matrix_doc,
    bundled_scenarios,
    dumps_scenario,
    dumps_trace,
    fixture_path,
    load_scenario,
    parse_scenario,
    TRUST_CAP,
    query,
    run,
    state_at,
)
from mmarg.semantics import SemanticsKind, sorted_extensions
from mmarg.state import MmaState, ViolationsError, validate

from conftest import load_bundled
from independent_replay import synth_replay_games, wide_awareness_game

GOLDEN = Path(__file__).parent / "data"


def base_doc(mafia) -> dict:
    return json.loads(dumps_scenario(mafia))


def test_bundled_fixture_loads_and_validates(mafia):
    assert sorted(mafia.initial.agents) == ["e1", "e2", "e3"]
    assert len(mafia.script) == 4
    assert mafia.policy == TrustPolicy(1, 1)
    assert mafia.initial.global_af.args == {f"a{i}" for i in range(1, 10)}


def test_bundled_listing_contains_the_variants():
    names = bundled_scenarios()
    for name in ("mafia_endgame", "mafia_endgame_dprime", "mafia_endgame_trusts_e1", "mafia_endgame_trusts_e2"):
        assert name in names
        assert fixture_path(name).endswith(name + ".json")


def test_fixture_path_is_the_packaged_resource():
    names = bundled_scenarios()
    assert len(names) == 4
    for name in names:
        packaged = resources.files("mmarg") / "fixtures" / (name + ".json")
        assert os.path.samefile(fixture_path(name), str(packaged))
        assert fixture_path(name + ".json") == fixture_path(name)


def test_fixture_path_rejects_unknown_name():
    with pytest.raises(FileNotFoundError) as err:
        fixture_path("no_such_scenario")
    assert str(err.value) == "no bundled scenario named 'no_such_scenario.json'"


def test_round_trip_is_semantically_identical(mafia):
    again = parse_scenario(json.loads(dumps_scenario(mafia)))
    assert again == mafia
    assert dumps_scenario(again) == dumps_scenario(mafia)


@pytest.mark.parametrize("policy,deltas", [(None, (1, 1)), ({}, (1, 1)), ({"honest": 3}, (3, 1)), ({"dishonest": 0}, (1, 0))])
def test_a_policy_delta_the_document_leaves_out_is_one(mafia, policy, deltas):
    doc = base_doc(mafia)
    del doc["policy"]
    if policy is not None:
        doc["policy"] = policy
    sc = parse_scenario(doc)
    assert (sc.policy.delta_honest, sc.policy.delta_dishonest) == deltas
    assert json.loads(dumps_scenario(sc))["policy"] == dict(zip(("honest", "dishonest"), deltas))


def test_invalid_json_is_a_parse_error():
    with pytest.raises(ScenarioParseError):
        load_scenario(b"{ not json")


def test_missing_key_is_a_parse_error(mafia):
    doc = base_doc(mafia)
    del doc["gsem"]
    with pytest.raises(ScenarioParseError):
        parse_scenario(doc)


def test_unknown_semantics_kind_is_a_parse_error(mafia):
    doc = base_doc(mafia)
    doc["gsem"]["e1"]["e1"] = "stable"
    with pytest.raises(ScenarioParseError):
        parse_scenario(doc)


def test_an_agent_name_may_not_contain_a_colon(mafia):
    # ':' separates the agents of a view selector such as aware:e1, so no view of such an agent could be named.
    assert load_scenario(json.dumps(_renamed_doc(base_doc(mafia), {"e1": "e;1"}))).initial.agents == {"e;1", "e2", "e3"}
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(_renamed_doc(base_doc(mafia), {"e1": "e:1"}))
    assert str(exc.value) == "agent name 'e:1' contains ':'"
    doc = base_doc(mafia)
    doc["scopes"].update({"b:2": [], "z':1": []})
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(doc)
    assert str(exc.value) == "agent name \"z':1\" contains ':'"  # the least offender by repr


def test_scope_owner_mismatch_is_a_parse_error(mafia):
    doc = base_doc(mafia)
    doc["scopes"]["e1"] = ["a1", "a2"]
    with pytest.raises(ScenarioParseError):
        parse_scenario(doc)


def test_overlapping_scopes_fail_validation(mafia):
    doc = base_doc(mafia)
    doc["scopes"]["e1"].append("a4")  # a4 already sits in e2's scope
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(doc)
    assert isinstance(exc.value, ViolationsError)
    assert str(exc.value) == "; ".join(str(v) for v in exc.value.violations)
    assert any(v.condition == "local scopes" for v in exc.value.violations)


def test_trust_beyond_cap_fails_validation(mafia):
    doc = base_doc(mafia)
    doc["trust"]["e1"]["e2"] = TRUST_CAP
    assert parse_scenario(doc).initial.trust[("e1", "e2")] == TRUST_CAP
    doc["trust"]["e1"]["e2"] = TRUST_CAP + 1
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(doc)
    assert [v.condition for v in exc.value.violations] == ["trust range"]


def test_revision_may_carry_trust_past_the_cap(mafia_dprime):
    # The cap bounds the document only: e2 judges e1's confession honest.
    doc = base_doc(mafia_dprime)
    doc["trust"]["e2"]["e1"] = TRUST_CAP
    sc = parse_scenario(doc)
    trace = run(sc)
    assert trace.error_step is None
    assert trace.final.trust[("e2", "e1")] == TRUST_CAP + 1
    assert validate(trace.final) == []


def test_factual_outside_awareness_fails_validation(mafia):
    doc = base_doc(mafia)
    doc["factual"]["e3"]["e1"] = ["a6"]  # e3 never becomes aware of a6
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(doc)
    assert [v.condition for v in exc.value.violations] == ["partial order 1"]


def test_run_records_every_step(mafia):
    trace = run(mafia)
    assert trace.error_step is None
    assert [s.event for s in trace.steps] == list(mafia.script)  # one step per event, numbered by position
    assert trace.steps[0].public_added_args == ("a9",)
    assert sorted(trace.steps[3].event.attacks) == [("a5", "a2"), ("a5", "a3")]
    assert trace.steps[2].verdicts[("e2", "e1")] is Verdict.DISHONEST
    assert trace.steps[2].trust_before[("e2", "e1")] == 0
    assert trace.steps[2].trust_after[("e2", "e1")] == -1
    assert trace.final.public_af == state_at(mafia, 4).public_af


def test_run_with_semantics_records_trust_adjusted_views(mafia_trusts_e2):
    trace = run(mafia_trusts_e2, with_semantics=True)
    assert sorted_extensions(trace.steps[-1].trust_adjusted["e3"]) == [["a4", "a5"]]


def test_run_halts_at_first_invalid_event(mafia):
    # Re-announcing step 3 verbatim duplicates public attacks.
    script = mafia.script + (mafia.script[2],)
    sc = replace(mafia, script=script)
    trace = run(sc)
    assert trace.error_step == 5
    assert len(trace.steps) == 4
    assert any("no repetition" in text for text in trace.error)
    doc = json.loads(dumps_trace(trace))
    assert doc["error"]["step"] == 5


def test_empty_script_trace(mafia):
    sc = replace(mafia, script=())
    trace = run(sc)
    assert trace.steps == ()
    assert trace.final == mafia.initial


def test_trace_serialization_is_deterministic(mafia):
    assert dumps_trace(run(mafia)) == dumps_trace(run(mafia))


def test_state_at_bounds(mafia):
    assert state_at(mafia, 0) == mafia.initial
    with pytest.raises(ValueError):
        state_at(mafia, 5)
    with pytest.raises(ValueError):
        state_at(mafia, -1)


def test_query_views(mafia):
    m = state_at(mafia, 3)
    assert sorted_extensions(query(m, "e2", "e1", "public")) == [["a2", "a3", "a9"]]
    assert sorted_extensions(query(m, "e2", "e1", "local")) == [["a1", "a4", "a5"]]
    assert sorted_extensions(query(m, "e3", None, "trust-adjusted")) == [["a2", "a3", "a9"]]
    with pytest.raises(ValueError):
        query(m, "e3", "e1", "trust-adjusted")  # a one-agent view takes no subject
    with pytest.raises(ValueError):
        query(m, "e2", "e1", "private")


def test_query_kind_override(mafia):
    m = state_at(mafia, 0)
    # Complete semantics of the empty public record is just the empty set.
    assert sorted_extensions(query(m, "e1", "e1", "public", SemanticsKind.COMPLETE)) == [[]]


def _golden_scenario(name: str) -> Scenario:
    if name == "mafia_endgame_repeat_step3":
        # Step 3 announced again halts the replay at step 5.
        sc = load_bundled("mafia_endgame")
        return replace(sc, script=sc.script + (sc.script[2],))
    return load_bundled(name)


@pytest.mark.parametrize("name", bundled_scenarios() + ["mafia_endgame_repeat_step3"])
def test_run_trace_matches_golden_file(name):
    # The files pin `mmarg run NAME --with-semantics` output; any byte of
    # drift is a behaviour change.
    want = (GOLDEN / f"trace_{name}.json").read_text(encoding="utf-8")
    assert dumps_trace(run(_golden_scenario(name), with_semantics=True)) == want


def test_scenario_dump_matches_golden_file(mafia):
    # Ids, owners and labels of the roster are written from the global
    # frame, the scopes and the scenario's labels.
    assert dumps_scenario(mafia) == (GOLDEN / "scenario_mafia_endgame.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# The trace writer against the generic encoder.

def reference_trace_doc(trace: Trace) -> dict:
    """The trace's document form, built the plain way; ``json.dumps`` of it is what ``dumps_trace`` must write."""
    doc: dict[str, Any] = {
        "steps": [],
        "final": {
            "public": _frame_doc(trace.final.public_af),
            "global": _frame_doc(trace.final.global_af),
            "trust": _pair_matrix_doc(trace.final.trust),
        },
        "error": None,
    }
    if trace.error_step is not None:
        doc["error"] = {"step": trace.error_step, "violations": list(trace.error)}
    for k, step in enumerate(trace.steps, 1):
        entry = {
            "index": k,
            "announcers": sorted(step.event.announcers),
            "payload": _frame_doc(step.event),
            "public_added": {
                "args": list(step.public_added_args),
                "attacks": [list(p) for p in sorted(step.event.attacks)],
            },
            "global_added": {
                "args": [],
                "attacks": [list(p) for p in step.global_added_attacks],
            },
            "verdicts": _pair_matrix_doc(step.verdicts, lambda v: v.value),
            "trust_before": _pair_matrix_doc(step.trust_before),
            "trust_after": _pair_matrix_doc(step.trust_after),
        }
        if step.trust_adjusted is not None:
            entry["trust_adjusted"] = {e: sorted_extensions(g) for e, g in sorted(step.trust_adjusted.items())}
        doc["steps"].append(entry)
    return doc


def reference_dumps_trace(trace: Trace) -> str:
    return json.dumps(reference_trace_doc(trace), indent=2, sort_keys=True) + "\n"


# Ids that need escaping (quotes, backslashes, control and non-ASCII characters, and the ``%`` of
# the writer's matrix templates) next to plain ones.
IDS = st.text(st.sampled_from('ab"\\\x00\x1f\n\té☃😀%') | st.characters(), min_size=1, max_size=3)
TRUST = st.integers(-(10**30), 10**30)


@st.composite
def frames(draw) -> ArgumentationFrame:
    args = sorted(draw(st.frozensets(IDS, max_size=4)))
    if not args:
        return ArgumentationFrame(frozenset(), frozenset())
    ends = st.sampled_from(args)
    return ArgumentationFrame(frozenset(args), draw(st.frozensets(st.tuples(ends, ends), max_size=4)))


@st.composite
def events(draw, announcers) -> AnnouncementEvent:
    """An event over ``frames()``, plus attacks with one endpoint outside its arguments."""
    frame = draw(frames())
    reaching = frozenset()
    if frame.args:
        outside = st.tuples(st.sampled_from(sorted(frame.args)), IDS)
        reaching = draw(st.frozensets(outside | outside.map(lambda p: p[::-1]), max_size=2))
    return AnnouncementEvent(frame.args, frame.attacks | reaching, draw(st.frozensets(announcers, min_size=1, max_size=3)))


@st.composite
def traces(draw) -> Trace:
    agents = st.sampled_from(draw(st.lists(IDS, min_size=1, max_size=4, unique=True)))
    pairs = st.tuples(agents, agents)
    attacks = st.lists(st.tuples(IDS, IDS), max_size=3).map(tuple)
    extensions = st.frozensets(st.frozensets(IDS, max_size=3), max_size=3)
    steps = st.builds(
        TraceStep,
        event=events(agents),
        public_added_args=st.lists(IDS, max_size=3).map(tuple),
        global_added_attacks=attacks,
        verdicts=st.dictionaries(pairs, st.sampled_from(Verdict), max_size=5),
        trust_before=st.dictionaries(pairs, TRUST, max_size=5),
        trust_after=st.dictionaries(pairs, TRUST, max_size=5),
        trust_adjusted=st.none() | st.dictionaries(agents, extensions, max_size=3),
    )
    final = MmaState(draw(frames()), draw(frames()), {}, {}, {}, {}, draw(st.dictionaries(pairs, TRUST, max_size=5)))
    error_step = draw(st.none() | st.integers(1, 10**6))
    return Trace(tuple(draw(st.lists(steps, max_size=2))), final, error_step, tuple(draw(st.lists(st.text(), max_size=3))))


def _edge_trace(**step_fields) -> Trace:
    empty = ArgumentationFrame(frozenset(), frozenset())
    step = TraceStep(AnnouncementEvent.of([], [], ["e"]), (), (), {}, {}, {}, **step_fields)
    return Trace((step,), MmaState(empty, empty, {}, {}, {}, {}, {}))


def _matrix_trace(agents, *trusts, final=None) -> Trace:
    """Steps whose trust matrices are ``trusts`` in turn, verdicts keyed like them, over ``agents``."""
    empty = ArgumentationFrame(frozenset(), frozenset())
    pairs = [(v, s) for v in agents for s in agents]
    verdicts = [{p: list(Verdict)[(i + k) % 3] for k, p in enumerate(pairs) if p[0] != p[1]} for i in range(len(trusts))]
    steps = tuple(
        TraceStep(AnnouncementEvent.of([], [], agents), (), (), verdicts[i], before, after)
        for i, (before, after) in enumerate(zip((trusts[0],) + trusts, trusts))
    )
    final_trust = trusts[-1] if final is None else final
    return Trace(steps, MmaState(empty, empty, {}, {}, {}, {}, final_trust))


def _trust(agents, base):
    return {(v, s): base + 10 * i + j for i, v in enumerate(agents) for j, s in enumerate(agents)}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(traces())
@example(Trace((), _edge_trace().final))
@example(Trace((), _edge_trace().final, 3, ("(no leak) \"x\"", "")))
@example(_edge_trace(trust_adjusted={}))
@example(_edge_trace(trust_adjusted={"e1": frozenset({frozenset()}), "\u00e9\\": frozenset()}))
@example(_matrix_trace(["%s", "e1"], _trust(["%s", "e1"], 0), _trust(["%s", "e1"], 5)))
@example(_matrix_trace(["%%", "%"], _trust(["%%", "%"], -3)))
@example(_matrix_trace(["%(a)s", "a"], _trust(["%(a)s", "a"], 7), final={("%(a)s", "a"): 1}))
def test_dumps_trace_writes_what_json_dumps_writes(trace):
    assert dumps_trace(trace) == reference_dumps_trace(trace)


@pytest.mark.parametrize("with_semantics", [False, True])
@pytest.mark.parametrize("name", bundled_scenarios() + ["mafia_endgame_repeat_step3"])
def test_fixture_traces_are_what_json_dumps_writes(name, with_semantics):
    trace = run(_golden_scenario(name), with_semantics=with_semantics)
    assert dumps_trace(trace) == reference_dumps_trace(trace)


def test_matrices_sharing_a_shape_keep_their_own_values():
    agents = ["e1", "e2", "e3"]
    first, second, third = _trust(agents, 0), _trust(agents, 100), _trust(agents, -50)
    # Two steps whose matrices share one key set at one indent, and a final
    # trust matrix with that key set at a shallower indent.
    trace = _matrix_trace(agents, first, second, final=third)
    text = dumps_trace(trace)
    assert text == reference_dumps_trace(trace)
    doc = json.loads(text)
    assert [step["trust_after"]["e2"]["e3"] for step in doc["steps"]] == [12, 112]
    assert doc["steps"][1]["trust_before"] == doc["steps"][0]["trust_after"]
    assert doc["final"]["trust"]["e3"]["e1"] == -30
    assert doc["steps"][0]["verdicts"] != doc["steps"][1]["verdicts"]


def test_consecutive_traces_are_written_independently(mafia, mafia_dprime):
    # The same agents and key sets in both traces, different values: nothing
    # laid out for the first trace may leak into the second.
    traces = [run(mafia, with_semantics=True), run(mafia_dprime, with_semantics=True)]
    traces.append(_matrix_trace(["e1", "e2", "e3"], _trust(["e1", "e2", "e3"], 3)))
    texts = [dumps_trace(trace) for trace in traces]
    assert len(set(texts)) == len(texts)
    for trace, text in zip(traces, texts):
        assert text == reference_dumps_trace(trace)


# ---------------------------------------------------------------------------
# What a trace records, checked against states folded by hand.

def _games(n_synth: int) -> list[Scenario]:
    """The fixtures, the first ``n_synth`` seed-0 synth-replay games and five wide-awareness games."""
    return [load_bundled(n) for n in bundled_scenarios()] + synth_replay_games(n_synth) + [wide_awareness_game(s) for s in range(5)]


def _added(after: ArgumentationFrame, before: ArgumentationFrame) -> dict:
    return {"args": sorted(after.args - before.args), "attacks": [list(p) for p in sorted(after.attacks - before.attacks)]}


def test_added_frames_are_the_differences_announce_makes():
    # The trace stores neither the attacks the public record gains nor the arguments the global frame
    # gains: the announcement rules fix them.  Read both differences off ``announce``'s states instead.
    steps = fabricating = 0
    for sc in _games(20):
        doc = json.loads(dumps_trace(run(sc)))
        assert doc["error"] is None and len(doc["steps"]) == len(sc.script)
        m = sc.initial
        for ev, entry in zip(sc.script, doc["steps"]):
            m2 = announce(m, ev)
            assert entry["public_added"] == _added(m2.public_af, m.public_af)
            assert entry["global_added"] == _added(m2.global_af, m.global_af)
            assert entry["global_added"]["args"] == []
            assert entry["public_added"]["attacks"] == entry["payload"]["attacks"]
            steps += 1
            fabricating += bool(entry["global_added"]["attacks"])
            m = m2
    assert steps == 375 and 0 < fabricating < steps


def _shuffled(node: Any, rng: random.Random, key: str | None = None) -> Any:
    """``node`` with every object's keys and every list reordered at random, but for the script's event
    order and the order inside each ``[source, target]`` pair."""
    if isinstance(node, dict):
        items = list(node.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng, k) for k, v in items}
    if not isinstance(node, list):
        return node
    items = list(node) if key in ("attacks", "global_attacks") else [_shuffled(x, rng) for x in node]
    if key != "script":
        rng.shuffle(items)
    return items


def test_permuting_a_scenario_document_keeps_its_traces():
    rng = random.Random(0)
    for sc in _games(3):
        doc = json.loads(dumps_scenario(sc))
        want = [dumps_trace(run(sc, with_semantics=ws)) for ws in (False, True)]
        for _ in range(3):
            again = load_scenario(json.dumps(_shuffled(doc, rng)))
            assert again == sc
            assert [dumps_trace(run(again, with_semantics=ws)) for ws in (False, True)] == want


# ---------------------------------------------------------------------------
# Metamorphic relations: a transformed scenario's trace is the original's, transformed.

def _renamed_doc(node: Any, name: dict[str, str]) -> Any:
    """A scenario document with every string and object key that ``name`` maps replaced by its image."""
    if isinstance(node, dict):
        return {name.get(k, k): _renamed_doc(v, name) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed_doc(x, name) for x in node]
    return name.get(node, node) if isinstance(node, str) else node


def _renamed_trace(trace: Trace, name: dict[str, str]) -> Trace:
    """``trace`` with every agent and argument renamed by ``name``; its error text is kept as it is."""
    def ids(xs):
        return frozenset(name[x] for x in xs)

    def attacks(pairs):
        return frozenset((name[s], name[t]) for s, t in pairs)

    def frame(f):
        return ArgumentationFrame(ids(f.args), attacks(f.attacks))

    def matrix(values):
        return {(name[v], name[s]): x for (v, s), x in values.items()}

    steps = tuple(
        TraceStep(
            AnnouncementEvent(ids(st.event.args), attacks(st.event.attacks), ids(st.event.announcers)),
            tuple(sorted(ids(st.public_added_args))),
            tuple(sorted(attacks(st.global_added_attacks))),
            matrix(st.verdicts),
            matrix(st.trust_before),
            matrix(st.trust_after),
            None if st.trust_adjusted is None else {name[e]: frozenset(map(ids, g)) for e, g in st.trust_adjusted.items()},
        )
        for st in trace.steps
    )
    m = trace.final
    final = MmaState(
        frame(m.global_af),
        frame(m.public_af),
        {name[e]: ids(s) for e, s in m.scope.items()},
        {name[e]: frame(f) for e, f in m.aware.items()},
        matrix(m.sem_model),
        {pair: ids(s) for pair, s in matrix(m.intra).items()},
        matrix(m.trust),
        {pair: frame(f) for pair, f in matrix(m.overrides).items()},
    )
    return Trace(steps, final, trace.error_step, trace.error)


def test_renaming_every_agent_and_argument_renames_the_trace():
    rng = random.Random(0)
    for sc in _games(10):
        names = sorted(sc.initial.agents | sc.initial.global_af.args)
        images = [f"n{i:03d}" for i in range(len(names))]
        rng.shuffle(images)  # so the renaming also reorders the names
        name = dict(zip(names, images))
        back = {image: old for old, image in name.items()}
        renamed = load_scenario(json.dumps(_renamed_doc(json.loads(dumps_scenario(sc)), name)))
        for ws in (False, True):
            assert _renamed_trace(run(renamed, with_semantics=ws), back) == run(sc, with_semantics=ws)


def _scaled_trust(values: dict, k: int) -> dict:
    return {pair: k * x for pair, x in values.items()}


def test_scaling_trust_and_both_policy_deltas_scales_every_trust_value_and_keeps_the_rest():
    # Trust acts only through comparisons, so every verdict and trust-adjusted extension set stays.
    for sc in _games(10):
        p = sc.policy
        scaled = replace(sc, initial=replace(sc.initial, trust=_scaled_trust(sc.initial.trust, 3)),
                         policy=TrustPolicy(3 * p.delta_honest, 3 * p.delta_dishonest))
        for ws in (False, True):
            trace = run(sc, with_semantics=ws)
            steps = tuple(replace(st, trust_before=_scaled_trust(st.trust_before, 3),
                                  trust_after=_scaled_trust(st.trust_after, 3)) for st in trace.steps)
            final = replace(trace.final, trust=_scaled_trust(trace.final.trust, 3))
            assert run(scaled, with_semantics=ws) == replace(trace, steps=steps, final=final)

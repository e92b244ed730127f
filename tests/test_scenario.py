import json
from pathlib import Path

import pytest

from mmarg.dynamics import TrustPolicy, Verdict
from mmarg.scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    bundled_scenarios,
    dumps_scenario,
    dumps_trace,
    fixture_path,
    load_scenario,
    parse_scenario,
    query,
    run,
    state_at,
)
from mmarg.semantics import SemanticsKind, sorted_extensions

from conftest import load_bundled

GOLDEN = Path(__file__).parent / "data"


def base_doc(mafia) -> dict:
    return json.loads(dumps_scenario(mafia))


def test_bundled_fixture_loads_and_validates(mafia):
    assert sorted(mafia.initial.agents) == ["e1", "e2", "e3"]
    assert len(mafia.script) == 4
    assert mafia.policy == TrustPolicy(1, 1)
    assert {d.id for d in mafia.arguments} == {f"a{i}" for i in range(1, 10)}


def test_bundled_listing_contains_the_variants():
    names = bundled_scenarios()
    for name in ("mafia_endgame", "mafia_endgame_dprime", "mafia_endgame_trusts_e1", "mafia_endgame_trusts_e2"):
        assert name in names
        assert fixture_path(name).endswith(name + ".json")


def test_fixture_path_rejects_unknown_name():
    with pytest.raises(FileNotFoundError):
        fixture_path("no_such_scenario")


def test_round_trip_is_semantically_identical(mafia):
    again = parse_scenario(json.loads(dumps_scenario(mafia)))
    assert again == mafia
    assert dumps_scenario(again) == dumps_scenario(mafia)


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
    assert any(v.condition == "local scopes" for v in exc.value.violations)


def test_trust_beyond_cap_fails_validation(mafia):
    doc = base_doc(mafia)
    doc["trust"]["e1"]["e2"] = 1001
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(doc)
    assert any(v.condition == "trust range" for v in exc.value.violations)
    assert parse_scenario(doc, trust_cap=2000) is not None


def test_factual_outside_awareness_fails_validation(mafia):
    doc = base_doc(mafia)
    doc["factual"]["e3"]["e1"] = ["a6"]  # e3 never becomes aware of a6
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(doc)
    assert any(v.condition == "partial order 1" for v in exc.value.violations)


def test_run_records_every_step(mafia):
    trace = run(mafia)
    assert trace.error_step is None
    assert [s.index for s in trace.steps] == [1, 2, 3, 4]
    assert trace.steps[0].public_added_args == ("a9",)
    assert trace.steps[3].public_added_attacks == (("a5", "a2"), ("a5", "a3"))
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
    sc = Scenario(mafia.arguments, mafia.initial, script, mafia.policy, mafia.notes)
    trace = run(sc)
    assert trace.error_step == 5
    assert len(trace.steps) == 4
    assert any("no repetition" in text for text in trace.error)
    doc = json.loads(dumps_trace(trace))
    assert doc["error"]["step"] == 5


def test_empty_script_trace(mafia):
    sc = Scenario(mafia.arguments, mafia.initial, (), mafia.policy, mafia.notes)
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
        query(m, "e2", "e1", "private")


def test_query_kind_override(mafia):
    m = state_at(mafia, 0)
    # Complete semantics of the empty public record is just the empty set.
    assert sorted_extensions(query(m, "e1", "e1", "public", SemanticsKind.COMPLETE)) == [[]]


def _golden_scenario(name: str) -> Scenario:
    if name == "mafia_endgame_repeat_step3":
        # Step 3 announced again halts the replay at step 5.
        sc = load_bundled("mafia_endgame")
        return Scenario(sc.arguments, sc.initial, sc.script + (sc.script[2],), sc.policy, sc.notes)
    return load_bundled(name)


@pytest.mark.parametrize("name", bundled_scenarios() + ["mafia_endgame_repeat_step3"])
def test_run_trace_matches_golden_file(name):
    # The files pin `mmarg run NAME --with-semantics` output; any byte of
    # drift is a behaviour change.
    want = (GOLDEN / f"trace_{name}.json").read_text(encoding="utf-8")
    assert dumps_trace(run(_golden_scenario(name), with_semantics=True)) == want

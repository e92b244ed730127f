import random
from dataclasses import replace

import pytest

from mmarg.dynamics import (
    AnnouncementError,
    AnnouncementEvent,
    TrustPolicy,
    Verdict,
    announce,
    check_announcement,
    detect,
    restrict_extensions,
    step,
    update,
)
from mmarg.frames import PRE_DUNG, ArgumentationFrame
from mmarg.scenario import bundled_scenarios, state_at
from mmarg.state import validate

from conftest import load_bundled, random_announcement, random_state


def ev(args, attacks=(), announcers=("e1",)):
    return AnnouncementEvent.of(ArgumentationFrame.of(args, attacks, PRE_DUNG), announcers)


def ext(*groups):
    return frozenset(frozenset(g) for g in groups)


def test_event_requires_announcers():
    with pytest.raises(ValueError):
        AnnouncementEvent.of(ArgumentationFrame.of(["a1"]), [])


def test_policy_rejects_negative_deltas():
    with pytest.raises(ValueError):
        TrustPolicy(-1, 0)


def test_valid_payload_passes_checks(mafia):
    m = state_at(mafia, 3)
    event = ev(["a5"], [("a5", "a2"), ("a5", "a3")], announcers=("e2",))
    assert check_announcement(m, event) == []


def test_leak_flagged(mafia):
    m = mafia.initial
    # a4 has not been announced and is not part of the payload.
    problems = check_announcement(m, ev(["a9"], [("a9", "a4")], announcers=("e3",)))
    assert "no leak" in {p.condition for p in problems}


def test_duplicate_public_attack_flagged(mafia):
    m = state_at(mafia, 2)
    problems = check_announcement(m, ev(["a4"], [("a4", "a9")], announcers=("e2",)))
    assert "no repetition" in {p.condition for p in problems}


def test_payload_adding_nothing_flagged(mafia):
    m = state_at(mafia, 2)
    problems = check_announcement(m, ev(["a9"], (), announcers=("e3",)))
    assert "no repetition" in {p.condition for p in problems}


def test_undeclared_argument_flagged(mafia):
    problems = check_announcement(mafia.initial, ev(["zz"], (), announcers=("e1",)))
    assert "structure" in {p.condition for p in problems}


def test_unknown_announcer_flagged(mafia):
    problems = check_announcement(mafia.initial, ev(["a9"], (), announcers=("e9",)))
    assert "structure" in {p.condition for p in problems}


def test_announce_rejects_invalid_event(mafia):
    m = state_at(mafia, 2)
    with pytest.raises(AnnouncementError):
        announce(m, ev(["a9"], (), announcers=("e3",)))


def test_announce_expands_and_keeps_the_rest(mafia):
    m = state_at(mafia, 3)
    event = mafia.script[3]
    before, same_event, after = announce(m, event)
    assert before == m and same_event == event
    for pre, post in ((m.public_af, after.public_af), (m.global_af, after.global_af)):
        assert post.contains(pre)
    for e in sorted(m.agents):
        assert after.aware[e].contains(m.aware[e])
        assert after.scope[e] == m.scope[e]
    assert after.agents == m.agents
    assert after.sem_model == m.sem_model
    assert after.trust == m.trust
    for pair, p in m.intra.items():
        assert after.intra[pair] == p


def test_fabricated_attack_inside_one_scope_joins_that_scope(mafia):
    m = state_at(mafia, 4)
    event = ev(["a4"], [("a4", "a5")], announcers=("e1",))
    assert check_announcement(m, event) == []
    m2 = update(m, event, mafia.policy)
    assert ("a4", "a5") in m2.scope["e2"].attacks
    assert validate(m2) == []


def test_accepted_announcements_leave_valid_states():
    # Fixture scripts, then short chains of random events on random states:
    # whatever check_announcement accepts (update raises otherwise),
    # validate accepts afterwards.
    for name in bundled_scenarios():
        sc = load_bundled(name)
        m = sc.initial
        for event in sc.script:
            m = update(m, event, sc.policy)
            assert validate(m) == [], name
    rng = random.Random(1)
    accepted = 0
    for _ in range(200):
        m = random_state(rng)
        for _ in range(3):
            event = random_announcement(rng, m)
            if event is None:
                break
            m = update(m, event)
            assert validate(m) == []
            accepted += 1
    assert accepted > 300


def test_restrict_extensions_examples():
    assert restrict_extensions(ext({"a2", "a3", "a9"}), {"a2", "a3"}) == ext({"a2", "a3"})
    assert restrict_extensions(ext({"a1", "a4", "a5"}), {"a2", "a3"}) == ext(set())
    assert restrict_extensions(ext({"a1"}, {"a2"}), set()) == ext(set())


def test_detect_requires_known_agents(mafia):
    with pytest.raises(ValueError):
        detect(mafia.initial, "e9", "e1", mafia.script[0])


def test_detect_payload_outside_subject_scope_is_undetermined(mafia):
    m = state_at(mafia, 2)
    # Step 3's payload contains nothing of e3's scope.
    assert detect(m, "e2", "e3", mafia.script[2]) is Verdict.UNDETERMINED


def test_detection_matrix_covers_distinct_pairs(mafia):
    m = state_at(mafia, 2)
    _, matrix, _ = step(m, mafia.script[2], mafia.policy)
    agents = sorted(m.agents)
    assert set(matrix) == {(v, s) for v in agents for s in agents if v != s}
    for (v, s), verdict in matrix.items():
        assert detect(m, v, s, mafia.script[2]) is verdict


def test_revise_moves_only_trust(mafia):
    m = state_at(mafia, 2)
    m2, _, m3 = step(m, mafia.script[2], TrustPolicy(1, 1))
    assert m3.trust[("e2", "e1")] == m2.trust[("e2", "e1")] - 1
    assert replace(m3, trust=m2.trust) == m2


def test_revise_scales_with_policy(mafia, mafia_dprime):
    m = state_at(mafia, 2)
    m2, _, m3 = step(m, mafia.script[2], TrustPolicy(2, 5))
    assert m3.trust[("e2", "e1")] == m2.trust[("e2", "e1")] - 5
    # In the confession variant e2 finds e1 honest at step 3.
    m2, _, m3 = step(state_at(mafia_dprime, 2), mafia_dprime.script[2], TrustPolicy(2, 5))
    assert m3.trust[("e2", "e1")] == m2.trust[("e2", "e1")] + 2


def test_all_undetermined_leaves_trust_unchanged(mafia):
    m = mafia.initial
    _, matrix, m3 = step(m, mafia.script[0], TrustPolicy(1, 1))
    assert set(matrix.values()) == {Verdict.UNDETERMINED}
    assert m3.trust == m.trust


def test_update_composes_announce_and_revise(mafia):
    m = state_at(mafia, 2)
    m2, _, m3 = step(m, mafia.script[2], mafia.policy)
    assert m2 == announce(m, mafia.script[2])[2]
    assert update(m, mafia.script[2], mafia.policy) == m3


def test_update_differs_from_input_on_fixture_steps(mafia):
    m = mafia.initial
    for event in mafia.script:
        m2 = update(m, event, mafia.policy)
        assert m2 != m
        assert m2.public_af != m.public_af
        m = m2


def test_update_differs_on_random_valid_announcements():
    rng = random.Random(777)
    done = 0
    while done < 40:
        m = random_state(rng)
        event = random_announcement(rng, m)
        if event is None:
            continue
        m2 = update(m, event)
        assert m2 != m and m2.public_af != m.public_af
        done += 1


def test_scopes_untouched_by_announcements_avoiding_them():
    rng = random.Random(31337)
    done = 0
    while done < 100:
        m = random_state(rng)
        chosen = rng.choice(sorted(m.agents))
        event = random_announcement(rng, m, avoid_scope=chosen)
        if event is None:
            continue
        assert not event.payload.args & m.scope[chosen].args
        _, _, m2 = announce(m, event)
        assert m2.scope[chosen] == m.scope[chosen]
        done += 1


def test_honest_and_dishonest_conditions_are_mutually_exclusive():
    # Restricted semantics are nonempty collections of sets, so the two
    # clauses (disjointness, equality over facts) can never hold at once.
    from mmarg.state import trust_neutral_local_semantics, trust_neutral_public_semantics

    rng = random.Random(2020)
    done = 0
    while done < 30:
        m = random_state(rng)
        event = random_announcement(rng, m)
        if event is None:
            continue
        m2, matrix, _ = step(m, event, TrustPolicy())
        for (v, s), verdict in matrix.items():
            checked = event.payload.args & m2.scope[s].args
            if not checked:
                assert verdict is Verdict.UNDETERMINED
                continue
            src = restrict_extensions(trust_neutral_public_semantics(m2, v, s), checked)
            tgt = restrict_extensions(trust_neutral_local_semantics(m2, v, s), checked)
            assert src and tgt
            assert not (src == tgt and not src & tgt)
            if verdict is Verdict.DISHONEST:
                assert not src & tgt
            if verdict is Verdict.HONEST:
                assert src == tgt
        done += 1

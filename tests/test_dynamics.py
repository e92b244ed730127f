import functools
import random
import sys
from dataclasses import replace

import pytest

import mmarg.dynamics
from mmarg.dynamics import (
    AnnouncementError,
    AnnouncementEvent,
    TrustPolicy,
    Verdict,
    announce,
    check_announcement,
    step,
    update,
)
from mmarg.frames import ArgumentationFrame, restrict
from mmarg.oracle import oracle_semantics
from mmarg.scenario import bundled_scenarios, query, run, state_at
from mmarg.state import (
    ViolationsError,
    adjusted_perceived,
    perceived,
    perceived_lower_bound,
    public_model,
    trust_adjusted_public_model,
    validate,
)

from conftest import load_bundled, random_announcement, random_state
from independent_replay import independent_trust_deltas, wide_awareness_game


def ev(args, attacks=(), announcers=("e1",)):
    return AnnouncementEvent.of(args, attacks, announcers)


def test_event_requires_announcers():
    with pytest.raises(ValueError):
        AnnouncementEvent.of(["a1"], [], [])


def test_policy_rejects_negative_deltas():
    with pytest.raises(ValueError):
        TrustPolicy(-1, 0)


@pytest.mark.parametrize("deltas", [(0.5, 1), (1, 2.0), (True, 1), (1, False), ("1", 1)])
def test_policy_rejects_non_integer_deltas(deltas):
    with pytest.raises(ValueError, match="integers"):
        TrustPolicy(*deltas)


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
    with pytest.raises(AnnouncementError) as info:
        announce(m, ev(["a9"], (), announcers=("e3",)))
    assert isinstance(info.value, ViolationsError)
    assert str(info.value) == "; ".join(str(v) for v in info.value.violations)
    assert info.value.violations == check_announcement(m, ev(["a9"], (), announcers=("e3",)))


def test_announce_expands_and_keeps_the_rest(mafia):
    m = state_at(mafia, 3)
    event = mafia.script[3]
    after = announce(m, event)
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
    assert ("a4", "a5") in restrict(m2.global_af, m2.scope["e2"]).attacks
    assert validate(m2) == []


def test_announce_into_a_state_breaking_the_nesting_raises(mafia):
    # Awareness that misses a public argument cannot hold the event's attack
    # on it; the grown frame is not cut down to fit, it is rejected.
    m = state_at(mafia, 3)
    m = replace(m, aware={**m.aware, "e3": restrict(m.aware["e3"], m.aware["e3"].args - {"a2"})})
    with pytest.raises(ValueError, match=r"attack \(a5,a2\) dangles outside a closed frame") as info:
        announce(m, mafia.script[3])
    assert not isinstance(info.value, AnnouncementError)


def _grown_by_plain_union(before, event, after):
    """Global, public, every awareness frame and every override of ``after`` are those of ``before``
    with the event's arguments and attacks added, nothing cut, and kept as is when they held them all."""
    frames = [(before.global_af, after.global_af), (before.public_af, after.public_af)]
    frames += [(f, after.aware[e]) for e, f in before.aware.items()]
    frames += [(f, after.overrides[pair]) for pair, f in before.overrides.items()]
    return all(
        post == ArgumentationFrame(pre.args | event.args, pre.attacks | event.attacks)
        and (post is pre) == pre.contains(event)
        for pre, post in frames
    )


def test_accepted_announcements_leave_valid_states():
    # Fixture scripts, then short chains of random events on random states
    # that pin every opponent model to its lower bound: whatever
    # check_announcement accepts (update raises otherwise), validate accepts
    # afterwards, and every frame the event grows is its plain union.
    for name in bundled_scenarios():
        sc = load_bundled(name)
        m = sc.initial
        for event in sc.script:
            m, m0 = update(m, event, sc.policy), m
            assert validate(m) == [], name
            assert _grown_by_plain_union(m0, event, m), name
    rng = random.Random(1)
    accepted = 0
    for _ in range(200):
        m = random_state(rng)
        m = replace(m, overrides={(v, s): perceived(m, v, s) for v in m.agents for s in m.agents if v != s})
        for _ in range(3):
            event = random_announcement(rng, m)
            if event is None:
                break
            m, m0 = update(m, event, TrustPolicy()), m
            assert validate(m) == []
            assert _grown_by_plain_union(m0, event, m)
            accepted += 1
    assert accepted > 300


def test_detect_payload_outside_subject_scope_is_undetermined(mafia):
    m = state_at(mafia, 2)
    # Step 3's payload contains nothing of e3's scope.
    assert step(m, mafia.script[2], mafia.policy)[1][("e2", "e3")] is Verdict.UNDETERMINED


def test_detection_matrix_covers_distinct_pairs(mafia):
    m = state_at(mafia, 2)
    _, matrix, _ = step(m, mafia.script[2], mafia.policy)
    agents = sorted(m.agents)
    assert set(matrix) == {(v, s) for v in agents for s in agents if v != s}


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
    assert m2 == announce(m, mafia.script[2])
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
        m2 = update(m, event, TrustPolicy())
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
        assert not event.args & m.scope[chosen]
        m2 = announce(m, event)
        assert m2.scope[chosen] == m.scope[chosen]
        done += 1


def test_honest_and_dishonest_conditions_are_mutually_exclusive():
    # Restricted semantics are nonempty collections of sets, so the two
    # clauses (disjointness, equality over facts) can never hold at once.
    rng = random.Random(2020)
    done = 0
    while done < 30:
        m = random_state(rng)
        event = random_announcement(rng, m)
        if event is None:
            continue
        m2, matrix, _ = step(m, event, TrustPolicy())
        for (v, s), verdict in matrix.items():
            checked = event.args & m2.scope[s]
            if not checked:
                assert verdict is Verdict.UNDETERMINED
                continue
            src = {ext & checked for ext in query(m2, v, s, "public")}
            tgt = {ext & checked for ext in query(m2, v, s, "local")}
            assert src and tgt
            assert not (src == tgt and not src & tgt)
            if verdict is Verdict.DISHONEST:
                assert not src & tgt
            if verdict is Verdict.HONEST:
                assert src == tgt
        done += 1


def _record_calls(monkeypatch, fn):
    """The argument tuples of every call to ``fn``, in order.

    ``fn`` is wrapped by rebinding each ``mmarg`` module attribute that
    names it, so a call through any alias is recorded.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name == "mmarg" or name.startswith("mmarg."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.fixture
def solver_calls(monkeypatch):
    """Every (kind, frame) the solver is asked for, in order."""
    return _record_calls(monkeypatch, sys.modules["mmarg.semantics"].semantics)


@pytest.fixture
def perceived_calls(monkeypatch):
    """Every (state, viewer, subject) a viewer's model of a subject is built for, in order."""
    return _record_calls(monkeypatch, perceived)


def _solved_pairs(m2, event):
    """The pairs whose verdict solves: touched, with a local model other than the public record.

    Every other touched pair is judged by the factual test alone.
    """
    return {
        (v, s)
        for v in m2.agents
        for s in m2.agents
        if v != s and event.args & m2.scope[s] and perceived(m2, v, s) != m2.public_af
    }


def _verdict_solves(m2, event):
    """The (kind, frame) solves the verdict matrix on the announced state makes, in order:
    for each solving pair in sorted order, its kind on the public model, then on the adjusted local model."""
    calls = []
    for v, s in sorted(_solved_pairs(m2, event)):
        kind = m2.sem_model[(v, s)]
        calls += [(kind, public_model(m2, v, s)), (kind, adjusted_perceived(m2, v, s))]
    return calls


def _step_cases():
    """(state, event, policy) for every fixture step and about 50 random states."""
    cases = []
    for name in bundled_scenarios():
        sc = load_bundled(name)
        m = sc.initial
        for event in sc.script:
            cases.append((m, event, sc.policy))
            m = update(m, event, sc.policy)
    rng = random.Random(5)
    for _ in range(50):
        m = random_state(rng, n_agents=4, max_scope=3, density=0.3)
        event = random_announcement(rng, m)
        if event is not None:
            cases.append((m, event, TrustPolicy()))
    return cases


def test_step_solves_each_solving_pair_public_then_local(solver_calls):
    cases = _step_cases()
    assert len(cases) > 60
    solved = 0
    for m, event, policy in cases:
        solver_calls.clear()
        m2 = step(m, event, policy)[0]
        assert solver_calls == _verdict_solves(m2, event)
        solved += bool(solver_calls)
    assert solved > 0


def test_step_judges_only_subjects_whose_scope_the_payload_meets(perceived_calls):
    # Each touched pair builds the viewer's model of the subject once, for
    # the shortcut's test and, when the pair solves, for its local frame;
    # an untouched pair builds nothing.
    cases = _step_cases()
    untouched = shortcut = solved = 0
    for m, event, policy in cases:
        perceived_calls.clear()
        m2, verdicts, _ = step(m, event, policy)
        built = sorted((v, s) for _, v, s in perceived_calls)
        touched = {
            (v, s) for v, s in verdicts if event.args & m2.scope[s]
        }
        assert built == sorted(touched)
        local = _solved_pairs(m2, event)
        shortcut += len(touched - local)
        solved += len(local)
        for pair, verdict in verdicts.items():
            if pair not in touched:
                untouched += 1
                assert verdict is Verdict.UNDETERMINED
    assert untouched > 100
    # Both ways of judging a touched pair occur, so neither is tested vacuously.
    assert shortcut > 0 and solved > 0


def test_run_solves_the_verdicts_then_each_agents_extra(solver_calls):
    for name in bundled_scenarios():
        sc = load_bundled(name)
        expected = []
        m = sc.initial
        for event in sc.script:
            m2, _, m3 = step(m, event, sc.policy)
            expected += _verdict_solves(m2, event)
            expected += [(m3.sem_model[(e, e)], trust_adjusted_public_model(m3, e)) for e in sorted(m3.agents)]
            m = m3
        for _ in range(2):
            solver_calls.clear()
            run(sc, with_semantics=True)
            assert solver_calls == expected, name


def test_run_trust_deltas_equal_the_independent_replay_on_wide_awareness_games():
    # Synth-replay's verdicts never solve; with every agent aware of the
    # whole global frame, private awareness makes verdicts solve and deceive.
    seen = set()
    for seed in range(5):
        sc = wide_awareness_game(seed)
        trace = run(sc)
        assert trace.error_step is None
        for k, (recorded, deltas) in enumerate(zip(trace.steps, independent_trust_deltas(sc), strict=True), 1):
            for pair, delta in deltas.items():
                assert recorded.trust_after[pair] - recorded.trust_before[pair] == delta, (seed, k, pair)
            seen.update(recorded.verdicts.values())
    assert {Verdict.DISHONEST, Verdict.HONEST} <= seen


def reference_verdict(m2, viewer, subject, event, solve):
    """The verdict with both frames always built and solved through ``solve``."""
    checked = event.args & m2.scope[subject]
    if not checked:
        return Verdict.UNDETERMINED
    kind = m2.sem_model[(viewer, subject)]
    src = {ext & checked for ext in solve(kind, public_model(m2, viewer, subject))}
    tgt = {ext & checked for ext in solve(kind, adjusted_perceived(m2, viewer, subject))}
    if not src & tgt:
        return Verdict.DISHONEST
    if src == tgt and checked <= m2.intra[(viewer, subject)]:
        return Verdict.HONEST
    return Verdict.UNDETERMINED


def _with_overrides(rng, m):
    """``m`` with a freshly built override on about half of its ordered pairs.

    Half of those equal the pair's lower bound by value without being it;
    the rest may add arguments and attacks from the viewer's awareness.
    """
    overrides = {}
    for v in sorted(m.agents):
        for s in sorted(m.agents):
            if v == s or rng.random() < 0.5:
                continue
            lower = perceived_lower_bound(m, v, s)
            args, attacks = set(lower.args), set(lower.attacks)
            if rng.random() < 0.5:
                args |= {a for a in sorted(m.aware[v].args - lower.args) if rng.random() < 0.3}
                attacks |= {
                    (x, y) for x, y in sorted(m.aware[v].attacks) if x in args and y in args and rng.random() < 0.5
                }
            overrides[(v, s)] = ArgumentationFrame(frozenset(args), frozenset(attacks))
    m = replace(m, overrides=overrides)
    assert validate(m) == []
    return m


def _replayed_cases(n_states=120):
    """(state, event, policy) for random states reached by 1-3 announcements, each judged on one more.

    The initial states carry private awareness and the overrides of
    :func:`_with_overrides`; every announcement on the way is a case too.
    """
    rng = random.Random(1909)
    cases = []
    reached = 0
    while reached < n_states:
        m = _with_overrides(rng, random_state(rng, density=0.3))
        todo = rng.randint(1, 3) + 1
        for done in range(todo):
            event = random_announcement(rng, m)
            if event is None:
                break
            cases.append((m, event, TrustPolicy()))
            reached += done > 0
            m = update(m, event, TrustPolicy())
    return cases


@pytest.mark.parametrize("solver", ["semantics", "oracle_semantics"])
def test_step_verdicts_equal_the_always_solving_reference(monkeypatch, solver):
    if solver == "oracle_semantics":
        monkeypatch.setattr(mmarg.dynamics, "semantics", oracle_semantics)
    cases = _step_cases() + _replayed_cases()
    by_value = dishonest = 0
    for m, event, policy in cases:
        m2, verdicts, _ = step(m, event, policy)
        solve = functools.cache(mmarg.dynamics.semantics)
        for (v, s), verdict in verdicts.items():
            assert verdict is reference_verdict(m2, v, s, event, solve), (v, s, event)
            local = perceived(m2, v, s)
            by_value += bool(event.args & m2.scope[s]) and local == m2.public_af and local is not m2.public_af
            dishonest += verdict is Verdict.DISHONEST
    # The shortcut's comparison runs on equal but distinct frames, and
    # private awareness yields deception verdicts.
    assert by_value > 0 and dishonest > 0

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s -q`` to see the per-criterion
lines.  All comparisons are exact; the two timed criteria assert their
stated budgets.
"""

import random
import time

from mmarg.cli import EX_OK, main
from mmarg.dynamics import AnnouncementEvent, TrustPolicy, Verdict, announce, check_announcement, step, update
from mmarg.frames import ArgumentationFrame, restrict
from mmarg.oracle import oracle_semantics
from mmarg.scenario import fixture_path, query, run, state_at
from mmarg.semantics import SemanticsKind, semantics
from mmarg.state import adjusted_perceived, validate

from conftest import ext, random_announcement, random_state
from independent_replay import independent_trust_deltas


def _report(n: int, text: str) -> None:
    print(f"criterion {n} PASS: {text}")


def test_criterion_1_worked_example_reproduction(mafia, mafia_trusts_e1, mafia_trusts_e2):
    t0 = time.perf_counter()

    m_d = state_at(mafia, 3)
    assert query(m_d, "e2", "e1", "public") == ext({"a2", "a3", "a9"})
    assert query(m_d, "e2", "e1", "local") == ext({"a1", "a4", "a5"})

    m_e = state_at(mafia_trusts_e2, 4)
    assert m_e.trust[("e3", "e1")] < m_e.trust[("e3", "e2")]
    assert query(m_e, "e3", None, "trust-adjusted") == ext({"a4", "a5"})

    m_e = state_at(mafia_trusts_e1, 4)
    assert m_e.trust[("e3", "e2")] < m_e.trust[("e3", "e1")]
    assert query(m_e, "e3", None, "trust-adjusted") == ext({"a2", "a3", "a9"})

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"worked-example reproduction took {elapsed:.2f}s"
    _report(1, f"trust-neutral and trust-adjusted semantics match the worked example ({elapsed:.2f}s)")


def test_criterion_2_detection_verdicts(mafia, mafia_dprime):
    m_c = state_at(mafia, 2)
    step3 = mafia.script[2]
    m_d, verdicts, _ = step(m_c, step3, mafia.policy)
    assert verdicts[("e2", "e1")] is Verdict.DISHONEST
    checked = step3.args & m_d.scope["e1"]
    assert checked == {"a2", "a3"}
    src = {ext & checked for ext in query(m_d, "e2", "e1", "public")}
    tgt = {ext & checked for ext in query(m_d, "e2", "e1", "local")}
    assert src == ext({"a2", "a3"})
    assert tgt == ext(set())

    m_c2 = state_at(mafia_dprime, 2)
    honest_step = mafia_dprime.script[2]
    assert honest_step.args == {"a1"}
    verdicts = step(m_c2, honest_step, mafia_dprime.policy)[1]
    assert verdicts[("e2", "e1")] is Verdict.HONEST
    assert verdicts[("e3", "e1")] is Verdict.UNDETERMINED
    _report(2, "dishonesty at the bluff, honesty at the confession, undetermined for the uninformed")


def test_criterion_3_preference_adjustment(mafia):
    m_e = state_at(mafia, 4)

    e1_frame = m_e.aware["e1"]
    assert ("a3", "a1") in e1_frame.attacks
    e1_adj = adjusted_perceived(m_e, "e1", "e1")
    assert e1_adj.attacks == e1_frame.attacks - {("a3", "a1")}

    e2_adj = adjusted_perceived(m_e, "e2", "e2")
    assert e2_adj.attacks == {
        ("a1", "a2"), ("a1", "a3"), ("a4", "a3"), ("a5", "a3"), ("a4", "a9"), ("a5", "a2"),
    }

    e3_frame = m_e.aware["e3"]
    assert adjusted_perceived(m_e, "e3", "e3") == e3_frame

    # Same machinery on the earlier state reproduces the worked listing of
    # the opponent model and the self model exactly.
    m_d = state_at(mafia, 3)
    d1 = adjusted_perceived(m_d, "e2", "e1")
    assert d1.args == frozenset({"a1", "a2", "a3", "a4", "a5", "a9"})
    assert d1.attacks == {("a1", "a2"), ("a1", "a3"), ("a3", "a4"), ("a3", "a5"), ("a4", "a9")}
    d2 = adjusted_perceived(m_d, "e2", "e2")
    assert d2.attacks == {("a1", "a2"), ("a1", "a3"), ("a4", "a3"), ("a5", "a3"), ("a4", "a9")}
    _report(3, "fact-adjustment drops the bluffed counter-attack and reverses the detective's two")


def test_criterion_4_announcement_validity(mafia):
    m_d = state_at(mafia, 3)
    step4 = mafia.script[3]
    assert step4 == AnnouncementEvent.of(["a5"], [("a5", "a2"), ("a5", "a3")], ["e2"])
    assert check_announcement(m_d, step4) == []
    m_e = announce(m_d, step4)
    assert m_e.public_af == ArgumentationFrame.of(
        ["a2", "a3", "a4", "a5", "a9"],
        [("a3", "a4"), ("a3", "a5"), ("a4", "a9"), ("a5", "a2"), ("a5", "a3")],
    )
    _report(4, "the final insistence passes no-leak/no-repetition and yields the final public record")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    names = ["a1", "a2", "a3", "a4"]
    checked = 0
    for n in range(0, 5):
        args = frozenset(names[:n])
        pairs = [(x, y) for x in sorted(args) for y in sorted(args)]
        for bits in range(1 << len(pairs)):
            attacks = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            frame = ArgumentationFrame(args, attacks)
            for kind in SemanticsKind:
                assert semantics(kind, frame) == oracle_semantics(kind, frame), (
                    f"solver/oracle mismatch on {sorted(args)} {sorted(attacks)} {kind}"
                )
            checked += 1

    rng = random.Random(20240811)
    from mmarg.oracle import random_frame

    for _ in range(200):
        frame = random_frame(rng, rng.randint(1, 10), rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        for kind in SemanticsKind:
            assert semantics(kind, frame) == oracle_semantics(kind, frame)
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(5, f"solver agrees with the brute-force oracle on {checked} frames ({elapsed:.1f}s)")


def _prop1(m) -> bool:
    for e in sorted(m.agents):
        fe, fa = m.scope[e], m.aware[e]
        lhs = frozenset(
            (s, t) for s, t in fa.attacks | m.global_af.attacks if s in fe and t in fe
        )
        if lhs != restrict(m.global_af, fe).attacks:
            return False
    return True


def test_criterion_6_theorem_suites(mafia, mafia_dprime, mafia_trusts_e1, mafia_trusts_e2):
    frames_tested = []

    # Scope attacks are faithfully reflected on every validated state in the corpus.
    corpus = []
    for sc in (mafia, mafia_dprime, mafia_trusts_e1, mafia_trusts_e2):
        for step in range(len(sc.script) + 1):
            corpus.append(state_at(sc, step))
    rng = random.Random(60606)
    corpus.extend(random_state(rng) for _ in range(30))
    for m in corpus:
        assert validate(m) == []
        assert _prop1(m)
        frames_tested.extend([m.public_af, m.global_af])
        frames_tested.extend(m.aware[e] for e in m.agents)

    # Announcements whose payload avoids a scope leave that scope untouched,
    # and every valid update produces a different state.
    pairs = 0
    while pairs < 100:
        m = random_state(rng)
        chosen = rng.choice(sorted(m.agents))
        event = random_announcement(rng, m, avoid_scope=chosen)
        if event is None:
            continue
        m2 = announce(m, event)
        assert m2.scope[chosen] == m.scope[chosen]
        m3 = update(m, event, TrustPolicy())
        assert m3 != m
        frames_tested.append(m2.public_af)
        pairs += 1
    for sc in (mafia, mafia_dprime):
        m = sc.initial
        for event in sc.script:
            m2 = update(m, event, sc.policy)
            assert m2 != m
            m = m2

    # Grounded uniqueness and grounded = intersection of complete, everywhere.
    for frame in frames_tested:
        grounded = semantics(SemanticsKind.GROUNDED, frame)
        assert len(grounded) == 1
        complete = semantics(SemanticsKind.COMPLETE, frame)
        assert next(iter(grounded)) == frozenset.intersection(*complete)

    _report(6, f"scope faithfulness, scope preservation on {pairs} random announcements, "
               f"update non-identity, grounded laws on {len(frames_tested)} frames")


def test_criterion_7_trust_revision_against_independent_script(mafia, mafia_dprime):
    for sc in (mafia, mafia_dprime):
        expected = independent_trust_deltas(sc)
        trace = run(sc)
        assert trace.error_step is None
        for k, (step, deltas) in enumerate(zip(trace.steps, expected), 1):
            for pair, delta in deltas.items():
                assert step.trust_after[pair] - step.trust_before[pair] == delta, f"step {k} pair {pair}"

    base = independent_trust_deltas(mafia)
    assert base[2][("e2", "e1")] == -1
    assert all(d == 0 for pair, d in base[2].items() if pair != ("e2", "e1"))
    assert all(d == 0 for deltas in (base[0], base[1], base[3]) for d in deltas.values())

    dprime = independent_trust_deltas(mafia_dprime)
    assert dprime[2][("e2", "e1")] == 1
    assert all(d == 0 for pair, d in dprime[2].items() if pair != ("e2", "e1"))
    _report(7, "replayed trust deltas equal the oracle-backed pairwise-detection script's")


def test_criterion_8_run_determinism(tmp_path):
    first = tmp_path / "trace1.json"
    second = tmp_path / "trace2.json"
    assert main(["run", fixture_path("mafia_endgame"), "--trace", str(first)]) == EX_OK
    assert main(["run", fixture_path("mafia_endgame"), "--trace", str(second)]) == EX_OK
    b1, b2 = first.read_bytes(), second.read_bytes()
    assert b1 == b2 and b1
    _report(8, f"two runs wrote byte-identical traces ({len(b1)} bytes)")

"""An oracle-backed replay of pairwise detection and trust revision, independent of the package.

It shares no detection, announcement, frame-combining or preference code
with ``mmarg``: it reads the initial state and the script, then works on
plain sets and ``oracle_semantics``.  ``wide_awareness_game`` builds seeded
benchmark games in which every agent is aware of the whole global frame,
so private awareness makes verdicts solve and detect deception;
``synth_replay_games`` builds the benchmark's seed-0 synth-replay games.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from mmarg.frames import ArgumentationFrame
from mmarg.oracle import oracle_semantics
from mmarg.scenario import Scenario, load_scenario

_spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
bench_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gen)


def wide_awareness_game(seed: int) -> Scenario:
    """The seeded 4-agent, 12-argument, 12-step benchmark game with every awareness set to the global frame."""
    doc = bench_gen.game_document(random.Random(seed), 4, 12, 0.15, 12)
    every = {"args": [a["id"] for a in doc["arguments"]], "attacks": doc["global_attacks"]}
    doc["awareness"] = {e: every for e in doc["awareness"]}
    return load_scenario(bench_gen.dumps(doc))


def synth_replay_games(count: int) -> list[Scenario]:
    """The first ``count`` seed-0 games of the benchmark's synth-replay workload (its ``SYNTH_SHAPE``)."""
    rng = bench_gen.rng_for("synth-replay", 0)
    return [load_scenario(bench_gen.dumps(bench_gen.game_document(rng, 10, 10, 0.15, 15))) for _ in range(count)]


def independent_trust_deltas(sc: Scenario) -> list[dict[tuple[str, str], int]]:
    """Pairwise-detection replay built on the brute-force oracle: each step's trust delta per ordered pair.

    Keeps its own copies of the global attacks, the public record and
    per-viewer awareness, advances them by hand, and derives each verdict
    from oracle semantics and plain set arithmetic.  A scope's attacks are
    the global attacks between two of its arguments, starting from the
    document's and growing with every announced attack.  Omega overrides
    are not modelled, so a scenario must state none.
    """
    assert not sc.initial.overrides
    agents = sorted(sc.initial.agents)
    pub_args = set(sc.initial.public_af.args)
    pub_atts = set(sc.initial.public_af.attacks)
    fa_args = {e: set(sc.initial.aware[e].args) for e in agents}
    fa_atts = {e: set(sc.initial.aware[e].attacks) for e in agents}
    glob_atts = set(sc.initial.global_af.attacks)
    scope_args = {e: set(sc.initial.scope[e]) for e in agents}
    factual = {pair: set(p) for pair, p in sc.initial.intra.items()}
    kinds = sc.initial.sem_model

    def close(args, atts):
        return set(args), {(s, t) for s, t in atts if s in args and t in args}

    def adjusted(atts, facts):
        return {
            (t, s) if s not in facts and t in facts else (s, t) for s, t in atts
        }

    per_step = []
    for event in sc.script:
        p_args, p_atts = set(event.args), set(event.attacks)
        glob_atts |= p_atts  # verdicts read the announced state
        pub2_args, pub2_atts = close(pub_args | p_args, pub_atts | p_atts)
        fa2 = {e: close(fa_args[e] | p_args, fa_atts[e] | p_atts) for e in agents}
        deltas = {}
        for v in agents:
            for s in agents:
                if v == s:
                    continue
                checked = p_args & scope_args[s]
                if not checked:
                    deltas[(v, s)] = 0
                    continue
                facts = factual[(v, s)]
                va, vt = fa2[v]
                shared_args = va & scope_args[s]
                shared_atts = {p for p in vt & glob_atts if p[0] in shared_args and p[1] in shared_args}
                om_args, om_atts = close(pub2_args | shared_args, pub2_atts | shared_atts)
                kind = kinds[(v, s)]
                src_sem = oracle_semantics(kind, ArgumentationFrame(frozenset(pub2_args), frozenset(adjusted(pub2_atts, facts))))
                tgt_sem = oracle_semantics(kind, ArgumentationFrame(frozenset(om_args), frozenset(adjusted(om_atts, facts))))
                src = {frozenset(x & checked) for x in src_sem}
                tgt = {frozenset(x & checked) for x in tgt_sem}
                if not src & tgt:
                    deltas[(v, s)] = -sc.policy.delta_dishonest
                elif src == tgt and checked <= facts:
                    deltas[(v, s)] = sc.policy.delta_honest
                else:
                    deltas[(v, s)] = 0
        per_step.append(deltas)
        pub_args, pub_atts = pub2_args, pub2_atts
        for e in agents:
            fa_args[e], fa_atts[e] = fa2[e]
    return per_step

"""Seeded input generators for the benchmark.

Everything here is plain data (lists, dicts, JSON text) and imports
nothing from ``mmarg``, so generating inputs is never part of the timed
set-up.  Every loop runs over a list or a sorted sequence, never over a set
or a dict built from hashed keys, so the seed alone fixes the bytes: the
inputs are identical under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random

KINDS = ("complete", "preferred", "grounded")
FIXTURES = (
    "mafia_endgame",
    "mafia_endgame_dprime",
    "mafia_endgame_trusts_e1",
    "mafia_endgame_trusts_e2",
)


def rng_for(workload: str, seed: int) -> random.Random:
    # String seeds go through SHA-512, so they do not depend on hash randomisation.
    return random.Random(f"mmarg-bench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# Frames for solve-dense: (args, attacks) with sorted ids.

def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


def dense_frame(rng: random.Random, n: int, density: float) -> tuple[list[str], list[list[str]]]:
    """A share ``density`` of all ordered pairs, self-pairs included, attack.

    The attack count is exact rather than binomial, so frames drawn from
    different seeds cost the solver alike.
    """
    args = _ids("a", n)
    pairs = [[x, y] for x in args for y in args]
    return args, sorted(rng.sample(pairs, round(density * len(pairs))))


# ---------------------------------------------------------------------------
# Synthetic games: whole scenario documents, scripts included.

def _closed_subframe(rng: random.Random, args: list[str], attacks: list[list[str]], keep: float) -> list[list[str]]:
    inside = set(args)
    return [p for p in attacks if p[0] in inside and p[1] in inside and rng.random() < keep]


def game_document(
    rng: random.Random,
    n_agents: int,
    n_args: int,
    density: float,
    n_steps: int,
) -> dict:
    """A valid scenario document with an ``n_steps`` announcement script.

    The script is built with the announcement rules themselves (no leak,
    no repetition, payload ids declared globally) tracked on a plain copy
    of the public record, so building it runs no detection.  Announced
    attacks are drawn between arguments on the table, true or fabricated.
    """
    agents = [f"e{i:02d}" for i in range(n_agents)]
    args = _ids("x", n_args)
    # Exact counts rather than coin flips wherever a count drives the
    # replay's cost, so games drawn from different seeds cost alike.
    dealt = agents + [agents[i % n_agents] for i in range(n_args - n_agents)]
    rng.shuffle(dealt)
    owner = dict(zip(args, dealt))
    scopes = {e: [a for a in args if owner[a] == e] for e in agents}
    pairs = [[x, y] for x in args for y in args if x != y]
    global_attacks = sorted(rng.sample(pairs, round(density * len(pairs))))

    # Each agent sees its scope plus a fixed share of the other arguments.
    aware_args = {}
    for e in agents:
        others = [a for a in args if owner[a] != e]
        seen = set(rng.sample(others, round(0.3 * len(others))))
        aware_args[e] = [a for a in args if owner[a] == e or a in seen]
    awareness = {}
    for e in agents:
        mine = set(scopes[e])
        scope_attacks = [p for p in global_attacks if p[0] in mine and p[1] in mine]
        extra = _closed_subframe(rng, aware_args[e], global_attacks, 0.5)
        attacks = sorted({tuple(p) for p in scope_attacks + extra})
        awareness[e] = {"args": aware_args[e], "attacks": [list(p) for p in attacks]}

    kinds = [KINDS[i % len(KINDS)] for i in range(n_agents * n_agents)]
    rng.shuffle(kinds)
    gsem = {v: {s: kinds[i * n_agents + j] for j, s in enumerate(agents)} for i, v in enumerate(agents)}

    # Facts each viewer holds per subject, closed under knowledge
    # propagation: a fact v holds about its own view reaches the owner's
    # own split and v's model of the owner.
    facts = {(v, s): {a for a in aware_args[v] if rng.random() < (0.3 if v == s else 0.15)} for v in agents for s in agents}
    changed = True
    while changed:
        changed = False
        for k in agents:
            for a in sorted(facts[(k, k)]):
                o = owner[a]
                for pair in ((o, o), (k, o)):
                    if a not in facts[pair]:
                        facts[pair].add(a)
                        changed = True
    factual = {v: {s: sorted(facts[(v, s)]) for s in agents} for v in agents}
    trust = {v: {s: rng.randint(-3, 3) for s in agents} for v in agents}

    true_attacks = {tuple(p) for p in global_attacks}
    public_args: list[str] = []
    public_attacks: list[list[str]] = []
    script = []
    while len(script) < n_steps:
        who = rng.choice(agents)
        own = scopes[who]
        picked = rng.sample(own, min(len(own), rng.randint(1, 2)))
        if rng.random() < 0.3:
            picked.append(rng.choice(args))
        payload = sorted(set(picked))
        on_table = sorted(set(payload) | set(public_args))
        fresh = set(payload)
        standing = {tuple(p) for p in public_attacks}
        candidates = [
            [x, y] for x in on_table for y in on_table
            if x != y and (x in fresh or y in fresh) and (x, y) not in standing
        ]
        attacks = [p for p in candidates if rng.random() < (0.5 if tuple(p) in true_attacks else 0.05)]
        adds_something = attacks or not set(payload) <= set(public_args)
        if not adds_something:
            continue
        script.append({"announcers": [who], "args": payload, "attacks": attacks})
        public_args = sorted(set(public_args) | set(payload))
        public_attacks = sorted(public_attacks + attacks)

    return {
        "notes": "synthetic benchmark game",
        "arguments": [{"id": a, "owner": owner[a], "label": ""} for a in args],
        "global_attacks": global_attacks,
        "scopes": scopes,
        "awareness": awareness,
        "public": {"args": [], "attacks": []},
        "gsem": gsem,
        "factual": factual,
        "trust": trust,
        "script": script,
        "policy": {"honest": 1, "dishonest": 1},
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))

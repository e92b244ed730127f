#!/usr/bin/env python3
"""Replay a bundled scenario and print a human-readable step table.

Usage: python scripts/replay_mafia.py [scenario-name] [--with-semantics]
"""

from __future__ import annotations

import sys

from mmarg import fixture_path, load_scenario, run, sorted_extensions


def main(argv: list[str]) -> int:
    name = argv[0] if argv and not argv[0].startswith("--") else "mafia_endgame"
    with_semantics = "--with-semantics" in argv
    with open(fixture_path(name), "rb") as fh:
        sc = load_scenario(fh)
    print(f"scenario: {name}")
    if sc.notes:
        print(f"  {sc.notes}")
    print(f"agents: {sorted(sc.initial.agents)}   policy: +{sc.policy.delta_honest}/-{sc.policy.delta_dishonest}")
    trace = run(sc, with_semantics=with_semantics)
    for k, step in enumerate(trace.steps, 1):
        who = ",".join(sorted(step.event.announcers))
        args = " ".join(sorted(step.event.args))
        atts = " ".join(f"{s}->{t}" for s, t in sorted(step.event.attacks))
        print(f"\nstep {k}: {who} announces [{args}] {atts}")
        flagged = {pair: v.value for pair, v in sorted(step.verdicts.items()) if v.value != "undetermined"}
        print(f"  verdicts: {flagged if flagged else 'all undetermined'}")
        moved = {
            pair: (step.trust_before[pair], step.trust_after[pair])
            for pair in sorted(step.trust_after)
            if step.trust_after[pair] != step.trust_before[pair]
        }
        print(f"  trust moves: {moved if moved else 'none'}")
        if step.trust_adjusted is not None:
            for agent, exts in sorted(step.trust_adjusted.items()):
                print(f"  trust-adjusted {agent}: {sorted_extensions(exts)}")
    if trace.error_step is not None:
        print(f"\nhalted at step {trace.error_step}: {'; '.join(trace.error)}")
        return 2
    final = trace.final
    print(f"\nfinal public record: {sorted(final.public_af.args)}")
    for s, t in sorted(final.public_af.attacks):
        print(f"  {s} -> {t}")
    print(f"final trust: { {p: v for p, v in sorted(final.trust.items()) if v} }")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

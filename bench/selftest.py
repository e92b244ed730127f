#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. Inputs are byte-identical across ``PYTHONHASHSEED`` values: two child
   processes with different hash seeds generate every workload's inputs
   and must print the same fingerprints.
2. The correctness check bites: one pass over every workload with a
   deliberately wrong solver plugged in through the same substitution
   hook the references use must fail some operations, while the real
   solver fails none.

Exits non-zero when a check fails.
"""

from __future__ import annotations

import os
import subprocess
import sys

import reference
import workloads
from run import Samples, run_ops

SEEDS = (reference.DEFAULT_SEED, 7)


def fingerprints() -> str:
    lines = []
    for seed in SEEDS:
        for name, w in workloads.WORKLOADS.items():
            lines.append(f"{name} {seed} {reference.digest(workloads.fingerprint(name, w.generate(seed)))}")
    return "\n".join(lines)


def check_hash_seed_independence() -> bool:
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, __file__, "--fingerprints"], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(proc.stdout)
    same = outputs[0] == outputs[1]
    print(f"inputs identical across PYTHONHASHSEED 0 and 4242: {same}")
    return same


def wrong_solver(solve):
    """Drops the last extension whenever there is more than one."""
    def wrong(kind, f):
        exts = solve(kind, f)
        if len(exts) < 2:
            return exts
        return frozenset(sorted(exts, key=sorted)[:-1])
    return wrong


def check_wrong_solver_fails() -> bool:
    ok = True
    for name, w in workloads.WORKLOADS.items():
        items = w.generate(reference.DEFAULT_SEED)
        refs = reference.references(name, items)
        mods = reference.import_mmarg(w.modules)
        ops = w.ops(mods, items, w.load(mods, items))
        right = run_ops(ops, refs, None, Samples())
        solve = mods.pkg.semantics
        with reference.rebound({solve: wrong_solver(solve)}):
            wrong = run_ops(ops, refs, None, Samples())
        passed = right.failed == 0 and wrong.failed > 0
        ok &= passed
        print(f"{name}: real solver error_rate {right.failed / right.attempted:g}, "
              f"wrong solver error_rate {wrong.failed / wrong.attempted:g} -> {'ok' if passed else 'FAILED'}")
    return ok


def main(argv: list[str]) -> int:
    if argv == ["--fingerprints"]:
        print(fingerprints())
        return 0
    ok = check_hash_seed_independence()
    ok &= check_wrong_solver_fails()
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

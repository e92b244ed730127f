#!/usr/bin/env python3
"""Run each mutant of a fixed table against the tests that should kill it.

Usage: python3 scripts/mutants.py

Each entry of ``MUTANTS`` names a file of this checkout, an exact text that
occurs once in it, the text that replaces it, the test files to run and
whether the mutant is expected to survive them.  For each entry the
script copies the checkout, without ``.git``, into a
temporary directory, applies the replacement there, runs ``python -m pytest
-q -x`` on the test files with the copy's ``src/`` first on the import path,
and prints the mutant ``killed`` (some test failed) or ``survived`` (every
test passed), with whether that was expected; any other pytest exit status
is printed as an error.  A summary line follows.  Exits 1 when any outcome
was not the expected one.  The checkout itself is never changed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: bool = False


SOLVER = "src/mmarg/semantics.py"
SOLVER_TESTS = ("tests/test_semantics.py", "tests/test_semantics_certificates.py")

MUTANTS = [
    # The labelling search's re-checks: a label's last possible supporter may be labelled later.
    Mutant("complete: no OUT re-check", SOLVER,
           "        if not backed(out_m & tgt, may_in):\n            return\n", "", SOLVER_TESTS),
    Mutant("complete: no UNDEC re-check", SOLVER,
           "if att & may_in and backed(un_m & tgt, un_m | rest):", "if att & may_in:", SOLVER_TESTS),
    # A self-attacker can never be IN, but counting it only delays a prune that the re-check still makes.
    Mutant("complete: self-attackers may still be IN", SOLVER,
           "may_in = in_m | rest & ~loops", "may_in = in_m | rest", SOLVER_TESTS, survives=True),
    # The preferred search's prunes: (a) an attacker of IN nothing allowed can still defeat, (b) maximality.
    Mutant("preferred: no undefended-attacker prune", SOLVER,
           "        if threat & ~hit & ~_attacked_by(allowed, targets):\n            return\n", "", SOLVER_TESTS),
    Mutant("preferred: maximality prune against IN alone", SOLVER,
           "any(in_m | allowed | found == found for found in results)",
           "any(in_m | found == found for found in results)", SOLVER_TESTS),
    # The starting labelling: without the OUT mask the labelling search only prunes later, while the
    # IN/not-IN search counts every attacker of the grounded set as undefended by IN and prunes admissible sets.
    Mutant("complete: seeded with no OUT mask", SOLVER,
           "search(0, in_m, out_m, 0)", "search(0, in_m, 0, 0)", SOLVER_TESTS, survives=True),
    Mutant("preferred: seeded with no OUT mask", SOLVER,
           "search(0, in_m, out_m, _attacked_by(in_m, attackers)", "search(0, in_m, 0, _attacked_by(in_m, attackers)",
           SOLVER_TESTS),
]


def outcome(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``error (exit N)`` for one mutant, run in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mmarg-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        code = subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")


def main() -> int:
    outcomes = []
    for mutant in MUTANTS:
        got = outcome(mutant)
        expected = "survived" if mutant.survives else "killed"
        outcomes.append(got == expected)
        print(f"{got:9s} {'as expected' if got == expected else 'UNEXPECTED, expected ' + expected}  {mutant.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {outcomes.count(True)} as expected, {outcomes.count(False)} not")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())

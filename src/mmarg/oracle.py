"""Brute-force reference semantics, for cross-checking the solver.

Everything here works by enumerating all subsets of the argument set and
testing the defining clauses literally (conflict-freeness, defense of all
members, containment of everything defended); ``_conflict_free`` and
``_defends`` are the library's only statement of those clauses.  It is
intentionally naive and shares no enumeration code with
:mod:`mmarg.semantics`; disagreement between the two on any frame is a bug
in one of them.  Every frame is closed, so any frame of at most
:data:`MAX_ORACLE_ARGS` arguments is input.
"""

from __future__ import annotations

import itertools
import random

from .frames import ArgumentationFrame
from .semantics import ExtensionSet, SemanticsKind

MAX_ORACLE_ARGS = 20


def _conflict_free(s: frozenset[str], attacks: frozenset) -> bool:
    return not any(x in s and y in s for x, y in attacks)


def _defends(s: frozenset[str], a: str, attacks: frozenset) -> bool:
    attackers = [x for x, y in attacks if y == a]
    return all(any((z, x) in attacks for z in s) for x in attackers)


def _complete_subsets(f: ArgumentationFrame) -> list[frozenset[str]]:
    args = sorted(f.args)
    found = []
    for r in range(len(args) + 1):
        for combo in itertools.combinations(args, r):
            s = frozenset(combo)
            if not _conflict_free(s, f.attacks):
                continue
            if not all(_defends(s, a, f.attacks) for a in s):
                continue
            if any(_defends(s, a, f.attacks) for a in f.args if a not in s):
                continue
            found.append(s)
    return found


def oracle_semantics(kind: SemanticsKind, f: ArgumentationFrame) -> ExtensionSet:
    """Definition-literal semantics over all ``2**|args|`` candidate sets."""
    if len(f.args) > MAX_ORACLE_ARGS:
        raise ValueError(f"frame too large for the brute-force oracle (> {MAX_ORACLE_ARGS} args)")
    kind = SemanticsKind(kind)
    complete = _complete_subsets(f)
    if kind is SemanticsKind.COMPLETE:
        return frozenset(complete)
    if kind is SemanticsKind.PREFERRED:
        return frozenset(s for s in complete if not any(s < t for t in complete))
    grounded = frozenset(f.args)
    for s in complete:
        grounded &= s
    return frozenset({grounded})


def random_frame(rng: random.Random, n_args: int, density: float) -> ArgumentationFrame:
    """A frame over ``a1..aN`` where each ordered pair attacks with prob ``density``."""
    args = [f"a{i}" for i in range(1, n_args + 1)]
    attacks = {(x, y) for x in args for y in args if rng.random() < density}
    return ArgumentationFrame(frozenset(args), frozenset(attacks))

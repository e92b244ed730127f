"""Exact acceptability semantics for argumentation frames, all of them closed.

The grounded extension is the least fixpoint of the defense operator.
Every complete labelling (each argument accepted, rejected or undecided)
extends the grounded one, so :func:`semantics` computes that labelling
once: the grounded set accepted, everything it attacks rejected.  Both
searches start from it, take the arguments it leaves undecided in one
order, the most-attacking first, and share one refusal of frames too deep
to recurse through.  Complete extensions come from a three-valued
labelling search that checks each label's obligation when the argument is
labelled and again when its last possible supporting attacker is, so every
leaf is a complete labelling.  Preferred extensions, the maximal admissible
sets, come from an IN/not-IN search (Nofal, Atkinson and Dunne, AIJ 207,
2014).  All results are exact sets of extensions, never approximations.

The brute-force subset filter in :mod:`mmarg.oracle` re-derives the same
semantics straight from the definitions and deliberately shares none of
this code.
"""

from __future__ import annotations

import enum

from .frames import ArgumentationFrame

# A semantics value: a set of extensions, each a set of argument ids.
ExtensionSet = frozenset[frozenset[str]]


class SemanticsKind(str, enum.Enum):
    COMPLETE = "complete"
    PREFERRED = "preferred"
    GROUNDED = "grounded"


def _complete_masks(free: list[int], attackers: list[int], targets: list[int], in_m: int, out_m: int) -> list[int]:
    """All accepted-sets of legal complete labellings that extend the labelling ``in_m``/``out_m``, as
    bitmasks, labelling ``free`` in its order.  Each obligation is checked at the node where it can first
    fail, so every leaf is a complete labelling, whatever the order.  Accepting demands no self-attack and
    no accepted or undecided attacker/target so far; later neighbours can then be neither.  Rejecting
    demands an attacker that is accepted, or unassigned and not self-attacking.  Leaving undecided demands
    no accepted neighbour and an attacker that is undecided, itself, or unassigned.  An argument labelled
    otherwise than accepted may have been the last such attacker of a rejected or undecided target, so
    those targets are re-checked then.
    """
    loops = sum(1 << i for i in free if attackers[i] >> i & 1)
    # later[k]: the free arguments still unassigned once free[k] is labelled.
    later = [0] * len(free)
    for k in range(len(free) - 1, 0, -1):
        later[k - 1] = later[k] | 1 << free[k]
    results: list[int] = []

    def backed(m: int, support: int) -> bool:
        """Whether every argument of ``m`` has an attacker in ``support``."""
        while m:
            b = m & -m
            if not attackers[b.bit_length() - 1] & support:
                return False
            m ^= b
        return True

    def search(k: int, in_m: int, out_m: int, un_m: int) -> None:
        if k == len(free):
            results.append(in_m)
            return
        i = free[k]
        b = 1 << i
        att = attackers[i]
        tgt = targets[i]
        rest = later[k]
        if not att & b and not (att | tgt) & (in_m | un_m):
            search(k + 1, in_m | b, out_m, un_m)
        may_in = in_m | rest & ~loops
        if not backed(out_m & tgt, may_in):
            return
        if att & may_in and backed(un_m & tgt, un_m | rest):
            search(k + 1, in_m, out_m | b, un_m)
        if not (att | tgt) & in_m and att & (un_m | b | rest):
            search(k + 1, in_m, out_m, un_m | b)

    search(0, in_m, out_m, 0)
    return results


def _preferred_masks(free: list[int], attackers: list[int], targets: list[int], in_m: int, out_m: int) -> list[int]:
    """The maximal admissible sets containing the admissible set ``in_m``, which attacks ``out_m``: the
    preferred extensions, as bitmasks, deciding ``free`` in its order, IN before not-IN.  A node is pruned
    when an attacker of IN is attacked neither by IN nor by an argument still allowed IN (unassigned, not
    self-attacking, in no conflict with IN), or when IN and the allowed arguments fit in a set already
    found; so a superset is found before its subsets, and every leaf is maximal."""
    results: list[int] = []

    def search(k: int, in_m: int, hit: int, threat: int, allowed: int) -> None:
        if any(in_m | allowed | found == found for found in results):
            return
        if threat & ~hit & ~_attacked_by(allowed, targets):
            return
        while k < len(free) and not allowed >> free[k] & 1:
            k += 1
        if k == len(free):
            results.append(in_m)
            return
        i = free[k]
        search(k + 1, in_m | 1 << i, hit | targets[i], threat | attackers[i], allowed & ~(1 << i | targets[i] | attackers[i]))
        search(k + 1, in_m, hit, threat, allowed ^ 1 << i)

    search(0, in_m, out_m, _attacked_by(in_m, attackers), sum(1 << i for i in free if not attackers[i] >> i & 1))
    return results


def _grounded_mask(n: int, attackers: list[int], targets: list[int]) -> int:
    """Least fixpoint of the defense operator, iterated up from nothing."""
    in_m = 0
    while True:
        attacked = _attacked_by(in_m, targets)
        new_m = 0
        for i in range(n):
            if not attackers[i] & ~attacked:
                new_m |= 1 << i
        if new_m == in_m:
            return in_m
        in_m = new_m


def _attacked_by(in_m: int, targets: list[int]) -> int:
    """Everything some member of ``in_m`` attacks, as a bitmask."""
    attacked = 0
    while in_m:
        b = in_m & -in_m
        attacked |= targets[b.bit_length() - 1]
        in_m ^= b
    return attacked


def semantics(kind: SemanticsKind, f: ArgumentationFrame) -> ExtensionSet:
    """The complete, preferred (maximal admissible) or grounded extensions of ``f``, the grounded one
    wrapped as a one-member set.  This is the only way into the search.

    Every complete labelling, and so every preferred one, extends the grounded labelling: the grounded
    set is accepted, everything it attacks rejected.  Both searches start from it and take the arguments
    it leaves undecided in one order: most targets first, then fewest attackers, then index order.  Each
    recurses once per undecided argument; past the interpreter's recursion limit either one raises
    ``ValueError`` naming how many there are.
    """
    kind = SemanticsKind(kind)
    order = sorted(f.args)
    pos = {a: i for i, a in enumerate(order)}
    attackers = [0] * len(order)
    targets = [0] * len(order)
    for s, t in f.attacks:
        attackers[pos[t]] |= 1 << pos[s]
        targets[pos[s]] |= 1 << pos[t]
    g = _grounded_mask(len(order), attackers, targets)
    masks = [g]
    if kind is not SemanticsKind.GROUNDED:
        out_m = _attacked_by(g, targets)
        free = sorted((i for i in range(len(order)) if not (g | out_m) >> i & 1),
                      key=lambda i: (-targets[i].bit_count(), attackers[i].bit_count()))
        try:
            if free and kind is SemanticsKind.PREFERRED:
                masks = _preferred_masks(free, attackers, targets, g, out_m)
            elif free:
                masks = _complete_masks(free, attackers, targets, g, out_m)
        except RecursionError:
            msg = f"frame too deep to solve: {len(free)} undecided arguments exceed the recursion limit"
            raise ValueError(msg) from None
    return frozenset(frozenset(order[i] for i in range(len(order)) if m >> i & 1) for m in masks)


def sorted_extensions(exts: ExtensionSet) -> list[list[str]]:
    """Deterministic presentation order: lexicographic by sorted member ids."""
    return sorted([sorted(ext) for ext in exts])

"""Argumentation frames: finite directed attack graphs.

A frame is either closed (every attack has both endpoints among the
frame's arguments) or partial (an attack may dangle on one side, to be
completed by the frame it is merged into, as happens when an agent
announces an attack on an argument someone else put forward earlier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Attack = tuple[str, str]

DUNG = "dung"
PRE_DUNG = "pre-dung"

UNION = "union"
INTERSECTION = "intersection"


@dataclass(frozen=True)
class ArgumentationFrame:
    """A set of argument ids plus a directed attack relation over them.

    ``kind`` records which closure invariant holds: ``dung`` frames have
    both endpoints of every attack among ``args``; ``pre-dung`` frames only
    need one endpoint per attack inside ``args``.
    """

    args: frozenset[str]
    attacks: frozenset[Attack]
    kind: str = DUNG

    def __post_init__(self) -> None:
        args, kind = self.args, self.kind
        if kind not in (DUNG, PRE_DUNG):
            raise ValueError(f"unknown frame kind: {kind!r}")
        for a in args:
            if not isinstance(a, str) or not a:
                raise ValueError(f"argument ids must be nonempty strings, got {a!r}")
        if kind == DUNG:
            for s, t in self.attacks:
                if s not in args or t not in args:
                    raise ValueError(f"attack ({s},{t}) dangles outside a closed frame")
        else:
            for s, t in self.attacks:
                if s not in args and t not in args:
                    raise ValueError(f"attack ({s},{t}) touches no argument of the frame")

    @classmethod
    def of(cls, args: Iterable[str], attacks: Iterable[Attack] = (), kind: str = DUNG) -> ArgumentationFrame:
        return cls(frozenset(args), frozenset((s, t) for s, t in attacks), kind)

    def contains(self, other: ArgumentationFrame) -> bool:
        """Sub-frame test: ``other``'s arguments and attacks are all here."""
        return other.args <= self.args and other.attacks <= self.attacks

    def is_empty(self) -> bool:
        return not self.args and not self.attacks

    def sorted_args(self) -> list[str]:
        return sorted(self.args)

    def sorted_attacks(self) -> list[Attack]:
        return sorted(self.attacks)


EMPTY_FRAME = ArgumentationFrame(frozenset(), frozenset())


def restrict(f: ArgumentationFrame, keep: Iterable[str]) -> ArgumentationFrame:
    """Drop every argument outside ``keep`` and every attack that leaves the cut."""
    kept = f.args & frozenset(keep)
    attacks = frozenset((s, t) for s, t in f.attacks if s in kept and t in kept)
    return ArgumentationFrame(kept, attacks, DUNG)


def combine(f1: ArgumentationFrame, f2: ArgumentationFrame, op: str = UNION) -> ArgumentationFrame:
    """Pointwise union or intersection of two frames.

    The attack relation is combined first and then cut down to pairs whose
    endpoints both survive in the combined argument set, so the result is
    always a closed frame (this is what makes announcing a dangling attack
    into an existing public record well defined).  When the result equals
    a closed input, that input itself is returned: for a union, a closed
    frame that contains the other; for an intersection, a closed frame that
    lies inside the other.  The union or intersection of two closed frames
    is closed already, so only a pre-dung input needs the cut.
    """
    if op not in (UNION, INTERSECTION):
        raise ValueError(f"unknown combine op: {op!r}")
    union = op == UNION
    for a, b in ((f1, f2), (f2, f1)):
        if a.kind == DUNG and (a.contains(b) if union else b.contains(a)):
            return a
    if union:
        args = f1.args | f2.args
        attacks = f1.attacks | f2.attacks
    else:
        args = f1.args & f2.args
        attacks = f1.attacks & f2.attacks
    if f1.kind != DUNG or f2.kind != DUNG:
        attacks = frozenset((s, t) for s, t in attacks if s in args and t in args)
    return ArgumentationFrame(args, attacks, DUNG)

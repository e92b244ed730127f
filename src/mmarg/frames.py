"""Argumentation frames: finite directed attack graphs.

Every frame is closed: both endpoints of every attack are among the frame's
arguments, as in a Dung framework.  The one partial thing, an announcement
whose attack may land on an argument someone else put forward earlier, is
an :class:`AnnouncementEvent`, not a frame; both shapes check their ids by
one rule.  Frames grow by one union, :func:`combine`, and shrink by one cut,
:func:`restrict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Attack = tuple[str, str]


def _check_ids(args: Iterable[object]) -> None:
    """Raise ``ValueError`` naming the least (by ``repr``) argument id that is not a nonempty string."""
    for a in args:
        if not isinstance(a, str) or not a:
            least = min((b for b in args if not isinstance(b, str) or not b), key=repr)
            raise ValueError(f"argument ids must be nonempty strings, got {least!r}")


@dataclass(frozen=True)
class ArgumentationFrame:
    """A set of argument ids plus a directed attack relation over them."""

    args: frozenset[str]
    attacks: frozenset[Attack]

    def __post_init__(self) -> None:
        args = self.args
        _check_ids(args)
        for s, t in self.attacks:
            if s not in args or t not in args:
                s, t = min(((s, t) for s, t in self.attacks if s not in args or t not in args), key=repr)
                raise ValueError(f"attack ({s},{t}) dangles outside a closed frame")

    @classmethod
    def of(cls, args: Iterable[str], attacks: Iterable[Attack] = ()) -> ArgumentationFrame:
        return cls(frozenset(args), frozenset((s, t) for s, t in attacks))

    def contains(self, other: ArgumentationFrame | AnnouncementEvent) -> bool:
        """Sub-frame test: ``other``'s arguments and attacks are all here."""
        return other.args <= self.args and other.attacks <= self.attacks


@dataclass(frozen=True)
class AnnouncementEvent:
    """Arguments and attacks someone announces; announcers are reporting metadata.

    Every attack touches at least one announced argument; its other endpoint
    may be an argument already on the public record.
    """

    args: frozenset[str]
    attacks: frozenset[Attack]
    announcers: frozenset[str]

    def __post_init__(self) -> None:
        args = self.args
        _check_ids(args)
        for s, t in self.attacks:
            if s not in args and t not in args:
                s, t = min(((s, t) for s, t in self.attacks if s not in args and t not in args), key=repr)
                raise ValueError(f"attack ({s},{t}) touches no argument of the frame")
        if not self.announcers:
            raise ValueError("an announcement needs at least one announcer")

    @classmethod
    def of(cls, args: Iterable[str], attacks: Iterable[Attack], announcers: Iterable[str]) -> AnnouncementEvent:
        return cls(frozenset(args), frozenset((s, t) for s, t in attacks), frozenset(announcers))


def restrict(f: ArgumentationFrame, keep: Iterable[str]) -> ArgumentationFrame:
    """Drop every argument outside ``keep`` and every attack that leaves the cut."""
    kept = f.args & frozenset(keep)
    attacks = frozenset((s, t) for s, t in f.attacks if s in kept and t in kept)
    return ArgumentationFrame(kept, attacks)


def combine(f: ArgumentationFrame, other: ArgumentationFrame | AnnouncementEvent) -> ArgumentationFrame:
    """``f`` with ``other``'s arguments and attacks added (a closed frame); ``f`` itself when it holds them all."""
    if f.contains(other):
        return f
    return ArgumentationFrame(f.args | other.args, f.attacks | other.attacks)

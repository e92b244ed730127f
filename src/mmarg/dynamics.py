"""Announcement dynamics: expansion, deception/honesty detection, trust revision.

A public announcement is a partial frame merged into the global, public and
per-agent awareness frames.  After each announcement every ordered pair of
distinct agents runs detection: the viewer compares what the subject claims
publicly against what the viewer models the subject to actually conclude,
both restricted to the announced arguments from the subject's scope.
Disjoint restrictions certify deception; exact agreement on arguments the
viewer knows factual certifies honesty; anything else stays undetermined.
Detected verdicts move the trust matrix by a policy's step sizes.

:func:`step` is that whole replay step, done once: announce, the verdict
matrix on the announced state, trust revision.  :func:`update` is its
revised state and :func:`detect` one entry of its verdict matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable

from .frames import UNION, ArgumentationFrame, combine, restrict
from .semantics import ExtensionSet
from .state import (
    MmaState,
    Pair,
    Violation,
    trust_neutral_local_semantics,
    trust_neutral_public_semantics,
)


class Verdict(str, enum.Enum):
    HONEST = "honest"
    DISHONEST = "dishonest"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AnnouncementEvent:
    """A partial frame someone announces; announcers are reporting metadata."""

    payload: ArgumentationFrame
    announcers: frozenset[str]

    def __post_init__(self) -> None:
        if not self.announcers:
            raise ValueError("an announcement needs at least one announcer")

    @classmethod
    def of(cls, payload: ArgumentationFrame, announcers: Iterable[str]) -> AnnouncementEvent:
        return cls(payload, frozenset(announcers))


@dataclass(frozen=True)
class TrustPolicy:
    """Step sizes for trust revision; how large the steps are is a free choice."""

    delta_honest: int = 1
    delta_dishonest: int = 1

    def __post_init__(self) -> None:
        if self.delta_honest < 0 or self.delta_dishonest < 0:
            raise ValueError("trust deltas must be non-negative")


class AnnouncementError(ValueError):
    """Raised when an event fails the announcement preconditions."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def check_announcement(m: MmaState, ev: AnnouncementEvent) -> list[Violation]:
    """Definedness of an announcement against the current snapshot.

    No leak: once merged with the public record the payload is a closed
    frame, so no attack mentions an argument nobody has put on the table.
    No repetition: no announced attack already stands publicly, and the
    payload is not wholly contained in the public record (it must add
    something, otherwise the update would be the identity).  Payload
    arguments must be declared in the global frame: announcements may
    fabricate attacks, not arguments.
    """
    out: list[Violation] = []
    payload = ev.payload
    unknown_announcers = ev.announcers - m.agents
    if unknown_announcers:
        out.append(Violation("structure", f"unknown announcers {sorted(unknown_announcers)}"))
    undeclared = payload.args - m.global_af.args
    if undeclared:
        out.append(Violation("structure", f"payload arguments not declared globally: {sorted(undeclared)}"))
    on_table = payload.args | m.public_af.args
    for s, t in sorted(payload.attacks):
        if s not in on_table or t not in on_table:
            out.append(Violation("no leak", f"attack ({s},{t}) mentions an argument never announced"))
    for s, t in sorted(payload.attacks & m.public_af.attacks):
        out.append(Violation("no repetition", f"attack ({s},{t}) already stands publicly"))
    if m.public_af.contains(payload):
        out.append(Violation("no repetition", "payload adds nothing to the public record"))
    return out


def announce(m: MmaState, ev: AnnouncementEvent) -> tuple[MmaState, AnnouncementEvent, MmaState]:
    """Merge a valid announcement into a snapshot, returning (before, event, after).

    Global, public, every awareness frame and every override take the
    payload's union.  Each scope follows the new global frame: it keeps its
    arguments and holds every global attack among them, so an attack
    fabricated between two arguments of one scope lands there too.  Agents,
    semantics models, fact splits and trust stay put (trust moves only in
    revision).
    """
    violations = check_announcement(m, ev)
    if violations:
        raise AnnouncementError(violations)
    payload = ev.payload
    global_af = combine(m.global_af, payload, UNION)
    m2 = replace(
        m,
        global_af=global_af,
        public_af=combine(m.public_af, payload, UNION),
        scope={e: restrict(global_af, f.args) for e, f in m.scope.items()},
        aware={e: combine(f, payload, UNION) for e, f in m.aware.items()},
        overrides={pair: combine(f, payload, UNION) for pair, f in m.overrides.items()},
    )
    return m, ev, m2


def restrict_extensions(exts: ExtensionSet, keep: Iterable[str]) -> ExtensionSet:
    """Cut every extension down to ``keep``; coinciding cuts collapse."""
    keep = frozenset(keep)
    return frozenset(ext & keep for ext in exts)


def _verdict(m2: MmaState, viewer: str, subject: str, payload: ArgumentationFrame) -> Verdict:
    checked = payload.args & m2.scope[subject].args
    if not checked:
        # Nothing of the subject's own scope was announced: no evidence.
        return Verdict.UNDETERMINED
    src = restrict_extensions(trust_neutral_public_semantics(m2, viewer, subject), checked)
    tgt = restrict_extensions(trust_neutral_local_semantics(m2, viewer, subject), checked)
    if not src & tgt:
        return Verdict.DISHONEST
    if src == tgt and checked <= m2.intra[(viewer, subject)].factual:
        return Verdict.HONEST
    return Verdict.UNDETERMINED


def detect(m: MmaState, viewer: str, subject: str, ev: AnnouncementEvent) -> Verdict:
    """The viewer's verdict on the subject for one announcement.

    Both compared semantics are evaluated on the post-announcement snapshot:
    the public claim covers everything announced so far, the new event
    included.
    """
    if viewer not in m.agents or subject not in m.agents:
        raise ValueError(f"unknown agent pair ({viewer},{subject})")
    _, _, m2 = announce(m, ev)
    return _verdict(m2, viewer, subject, ev.payload)


def step(
    m: MmaState, ev: AnnouncementEvent, policy: TrustPolicy
) -> tuple[MmaState, dict[Pair, Verdict], MmaState]:
    """One replay step, returning (announced state, verdicts, revised state).

    The event is checked and merged once; every ordered pair of distinct
    agents is judged on the announced state; each verdict then shifts its
    pair's trust by the policy.  Revision moves trust and nothing else.
    Raises :class:`AnnouncementError` for an invalid event.
    """
    _, _, m2 = announce(m, ev)
    order = sorted(m.agents)
    verdicts = {
        (v, s): _verdict(m2, v, s, ev.payload)
        for v in order
        for s in order
        if v != s
    }
    trust = dict(m2.trust)
    for pair, verdict in verdicts.items():
        if verdict is Verdict.HONEST:
            trust[pair] += policy.delta_honest
        elif verdict is Verdict.DISHONEST:
            trust[pair] -= policy.delta_dishonest
    return m2, verdicts, replace(m2, trust=trust)


def update(m: MmaState, ev: AnnouncementEvent, policy: TrustPolicy = TrustPolicy()) -> MmaState:
    """Announcement followed by trust revision: the revised state of :func:`step`."""
    return step(m, ev, policy)[2]

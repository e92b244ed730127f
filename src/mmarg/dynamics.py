"""Announcement dynamics: expansion, deception/honesty detection, trust revision.

A public announcement, an :class:`AnnouncementEvent`, joins the global,
public and per-agent awareness frames; scopes are argument sets and stay.
After each announcement every ordered pair of distinct agents runs
detection: the viewer compares what the subject claims publicly against
what the viewer models the subject to actually conclude, both restricted to
the announced arguments from the subject's scope.  Disjoint restrictions
certify deception; exact agreement on arguments the viewer knows factual
certifies honesty; anything else stays undetermined.  Detected verdicts
move the trust matrix by a policy's step sizes.

:func:`step` is that whole replay step, done once: announce, the verdict
matrix on the announced state, trust revision; it is the only place a
verdict is computed, :func:`update` is its revised state, and
``scenario.run`` and ``scenario.state_at`` fold it.  Nothing is memoised:
every solve calls this module's ``semantics`` as it is bound at that
moment.  A pair whose viewer sees nothing of the subject's scope beyond the
public record models the subject by the public record itself, so the two
semantics agree: it is judged by the factual test alone and solves nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .frames import AnnouncementEvent, combine
from .semantics import semantics
from .preferences import adjust
from .state import MmaState, Pair, Violation, ViolationsError, _is_int, perceived, public_model


class Verdict(str, enum.Enum):
    HONEST = "honest"
    DISHONEST = "dishonest"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class TrustPolicy:
    """Integer step sizes for trust revision; how large the steps are is a free choice."""

    delta_honest: int = 1
    delta_dishonest: int = 1

    def __post_init__(self) -> None:
        if not (_is_int(self.delta_honest) and _is_int(self.delta_dishonest)):
            raise ValueError("trust deltas must be integers")
        if self.delta_honest < 0 or self.delta_dishonest < 0:
            raise ValueError("trust deltas must be non-negative")


class AnnouncementError(ViolationsError):
    """Raised when an event fails the announcement preconditions."""


def check_announcement(m: MmaState, ev: AnnouncementEvent) -> list[Violation]:
    """Definedness of an announcement against the current snapshot.

    No leak: once merged with the public record the event is a closed
    frame, so no attack mentions an argument nobody has put on the table.
    No repetition: no announced attack already stands publicly, and the
    event is not wholly contained in the public record (it must add
    something, otherwise the update would be the identity).  Announced
    arguments must be declared in the global frame: announcements may
    fabricate attacks, not arguments.
    """
    out: list[Violation] = []
    unknown_announcers = ev.announcers - m.agents
    if unknown_announcers:
        out.append(Violation("structure", f"unknown announcers {sorted(unknown_announcers)}"))
    undeclared = ev.args - m.global_af.args
    if undeclared:
        out.append(Violation("structure", f"payload arguments not declared globally: {sorted(undeclared)}"))
    on_table = ev.args | m.public_af.args
    for s, t in sorted(ev.attacks):
        if s not in on_table or t not in on_table:
            out.append(Violation("no leak", f"attack ({s},{t}) mentions an argument never announced"))
    for s, t in sorted(ev.attacks & m.public_af.attacks):
        out.append(Violation("no repetition", f"attack ({s},{t}) already stands publicly"))
    if m.public_af.contains(ev):
        out.append(Violation("no repetition", "payload adds nothing to the public record"))
    return out


def announce(m: MmaState, ev: AnnouncementEvent) -> MmaState:
    """Merge a valid announcement into a snapshot, returning the announced snapshot.

    Global, public, every awareness frame and every override grow by the
    event through :func:`~mmarg.frames.combine` (a frame that holds it all
    is kept).  Each contains the public record, so after the no-leak check
    each grown frame is closed; a hand-built state that breaks this nesting
    raises ``ValueError``.  Scopes, semantics models, fact splits and trust
    stay put (trust moves only in revision).
    """
    violations = check_announcement(m, ev)
    if violations:
        raise AnnouncementError(violations)
    return replace(
        m,
        global_af=combine(m.global_af, ev),
        public_af=combine(m.public_af, ev),
        aware={e: combine(f, ev) for e, f in m.aware.items()},
        overrides={pair: combine(f, ev) for pair, f in m.overrides.items()},
    )


def _verdict(m2: MmaState, viewer: str, subject: str, checked: frozenset[str]) -> Verdict:
    """Compare the trust-neutral public and local semantics on ``checked``.

    ``checked`` is the nonempty part of the subject's scope just announced.
    The viewer's model of the subject is built once.  When it is the public
    record, both frames are the same adjusted frame, whose semantics is
    never empty, so they agree and only the factual test decides; no
    adjusted frame is built and nothing is solved.
    """
    factual = m2.intra[(viewer, subject)]
    local = perceived(m2, viewer, subject)
    if local == m2.public_af:
        return Verdict.HONEST if checked <= factual else Verdict.UNDETERMINED
    kind = m2.sem_model[(viewer, subject)]
    src = {ext & checked for ext in semantics(kind, public_model(m2, viewer, subject))}
    tgt = {ext & checked for ext in semantics(kind, adjust(local, factual))}
    if not src & tgt:
        return Verdict.DISHONEST
    if src == tgt and checked <= factual:
        return Verdict.HONEST
    return Verdict.UNDETERMINED


def step(
    m: MmaState, ev: AnnouncementEvent, policy: TrustPolicy
) -> tuple[MmaState, dict[Pair, Verdict], MmaState]:
    """One replay step, returning (announced state, verdicts, revised state).

    The event is checked and merged once; every ordered pair of distinct
    agents is judged on the announced state; each verdict then shifts its
    pair's trust by the policy.  Revision moves trust and nothing else.
    Only subjects whose scope the event meets are judged: every verdict
    on any other subject is undetermined without building a frame.  A
    pair whose viewer's model of the subject is the public record is judged
    by the factual test alone, with no adjusted frame built and nothing
    solved.  Raises :class:`AnnouncementError` for an invalid event.
    """
    m2 = announce(m, ev)
    order = sorted(m.agents)
    checked = {s: ev.args & m2.scope[s] for s in order}
    verdicts = {
        (v, s): _verdict(m2, v, s, checked[s]) if checked[s] else Verdict.UNDETERMINED
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


def update(m: MmaState, ev: AnnouncementEvent, policy: TrustPolicy) -> MmaState:
    """Announcement followed by trust revision: the revised state of :func:`step`."""
    return step(m, ev, policy)[2]

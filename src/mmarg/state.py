"""Multi-agent argumentation state: scopes, awareness, opponent models.

An :class:`MmaState` snapshot carries the global argumentation, the public
record, per-agent scope and awareness frames, a semantics choice per
ordered agent pair, the fact/guess split each agent assumes per pair, and
the trust matrix.  Snapshots are immutable; announcement dynamics build new
ones (see :mod:`mmarg.dynamics`).

``validate`` reports structural violations as data rather than raising, so
a loader can list everything wrong with a scenario at once.  Every view a
state is read through is named in one table, :data:`VIEWS`, read by :func:`view`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .frames import DUNG, INTERSECTION, UNION, ArgumentationFrame, combine
from .preferences import IntraPreference, adjust, derive_inter
from .semantics import ExtensionSet, SemanticsKind, semantics

Pair = tuple[str, str]


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.condition}) {self.detail}"


@dataclass(frozen=True)
class MmaState:
    """One epistemic snapshot of a multi-agent argumentation.

    ``scope`` maps each agent to the sub-argumentation it owns, ``aware`` to
    everything it sees (own scope, public record, and whatever else it
    knows of others).  ``sem_model[(e1, e2)]`` is the semantics e1 assumes
    e2 applies; ``intra[(e1, e2)]`` is e1's model of e2's fact/guess split;
    ``trust[(e1, e2)]`` is the numeric trust e1 gives e2.  ``overrides``
    optionally pins e1's model of e2's argumentation to a concrete frame
    instead of the default lower bound.
    """

    global_af: ArgumentationFrame
    public_af: ArgumentationFrame
    agents: frozenset[str]
    scope: Mapping[str, ArgumentationFrame]
    aware: Mapping[str, ArgumentationFrame]
    sem_model: Mapping[Pair, SemanticsKind]
    intra: Mapping[Pair, IntraPreference]
    trust: Mapping[Pair, int]
    overrides: Mapping[Pair, ArgumentationFrame] = field(default_factory=dict)


def _pairs(agents: frozenset[str]) -> list[Pair]:
    order = sorted(agents)
    return [(v, s) for v in order for s in order]


def perceived_lower_bound(m: MmaState, viewer: str, subject: str) -> ArgumentationFrame:
    """Public record plus the part of the subject's scope the viewer sees."""
    shared = combine(m.aware[viewer], m.scope[subject], INTERSECTION)
    return combine(m.public_af, shared, UNION)


def validate(m: MmaState) -> list[Violation]:
    """All structural violations of the snapshot; empty means well formed.

    Conditions are named after what they guard: scope/awareness/public
    nesting, scope disjointness and attack faithfulness, factual arguments
    inside their holder's awareness, knowledge propagation of facts into
    their owner's scope, and the epistemic bounds on explicit
    opponent-model overrides.  The trust order between agents is derived
    on demand and needs no check here.
    """
    out: list[Violation] = []

    if m.global_af.kind != DUNG:
        out.append(Violation("structure", "global frame must be closed"))
    if not m.global_af.contains(m.public_af):
        out.append(Violation("structure", "public frame is not a sub-frame of the global frame"))

    for e in sorted(m.agents):
        for name, mapping in (("scope", m.scope), ("awareness", m.aware)):
            if e not in mapping:
                out.append(Violation("structure", f"agent {e} has no {name} frame"))
        if e not in m.scope or e not in m.aware:
            continue
        fe, fa = m.scope[e], m.aware[e]
        if fe.is_empty():
            out.append(Violation("structure", f"scope of {e} is the empty frame"))
        for name, fr in (("scope", fe), ("awareness", fa)):
            if not m.global_af.contains(fr):
                out.append(Violation("structure", f"{name} of {e} is not a sub-frame of the global frame"))
        induced = frozenset(
            (s, t) for s, t in m.global_af.attacks if s in fe.args and t in fe.args
        )
        if fe.attacks != induced:
            out.append(Violation("local scopes", f"scope attacks of {e} do not match the global frame restricted to the scope"))
        if not fa.contains(fe):
            out.append(Violation("local agent argumentation", f"awareness of {e} does not subsume the scope of {e}"))
        if not fa.contains(m.public_af):
            out.append(Violation("public subsumption", f"awareness of {e} does not subsume the public frame"))

    order = sorted(m.agents)
    for i, e1 in enumerate(order):
        for e2 in order[i + 1:]:
            if e1 in m.scope and e2 in m.scope:
                shared = m.scope[e1].args & m.scope[e2].args
                if shared:
                    out.append(Violation("local scopes", f"scopes of {e1} and {e2} share arguments {sorted(shared)}"))

    for pair in _pairs(m.agents):
        v, s = pair
        for name, mapping in (("semantics", m.sem_model), ("intra preference", m.intra), ("trust", m.trust)):
            if pair not in mapping:
                out.append(Violation("structure", f"no {name} entry for pair ({v},{s})"))
        if pair in m.intra and v in m.aware and not m.intra[pair].factual <= m.aware[v].args:
            out.append(Violation("partial order 1", f"factual({v},{s}) lists arguments outside {v}'s awareness"))

    # Facts about an argument propagate into its owner's own split and into
    # the knower's model of the owner.
    for knower in order:
        if (knower, knower) not in m.intra:
            continue
        known = m.intra[(knower, knower)].factual
        for owner in order:
            if owner not in m.scope:
                continue
            for a in sorted(known & m.scope[owner].args):
                if (owner, owner) in m.intra and a not in m.intra[(owner, owner)].factual:
                    out.append(Violation("knowledge", f"{knower} holds {a} factual but its owner {owner} does not"))
                if (knower, owner) in m.intra and a not in m.intra[(knower, owner)].factual:
                    out.append(Violation("knowledge", f"{knower} holds {a} factual but not in its model of {owner}"))

    for (v, s), om in sorted(m.overrides.items()):
        if v not in m.agents or s not in m.agents:
            out.append(Violation("structure", f"override ({v},{s}) names an unknown agent"))
            continue
        if v == s:
            if om != m.aware[v]:
                out.append(Violation("epistemic bounds", f"self override for {v} must equal its awareness frame"))
            continue
        lower = perceived_lower_bound(m, v, s)
        if not (om.contains(lower) and m.aware[v].contains(om)):
            out.append(Violation("epistemic bounds", f"override ({v},{s}) escapes its epistemic bounds"))

    return out


def perceived(m: MmaState, viewer: str, subject: str) -> ArgumentationFrame:
    """The viewer's model of the subject's argumentation.

    Exactly the viewer's own awareness when looking at itself; otherwise an
    explicit override if the snapshot carries one, else the lower bound.
    """
    if viewer not in m.agents or subject not in m.agents:
        raise ValueError(f"unknown agent pair ({viewer},{subject})")
    if viewer == subject:
        return m.aware[viewer]
    if (viewer, subject) in m.overrides:
        return m.overrides[(viewer, subject)]
    return perceived_lower_bound(m, viewer, subject)


def adjusted_perceived(m: MmaState, viewer: str, subject: str) -> ArgumentationFrame:
    """The perceived frame with the viewer's fact split for the subject applied."""
    return adjust(perceived(m, viewer, subject), m.intra[(viewer, subject)])


def public_model(m: MmaState, viewer: str, subject: str) -> ArgumentationFrame:
    """The public record as the viewer reads it on the subject's behalf."""
    if viewer not in m.agents or subject not in m.agents:
        raise ValueError(f"unknown agent pair ({viewer},{subject})")
    return adjust(m.public_af, m.intra[(viewer, subject)])


def trust_adjusted_public_model(m: MmaState, e: str) -> ArgumentationFrame:
    """The agent's own public model with its trust order applied on top."""
    return adjust(public_model(m, e, e), derive_inter(m, e))


def trust_neutral_public_semantics(m: MmaState, viewer: str, subject: str) -> ExtensionSet:
    """What the viewer takes the subject to be claiming publicly."""
    return semantics(m.sem_model[(viewer, subject)], public_model(m, viewer, subject))


def trust_neutral_local_semantics(m: MmaState, viewer: str, subject: str) -> ExtensionSet:
    """What the viewer takes the subject to actually conclude locally."""
    return semantics(m.sem_model[(viewer, subject)], adjusted_perceived(m, viewer, subject))


def trust_adjusted_public_semantics(m: MmaState, e: str) -> ExtensionSet:
    """The agent's public acceptance once trust breaks residual conflicts."""
    return semantics(m.sem_model[(e, e)], trust_adjusted_public_model(m, e))


# Every named view of a state, keyed by (name, number of agents it takes).
# Entries look their accessor up by name at call time, so a caller that
# rebinds a module attribute (a tracer, a test double) sees every call.
VIEWS: dict[tuple[str, int], Callable[..., ArgumentationFrame]] = {
    ("public", 0): lambda m: m.public_af,
    ("global", 0): lambda m: m.global_af,
    ("public", 2): lambda m, v, s: public_model(m, v, s),
    ("local", 2): lambda m, v, s: adjusted_perceived(m, v, s),
    ("trust-adjusted", 1): lambda m, e: trust_adjusted_public_model(m, e),
    ("aware", 1): lambda m, e: m.aware[e],
    ("perceived", 2): lambda m, v, s: perceived(m, v, s),
    ("adjusted", 2): lambda m, v, s: adjusted_perceived(m, v, s),
}


def view(m: MmaState, name: str, *agents: str) -> ArgumentationFrame:
    """The frame of the view ``name`` of :data:`VIEWS` for ``agents``.

    ``trust_adjusted`` reads as ``trust-adjusted``; an unknown view or agent raises ``ValueError``.
    """
    fn = VIEWS.get((name.replace("_", "-"), len(agents)))
    if fn is None:
        raise ValueError(f"unknown view {name!r} for {len(agents)} agent(s)")
    for e in agents:
        if e not in m.agents:
            raise ValueError(f"unknown agent {e!r}")
    return fn(m, *agents)

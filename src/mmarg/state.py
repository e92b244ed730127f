"""Multi-agent argumentation state: scopes, awareness, opponent models.

An :class:`MmaState` snapshot carries the global argumentation, the public
record, per-agent scopes (argument sets) and awareness frames, a semantics
choice per ordered agent pair, the fact/guess split each agent assumes per
pair (the set of arguments it holds factual), and the trust matrix.  An
agent's local argumentation is the global frame restricted to its scope,
derived where needed.  Snapshots are immutable; announcement dynamics build
new ones (see :mod:`mmarg.dynamics`).

``validate`` reports structural violations as data rather than raising, so
a loader can list everything wrong with a scenario at once.  Every view a
state is read through is named in one table, :data:`VIEWS`, read by :func:`view`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, KeysView, Mapping

from .frames import ArgumentationFrame, combine, restrict
from .preferences import adjust, derive_inter
from .semantics import SemanticsKind

Pair = tuple[str, str]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str

    def __str__(self) -> str:
        return f"({self.condition}) {self.detail}"


class ViolationsError(ValueError):
    """Every :class:`Violation` found at once; the message joins them with ``; ``."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class MmaState:
    """One epistemic snapshot of a multi-agent argumentation.

    ``scope`` maps each agent to the arguments it owns; its keys are the
    agents, read through :attr:`agents`.  ``aware`` maps each agent to the
    frame of all it sees (its local argumentation, the public record, and
    whatever else it knows of others).  ``sem_model[(e1, e2)]`` is the
    semantics e1 assumes e2 applies; ``intra[(e1, e2)]`` is the set of
    arguments e1 holds factual in its model of e2; ``trust[(e1, e2)]`` is
    the numeric trust e1 gives e2.  ``overrides`` optionally pins e1's model
    of e2's argumentation to a concrete frame instead of the default lower
    bound.
    """

    global_af: ArgumentationFrame
    public_af: ArgumentationFrame
    scope: Mapping[str, frozenset[str]]
    aware: Mapping[str, ArgumentationFrame]
    sem_model: Mapping[Pair, SemanticsKind]
    intra: Mapping[Pair, frozenset[str]]
    trust: Mapping[Pair, int]
    overrides: Mapping[Pair, ArgumentationFrame] = field(default_factory=dict)

    @property
    def agents(self) -> KeysView[str]:
        return self.scope.keys()

    def require_agents(self, *agents: str) -> None:
        """Raise ``ValueError`` naming the first of ``agents`` that is not an agent of this state."""
        for e in agents:
            if e not in self.scope:
                raise ValueError(f"unknown agent {e!r}")


def perceived_lower_bound(m: MmaState, viewer: str, subject: str) -> ArgumentationFrame:
    """The public record joined with the viewer's awareness restricted to the subject's scope.

    That is the public record itself when the part seen is public, attacks included."""
    aware, public_af = m.aware[viewer], m.public_af
    seen = aware.args & m.scope[subject]
    if seen <= public_af.args and not any(s in seen and t in seen for s, t in aware.attacks - public_af.attacks):
        return public_af
    return combine(public_af, restrict(aware, seen))


def validate(m: MmaState) -> list[Violation]:
    """All structural violations of the snapshot; empty means well formed.

    Conditions are named after what they guard: scope/awareness/public
    nesting, scopes that partition the global frame, factual arguments
    inside their holder's awareness, knowledge propagation of facts into
    their owner's scope, and the epistemic bounds on explicit
    opponent-model overrides.  Trust entries are integers (not ``bool``);
    the trust order between agents is derived on demand and needs no check.
    """
    out: list[Violation] = []

    if not m.global_af.contains(m.public_af):
        out.append(Violation("structure", "public frame is not a sub-frame of the global frame"))

    order = sorted(m.agents)
    for e in order:
        if e not in m.aware:
            out.append(Violation("structure", f"agent {e} has no awareness"))
            continue
        fe, fa = m.scope[e], m.aware[e]
        if not fe:
            out.append(Violation("structure", f"scope of {e} is empty"))
        if not fe <= m.global_af.args:
            out.append(Violation("structure", f"scope of {e} lists arguments outside the global frame"))
        if not m.global_af.contains(fa):
            out.append(Violation("structure", f"awareness of {e} is not a sub-frame of the global frame"))
        if not fa.contains(restrict(m.global_af, fe)):
            out.append(Violation("local agent argumentation", f"awareness of {e} does not subsume the local argumentation of {e}"))
        if not fa.contains(m.public_af):
            out.append(Violation("public subsumption", f"awareness of {e} does not subsume the public frame"))

    for i, e1 in enumerate(order):
        for e2 in order[i + 1:]:
            shared = m.scope[e1] & m.scope[e2]
            if shared:
                out.append(Violation("local scopes", f"scopes of {e1} and {e2} share arguments {sorted(shared)}"))
    uncovered = m.global_af.args.difference(*m.scope.values())
    if uncovered:
        out.append(Violation("local scopes", f"arguments {sorted(uncovered)} of the global frame lie in no scope"))

    for pair in itertools.product(order, repeat=2):
        v, s = pair
        for name, mapping in (("semantics", m.sem_model), ("intra preference", m.intra), ("trust", m.trust)):
            if pair not in mapping:
                out.append(Violation("structure", f"no {name} entry for pair ({v},{s})"))
        if pair in m.trust and not _is_int(m.trust[pair]):
            out.append(Violation("structure", f"trust({v},{s}) = {m.trust[pair]!r} is not an integer"))
        if pair in m.intra and v in m.aware and not m.intra[pair] <= m.aware[v].args:
            out.append(Violation("partial order 1", f"factual({v},{s}) lists arguments outside {v}'s awareness"))

    # Facts about an argument propagate into its owner's own split and into
    # the knower's model of the owner.
    for knower in order:
        if (knower, knower) not in m.intra:
            continue
        known = m.intra[(knower, knower)]
        for owner in order:
            for a in sorted(known & m.scope[owner]):
                if (owner, owner) in m.intra and a not in m.intra[(owner, owner)]:
                    out.append(Violation("knowledge", f"{knower} holds {a} factual but its owner {owner} does not"))
                if (knower, owner) in m.intra and a not in m.intra[(knower, owner)]:
                    out.append(Violation("knowledge", f"{knower} holds {a} factual but not in its model of {owner}"))

    for (v, s), om in sorted(m.overrides.items()):
        if v not in m.agents or s not in m.agents:
            out.append(Violation("structure", f"override ({v},{s}) names an unknown agent"))
            continue
        if v not in m.aware:  # reported above as "agent {v} has no awareness"
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
    m.require_agents(viewer, subject)
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
    m.require_agents(viewer, subject)
    return adjust(m.public_af, m.intra[(viewer, subject)])


def trust_adjusted_public_model(m: MmaState, e: str) -> ArgumentationFrame:
    """The agent's own public model with its trust order applied on top.

    The trust order ranks no argument the agent holds factual, so it reverses
    no attack the fact split reverses or creates: one ``adjust`` given both
    builds the frame that adjusting by one and then the other would.
    """
    strict = derive_inter(m, e)  # first, so an unknown agent is reported before ``intra`` is read
    return adjust(m.public_af, m.intra[(e, e)], strict)


# Every named view of a state, keyed by (name, number of agents it takes).
# Entries look their accessor up by name at call time, so a caller that
# rebinds a module attribute (a tracer, a test double) sees every call.
# Each accessor rejects an unknown agent itself.
VIEWS: dict[tuple[str, int], Callable[..., ArgumentationFrame]] = {
    ("public", 0): lambda m: m.public_af,
    ("global", 0): lambda m: m.global_af,
    ("public", 2): lambda m, v, s: public_model(m, v, s),
    ("local", 2): lambda m, v, s: adjusted_perceived(m, v, s),
    ("trust-adjusted", 1): lambda m, e: trust_adjusted_public_model(m, e),
    ("aware", 1): lambda m, e: perceived(m, e, e),
    ("perceived", 2): lambda m, v, s: perceived(m, v, s),
}


def view(m: MmaState, name: str, *agents: str) -> ArgumentationFrame:
    """The frame of the view ``name`` of :data:`VIEWS` for ``agents``; an unknown view or agent raises ``ValueError``."""
    fn = VIEWS.get((name, len(agents)))
    if fn is None:
        raise ValueError(f"unknown view {name!r} for {len(agents)} agent(s)")
    return fn(m, *agents)

"""Preferences over arguments and attack reversal.

Two kinds of preference matter here.  An agent's own fact/guess split (one
tier of arguments it knows to be factual, every other argument below)
drives spurious attack elimination before any reasoning; a trust-derived
order between other agents' publicly conflicting arguments breaks ties the
facts cannot.  Both act the same way, as in preference-based argumentation
frameworks: an attack coming out of a strictly less preferred argument is
reversed.  So each preference only answers ``strictly_less(a, b)``, which
``adjust`` asks once per attack; no order is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .frames import Attack, ArgumentationFrame

if TYPE_CHECKING:  # pragma: no cover
    from .state import MmaState


@dataclass(frozen=True)
class IntraPreference:
    """Binary fact/non-fact split: ``factual`` sits at the top tier, every
    other argument at the bottom; the two tiers are the only strict comparison.

    The split ranges over whatever frame it is applied to.  That ``factual``
    lies inside the holder's awareness is a condition on the state, checked
    by :func:`mmarg.state.validate`.
    """

    factual: frozenset[str]

    @classmethod
    def of(cls, factual: Iterable[str]) -> IntraPreference:
        return cls(frozenset(factual))

    def strictly_less(self, a: str, b: str) -> bool:
        return b in self.factual and a not in self.factual


@dataclass(frozen=True)
class InterPreference:
    """Trust-derived order for one observer, kept as its strict pairs only."""

    owner: str
    strict: frozenset[Attack]

    def strictly_less(self, a: str, b: str) -> bool:
        return (a, b) in self.strict


def adjust(f: ArgumentationFrame, order: IntraPreference | InterPreference) -> ArgumentationFrame:
    """Reverse every attack whose source is strictly less preferred than its target.

    The argument set never changes; a reversed attack may coincide with an
    existing opposite attack, in which case the pair collapses to one edge.
    """
    attacks = frozenset(
        (t, s) if order.strictly_less(s, t) else (s, t) for s, t in f.attacks
    )
    return ArgumentationFrame(f.args, attacks, f.kind)


def derive_inter(m: "MmaState", e: str) -> InterPreference:
    """The trust order of agent ``e`` over mutually conflicting public arguments.

    A pair of arguments qualifies when they attack each other publicly, each
    lies in some agent's scope and inside ``e``'s awareness, and ``e`` holds
    neither to be factual; the argument of the strictly less trusted owner
    then sits below the other's, and equally trusted owners leave the pair
    unordered.  Recomputed on demand: both the public record and the trust
    matrix move under updates.
    """
    if e not in m.agents:
        raise ValueError(f"unknown agent: {e!r}")
    owner: dict[str, str] = {}
    for agent in m.agents:
        for a in m.scope[agent].args:
            owner[a] = agent
    aware_args = m.aware[e].args
    factual = m.intra[(e, e)].factual
    pub = m.public_af.attacks
    strict = set()
    for a1, a2 in pub:
        if (a2, a1) not in pub:
            continue
        if a1 not in owner or a2 not in owner:
            continue
        if a1 not in aware_args or a2 not in aware_args:
            continue
        if a1 in factual or a2 in factual:
            continue
        if m.trust[(e, owner[a1])] < m.trust[(e, owner[a2])]:
            strict.add((a1, a2))
    return InterPreference(e, frozenset(strict))

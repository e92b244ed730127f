"""Preferences over arguments and attack reversal.

Two kinds of preference matter here.  An agent's own fact/guess split, the
frozenset of arguments it holds factual, drives spurious attack elimination
before any reasoning; a trust-derived order, the frozenset of its strict
``(lower, higher)`` pairs, breaks ties between other agents' publicly
conflicting arguments that the facts cannot.  Both act the same way, as in
preference-based argumentation frameworks: ``adjust`` reverses an attack
coming out of a strictly less preferred argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .frames import Attack, ArgumentationFrame

if TYPE_CHECKING:  # pragma: no cover
    from .state import MmaState


def adjust(f: ArgumentationFrame, factual: frozenset[str], strict: frozenset[Attack] = frozenset()) -> ArgumentationFrame:
    """Reverse every attack whose source is strictly less preferred than its target.

    ``s`` sits below ``t`` when ``t`` is factual and ``s`` is not, or when
    ``(s, t)`` is one of the ``strict`` pairs.  The argument set never
    changes; a reversed attack may coincide with an existing opposite attack,
    in which case the pair collapses to one edge.  When no attack is
    reversed, ``f`` itself is returned.
    """
    flipped = [(s, t) for s, t in f.attacks if t in factual and s not in factual or (s, t) in strict]
    if not flipped:
        return f
    attacks = f.attacks.difference(flipped).union([(t, s) for s, t in flipped])
    return ArgumentationFrame(f.args, attacks)


def derive_inter(m: "MmaState", e: str) -> frozenset[Attack]:
    """The strict pairs of agent ``e``'s trust order over mutually conflicting public arguments.

    A pair of arguments qualifies when they attack each other publicly and
    ``e`` holds neither to be factual (both lie in ``e``'s awareness by public
    subsumption, checked once, by :func:`~mmarg.state.validate`); the argument
    of the strictly less trusted owner (every argument of a valid state has
    exactly one) then sits below the other's, and equally trusted owners leave
    the pair unordered.  Recomputed on demand: both the public record and the
    trust matrix move under updates.
    """
    m.require_agents(e)
    factual = m.intra[(e, e)]
    pub = m.public_af.attacks
    owner = {a: agent for agent in m.agents for a in m.scope[agent]}
    strict = set()
    for a1, a2 in pub:
        if (a2, a1) not in pub:
            continue
        if a1 in factual or a2 in factual:
            continue
        if m.trust[(e, owner[a1])] < m.trust[(e, owner[a2])]:
            strict.add((a1, a2))
    return frozenset(strict)

"""DOT export of a state's views, for standard graph renderers.

One node per argument, one directed edge per attack; publicly announced
arguments are drawn filled and each agent's scope arguments are grouped in
a cluster.  A selector is a view name from :data:`mmarg.state.VIEWS`
followed by its agents, separated by colons (``adjusted:e2:e1``).
"""

from __future__ import annotations

from .frames import ArgumentationFrame
from .state import MmaState, view


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(m: MmaState, frame: ArgumentationFrame, labels: dict[str, str] | None = None, title: str = "attacks") -> str:
    """Render one frame of a state as a DOT digraph."""
    labels = labels or {}
    lines = [f"digraph {_quote(title)} {{", "  rankdir=LR;", "  node [shape=ellipse];"]
    grouped: set[str] = set()
    for e in sorted(m.agents):
        members = sorted(frame.args & m.scope[e].args)
        if not members:
            continue
        grouped.update(members)
        lines.append(f"  subgraph {_quote('cluster_' + e)} {{")
        lines.append(f"    label={_quote('scope ' + e)};")
        for a in members:
            lines.append("    " + _node_line(a, labels.get(a, ""), a in m.public_af.args))
        lines.append("  }")
    for a in sorted(frame.args - grouped):
        lines.append("  " + _node_line(a, labels.get(a, ""), a in m.public_af.args))
    for s, t in frame.sorted_attacks():
        lines.append(f"  {_quote(s)} -> {_quote(t)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_line(arg: str, label: str, public: bool) -> str:
    text = f"{arg}: {label}" if label else arg
    attrs = [f"label={_quote(text)}"]
    if public:
        attrs.append("style=filled")
        attrs.append("fillcolor=lightgoldenrod")
    return f"{_quote(arg)} [{', '.join(attrs)}];"


def export_graph(m: MmaState, selector: str, labels: dict[str, str] | None = None) -> str:
    name, *agents = selector.split(":")
    return to_dot(m, view(m, name, *agents), labels, title=selector)

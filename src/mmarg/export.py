"""DOT export of a state's views, for standard graph renderers.

One node per argument, one directed edge per attack; publicly announced
arguments are drawn filled, and each argument sits in the cluster of the one
scope that holds it (:func:`mmarg.state.validate` checks there is one).  A
selector is a view name from :data:`mmarg.state.VIEWS` followed by its
agents, separated by colons (``local:e2:e1``).
"""

from __future__ import annotations

from .state import MmaState, view


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(m: MmaState, selector: str, labels: dict[str, str] | None = None) -> str:
    """Render the view ``selector`` names of a state as a DOT digraph titled by the selector."""
    name, *agents = selector.split(":")
    frame = view(m, name, *agents)
    labels = labels or {}
    lines = [f"digraph {_quote(selector)} {{", "  rankdir=LR;", "  node [shape=ellipse];"]
    for e in sorted(m.agents):
        members = sorted(frame.args & m.scope[e])
        if not members:
            continue
        lines.append(f"  subgraph {_quote('cluster_' + e)} {{")
        lines.append(f"    label={_quote('scope ' + e)};")
        for a in members:
            text = f"{a}: {labels[a]}" if labels.get(a) else a
            fill = ", style=filled, fillcolor=lightgoldenrod" if a in m.public_af.args else ""
            lines.append(f"    {_quote(a)} [label={_quote(text)}{fill}];")
        lines.append("  }")
    for s, t in sorted(frame.attacks):
        lines.append(f"  {_quote(s)} -> {_quote(t)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

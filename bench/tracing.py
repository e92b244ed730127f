"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each layer by rebinding
every ``mmarg`` module attribute that refers to them (the defining module
and each module that imported the name), so calls between layers and
within a layer both pass through a wrapper.  Nothing under ``src/``
changes.  Each call records a span (name, start, end, parent) in flat
in-memory arrays; ``write()`` dumps them as TSV when the run ends.

A span's self time is its duration minus the time its direct children
cover; a name's busy time is the total duration of its outermost spans.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from array import array
from pathlib import Path

from reference import rebound

# (span name, defining module, attribute)
TARGETS = (
    ("cli.main", "mmarg.cli", "main"),
    ("cli.build_parser", "mmarg.cli", "build_parser"),
    ("scenario.load", "mmarg.scenario", "load_scenario"),
    ("scenario.validate", "mmarg.state", "validate"),
    ("scenario.state_at", "mmarg.scenario", "state_at"),
    ("scenario.run", "mmarg.scenario", "run"),
    ("scenario.dumps_trace", "mmarg.scenario", "dumps_trace"),
    ("scenario.query", "mmarg.scenario", "query"),
    ("dynamics.update", "mmarg.dynamics", "update"),
    ("dynamics.announce", "mmarg.dynamics", "announce"),
    ("dynamics.detection_matrix", "mmarg.dynamics", "detection_matrix"),
    ("dynamics.check_announcement", "mmarg.dynamics", "check_announcement"),
    ("state.public_model", "mmarg.state", "public_model"),
    ("state.adjusted_perceived", "mmarg.state", "adjusted_perceived"),
    ("state.trust_adjusted_public_model", "mmarg.state", "trust_adjusted_public_model"),
    ("preferences.adjust", "mmarg.preferences", "adjust"),
    ("preferences.derive_inter", "mmarg.preferences", "derive_inter"),
    ("frames.combine", "mmarg.frames", "combine"),
    ("semantics", "mmarg.semantics", "semantics"),
    ("export.export_graph", "mmarg.export", "export_graph"),
)
OP = "op"
# Classes whose ``to_order`` builds the strict pairs counted as preferences.order_pairs.
ORDER_CLASSES = (("mmarg.preferences", "IntraPreference"), ("mmarg.preferences", "InterPreference"))


class Tracer:
    def __init__(self) -> None:
        self.names = [OP] + [t[0] for t in TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an ancestor span has the same name
        self.stack: list[int] = []
        self.depth = [0] * len(self.names)
        self.sem_kind: dict[int, str] = {}
        self.sem_keys: set = set()
        self.extensions = 0
        self.order_pairs = 0
        self.replayed_steps = 0

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.nested.append(1 if self.depth[nid] else 0)
        self.end.append(0.0)
        self.depth[nid] += 1
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[self.span_name[idx]] -= 1

    def span(self, name: str, fn):
        nid = self.name_id[name]
        if name == "semantics":
            return self._semantics_wrapper(nid, fn)
        opened, closed = self._open, self._close
        counts_steps = name in ("scenario.run", "scenario.state_at")

        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if counts_steps:
                self.replayed_steps += _steps(name, args, kwargs, result)
            return result

        return wrapper

    def _semantics_wrapper(self, nid: int, fn):
        opened, closed = self._open, self._close

        def wrapper(kind, f):
            idx = opened(nid)
            try:
                result = fn(kind, f)
            finally:
                closed(idx)
            label = str(getattr(kind, "value", kind))
            self.sem_kind[idx] = label
            self.sem_keys.add((label, f))
            self.extensions += len(result)
            return result

        return wrapper

    def _order_wrapper(self, fn):
        def to_order(pref):
            order = fn(pref)
            self.order_pairs += len(order.strict)
            return order
        return to_order

    def run_op(self, call):
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def install(self):
        """Keep the wrappers in place for the duration of the block."""
        replacements = {}
        for name, module, attr in TARGETS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None:
                replacements[fn] = self.span(name, fn)
        classes = []
        for module, cls_name in ORDER_CLASSES:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is not None and "to_order" in vars(cls):
                classes.append((cls, vars(cls)["to_order"]))
        with rebound(replacements):
            for cls, fn in classes:
                setattr(cls, "to_order", self._order_wrapper(fn))
            try:
                yield self
            finally:
                for cls, fn in classes:
                    setattr(cls, "to_order", fn)

    # -- reporting ---------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, float]:
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        by_kind = {"complete": 0.0, "preferred": 0.0, "grounded": 0.0}
        solves = []
        update_in_state_at = 0
        sid, uid, sem = self.name_id["scenario.state_at"], self.name_id["dynamics.update"], self.name_id["semantics"]
        for i in range(n):
            nid = self.span_name[i]
            d = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += d - covered[i]
            if not self.nested[i]:
                busy[nid] += d
            if nid == sem:
                solves.append(d)
                kind = self.sem_kind.get(i, "")
                by_kind[kind] = by_kind.get(kind, 0.0) + d
            elif nid == uid and self.parent[i] >= 0 and self.span_name[self.parent[i]] == sid:
                update_in_state_at += 1

        def get(table, name):
            return table[self.name_id[name]]

        op_busy = busy[0]
        sem_calls = calls[sem]
        return {
            "cli.main.calls": get(calls, "cli.main"),
            "cli.main.self_s": get(self_s, "cli.main"),
            "cli.build_parser.busy_s": get(busy, "cli.build_parser"),
            "scenario.load.calls": get(calls, "scenario.load"),
            "scenario.load.busy_s": get(busy, "scenario.load"),
            "scenario.validate.busy_s": get(busy, "scenario.validate"),
            "scenario.state_at.calls": get(calls, "scenario.state_at"),
            "scenario.state_at.busy_s": get(busy, "scenario.state_at"),
            "scenario.state_at.update_calls": update_in_state_at,
            "scenario.run.self_s": get(self_s, "scenario.run"),
            "scenario.dumps_trace.busy_s": get(busy, "scenario.dumps_trace"),
            "scenario.query.busy_s": get(busy, "scenario.query"),
            "dynamics.announce.calls": get(calls, "dynamics.announce"),
            "dynamics.announce.per_step": get(calls, "dynamics.announce") / self.replayed_steps if self.replayed_steps else 0.0,
            "dynamics.announce.self_s": get(self_s, "dynamics.announce"),
            "dynamics.detection_matrix.calls": get(calls, "dynamics.detection_matrix"),
            "dynamics.detection_matrix.self_s": get(self_s, "dynamics.detection_matrix"),
            "dynamics.check_announcement.busy_s": get(busy, "dynamics.check_announcement"),
            "state.public_model.self_s": get(self_s, "state.public_model"),
            "state.adjusted_perceived.self_s": get(self_s, "state.adjusted_perceived"),
            "state.trust_adjusted_public_model.self_s": get(self_s, "state.trust_adjusted_public_model"),
            "preferences.adjust.calls": get(calls, "preferences.adjust"),
            "preferences.adjust.self_s": get(self_s, "preferences.adjust"),
            "preferences.order_pairs": self.order_pairs,
            "preferences.derive_inter.self_s": get(self_s, "preferences.derive_inter"),
            "frames.combine.calls": get(calls, "frames.combine"),
            "frames.combine.self_s": get(self_s, "frames.combine"),
            "semantics.calls": sem_calls,
            "semantics.busy_s": busy[sem],
            "semantics.share": busy[sem] / op_busy if op_busy else 0.0,
            "semantics.distinct_ratio": len(self.sem_keys) / sem_calls if sem_calls else 0.0,
            "semantics.extensions": self.extensions,
            "semantics.complete.busy_s": by_kind["complete"],
            "semantics.preferred.busy_s": by_kind["preferred"],
            "semantics.grounded.busy_s": by_kind["grounded"],
            "semantics.solve_p50_ms": statistics.median(solves) * 1e3 if solves else 0.0,
            "semantics.solve_max_ms": max(solves) * 1e3 if solves else 0.0,
            "export.export_graph.busy_s": get(busy, "export.export_graph"),
            "trace.overhead": overhead,
        }

    def write(self, path: Path) -> None:
        """Dump every span as ``id  name  parent  start  end`` TSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        lines = ["id\tname\tparent\tstart_s\tend_s"]
        for i in range(len(self.start)):
            lines.append(
                f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t"
                f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _steps(name: str, args: tuple, kwargs: dict, result) -> int:
    """Script steps a replay entry point announced."""
    if name == "scenario.state_at":
        return int(args[1] if len(args) > 1 else kwargs["step"])
    return len(result.steps)

"""Scenario files, script replay and queries.

A scenario is one JSON document: the argument roster (with owners and
display labels), the global attacks, per-agent scopes and awareness, the
semantics matrix, the fact splits per ordered pair, the trust matrix,
optional opponent-model overrides, the announcement script and the trust
policy.  Labels are presentation only and never influence semantics.

Replaying the script yields a :class:`Trace` that records, per step, the
event, what it added publicly and globally, the verdict matrix, and the
trust matrices before and after revision.  Replays are deterministic and
the serialized trace is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Any, IO, Mapping

from .dynamics import AnnouncementError, AnnouncementEvent, TrustPolicy, Verdict, step, update
from .frames import DUNG, PRE_DUNG, ArgumentationFrame
from .preferences import IntraPreference
from .semantics import ExtensionSet, SemanticsKind, semantics, sorted_extensions
from .state import (
    VIEWS,
    MmaState,
    Pair,
    Violation,
    trust_adjusted_public_semantics,
    validate,
)
from . import state

# Largest |trust| a scenario document may state.
TRUST_CAP = 1000


class ScenarioParseError(ValueError):
    """Malformed document: bad JSON or a schema-level problem."""


class ScenarioValidationError(ValueError):
    """Well-formed document describing an ill-formed state."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class ArgumentDecl:
    id: str
    owner: str
    label: str = ""


@dataclass(frozen=True)
class Scenario:
    arguments: tuple[ArgumentDecl, ...]
    initial: MmaState
    script: tuple[AnnouncementEvent, ...]
    policy: TrustPolicy
    notes: str = ""


@dataclass(frozen=True)
class TraceStep:
    index: int
    announcers: tuple[str, ...]
    payload: ArgumentationFrame
    public_added_args: tuple[str, ...]
    public_added_attacks: tuple[tuple[str, str], ...]
    global_added_args: tuple[str, ...]
    global_added_attacks: tuple[tuple[str, str], ...]
    verdicts: Mapping[Pair, Verdict]
    trust_before: Mapping[Pair, int]
    trust_after: Mapping[Pair, int]
    trust_adjusted: Mapping[str, ExtensionSet] | None = None


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    final: MmaState
    error_step: int | None = None
    error: tuple[str, ...] = ()


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioParseError(msg)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_attacks(raw: Any, where: str) -> frozenset[tuple[str, str]]:
    _expect(isinstance(raw, list), f"{where} must be a list of [source, target] pairs")
    out = set()
    for item in raw:
        _expect(isinstance(item, list) and len(item) == 2, f"{where}: bad attack entry {item!r}")
        s, t = item
        _expect(isinstance(s, str) and isinstance(t, str), f"{where}: bad attack entry {item!r}")
        out.add((s, t))
    return frozenset(out)


def _as_frame(raw: Any, where: str, kind: str = DUNG) -> ArgumentationFrame:
    _expect(isinstance(raw, dict), f"{where} must be an object with args/attacks")
    args = raw.get("args", [])
    _expect(isinstance(args, list) and all(isinstance(a, str) for a in args), f"{where}: args must be a list of ids")
    attacks = _as_attacks(raw.get("attacks", []), where)
    try:
        return ArgumentationFrame(frozenset(args), attacks, kind)
    except ValueError as exc:
        raise ScenarioParseError(f"{where}: {exc}") from exc


def _matrix(raw: Any, agents: list[str], where: str) -> dict[Pair, Any]:
    _expect(isinstance(raw, dict), f"{where} must map viewer -> subject -> value")
    out: dict[Pair, Any] = {}
    for v in agents:
        _expect(v in raw, f"{where}: missing row for agent {v}")
        row = raw[v]
        _expect(isinstance(row, dict), f"{where}: row for {v} must be an object")
        for s in agents:
            _expect(s in row, f"{where}: missing entry ({v},{s})")
            out[(v, s)] = row[s]
    return out


def parse_scenario(doc: Any) -> Scenario:
    """Build and validate a scenario from a decoded JSON document.

    :data:`TRUST_CAP` bounds the trust values the document states; trust
    revision during a replay may carry a value past it.
    """
    _expect(isinstance(doc, dict), "scenario document must be a JSON object")
    for key in ("arguments", "global_attacks", "scopes", "awareness", "gsem", "factual", "trust", "script"):
        _expect(key in doc, f"missing top-level key {key!r}")

    decls: list[ArgumentDecl] = []
    seen: set[str] = set()
    _expect(isinstance(doc["arguments"], list), "arguments must be a list of declarations")
    for raw in doc["arguments"]:
        _expect(isinstance(raw, dict) and isinstance(raw.get("id"), str) and isinstance(raw.get("owner"), str),
                f"bad argument declaration {raw!r}")
        _expect(raw["id"] not in seen, f"duplicate argument id {raw['id']!r}")
        seen.add(raw["id"])
        decls.append(ArgumentDecl(raw["id"], raw["owner"], str(raw.get("label", ""))))
    arg_ids = frozenset(seen)

    scopes_raw = doc["scopes"]
    _expect(isinstance(scopes_raw, dict) and scopes_raw, "scopes must be a nonempty object")
    agents = sorted(scopes_raw)
    for d in decls:
        _expect(d.owner in scopes_raw, f"argument {d.id} owned by unknown agent {d.owner!r}")
    listed_in: dict[str, list[str]] = {}
    for e in agents:
        listed = scopes_raw[e]
        _expect(isinstance(listed, list) and all(isinstance(a, str) for a in listed), f"scope of {e} must be a list of ids")
        for a in listed:
            listed_in.setdefault(a, []).append(e)
    overlaps = [
        Violation("local scopes", f"argument {a} appears in the scopes of {owners}")
        for a, owners in sorted(listed_in.items())
        if len(owners) > 1
    ]
    if overlaps:
        raise ScenarioValidationError(overlaps)
    for e in agents:
        owned = {d.id for d in decls if d.owner == e}
        _expect(set(scopes_raw[e]) == owned, f"scope of {e} disagrees with the declared owners")

    global_attacks = _as_attacks(doc["global_attacks"], "global_attacks")
    for s, t in sorted(global_attacks):
        _expect(s in arg_ids and t in arg_ids, f"global attack ({s},{t}) uses an undeclared argument")
    global_af = ArgumentationFrame(arg_ids, global_attacks, DUNG)

    scope = {}
    for e in agents:
        fe_args = frozenset(scopes_raw[e])
        fe_attacks = frozenset((s, t) for s, t in global_attacks if s in fe_args and t in fe_args)
        scope[e] = ArgumentationFrame(fe_args, fe_attacks, DUNG)

    aware_raw = doc["awareness"]
    _expect(isinstance(aware_raw, dict) and set(aware_raw) == set(agents), "awareness must cover exactly the agents")
    aware = {e: _as_frame(aware_raw[e], f"awareness of {e}") for e in agents}
    for e in agents:
        _expect(aware[e].args <= arg_ids, f"awareness of {e} uses undeclared arguments")

    public_af = _as_frame(doc.get("public", {}), "public")
    _expect(public_af.args <= arg_ids, "public frame uses undeclared arguments")

    gsem_raw = _matrix(doc["gsem"], agents, "gsem")
    sem_model: dict[Pair, SemanticsKind] = {}
    for pair, value in gsem_raw.items():
        try:
            sem_model[pair] = SemanticsKind(value)
        except ValueError as exc:
            raise ScenarioParseError(f"gsem{pair}: unknown semantics {value!r}") from exc

    factual_raw = _matrix(doc["factual"], agents, "factual")
    intra: dict[Pair, IntraPreference] = {}
    for (v, s), listed in factual_raw.items():
        _expect(isinstance(listed, list) and all(isinstance(a, str) for a in listed), f"factual({v},{s}) must be a list of ids")
        intra[(v, s)] = IntraPreference.of(listed)

    trust_raw = _matrix(doc["trust"], agents, "trust")
    violations: list[Violation] = []
    trust: dict[Pair, int] = {}
    for pair, value in trust_raw.items():
        _expect(_is_int(value), f"trust{pair} must be an integer")
        if abs(value) > TRUST_CAP:
            violations.append(Violation("trust range", f"trust{pair} = {value} exceeds the cap {TRUST_CAP}"))
        trust[pair] = value

    overrides: dict[Pair, ArgumentationFrame] = {}
    overrides_raw = doc.get("omega_overrides", {})
    _expect(isinstance(overrides_raw, dict), "omega_overrides must map viewer -> subject -> frame")
    for v, row in overrides_raw.items():
        _expect(v in scopes_raw, f"omega override row for unknown agent {v!r}")
        _expect(isinstance(row, dict), f"omega overrides of {v} must be an object")
        for s, raw in row.items():
            _expect(s in scopes_raw, f"omega override ({v},{s}) names unknown agent {s!r}")
            overrides[(v, s)] = _as_frame(raw, f"omega override ({v},{s})")

    initial = MmaState(
        global_af=global_af,
        public_af=public_af,
        agents=frozenset(agents),
        scope=scope,
        aware=aware,
        sem_model=sem_model,
        intra=intra,
        trust=trust,
        overrides=overrides,
    )
    violations.extend(validate(initial))
    if violations:
        raise ScenarioValidationError(violations)

    script = []
    _expect(isinstance(doc["script"], list), "script must be a list of events")
    for i, raw in enumerate(doc["script"], 1):
        _expect(isinstance(raw, dict), f"script step {i} must be an object")
        announcers = raw.get("announcers", [])
        _expect(isinstance(announcers, list) and announcers and all(isinstance(a, str) for a in announcers),
                f"script step {i}: announcers must be a nonempty list")
        _expect(set(announcers) <= set(agents), f"script step {i}: unknown announcer")
        payload = _as_frame({"args": raw.get("args", []), "attacks": raw.get("attacks", [])},
                            f"script step {i}", kind=PRE_DUNG)
        script.append(AnnouncementEvent.of(payload, announcers))

    policy_raw = doc.get("policy", {})
    _expect(isinstance(policy_raw, dict), "policy must be an object")
    deltas = [policy_raw.get(key, 1) for key in ("honest", "dishonest")]
    _expect(all(_is_int(d) for d in deltas), "policy steps must be integers")
    try:
        policy = TrustPolicy(*deltas)
    except ValueError as exc:
        raise ScenarioParseError(f"bad policy: {exc}") from exc

    return Scenario(tuple(decls), initial, tuple(script), policy, str(doc.get("notes", "")))


def load_scenario(source: str | bytes | IO) -> Scenario:
    """Parse a scenario from text, bytes or a readable stream."""
    if hasattr(source, "read"):
        source = source.read()
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, overlong integers, deep nesting
        raise ScenarioParseError(f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled scenario (name with or without .json)."""
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("mmarg").joinpath("fixtures", name)
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return str(ref)


def bundled_scenarios() -> list[str]:
    ref = resources.files("mmarg").joinpath("fixtures")
    return sorted(p.name[: -len(".json")] for p in ref.iterdir() if p.name.endswith(".json"))


# ---------------------------------------------------------------------------
# Serialization back to the document form.

def _frame_doc(f: ArgumentationFrame) -> dict:
    return {"args": f.sorted_args(), "attacks": [list(p) for p in f.sorted_attacks()]}


def _pair_matrix_doc(values: Mapping[Pair, Any], conv=lambda x: x) -> dict:
    out: dict[str, dict[str, Any]] = {}
    for (v, s), value in sorted(values.items()):
        out.setdefault(v, {})[s] = conv(value)
    return out


def scenario_to_doc(sc: Scenario) -> dict:
    agents = sorted(sc.initial.agents)
    m = sc.initial
    doc: dict[str, Any] = {
        "notes": sc.notes,
        "arguments": [{"id": d.id, "owner": d.owner, "label": d.label} for d in sorted(sc.arguments, key=lambda d: d.id)],
        "global_attacks": [list(p) for p in m.global_af.sorted_attacks()],
        "scopes": {e: m.scope[e].sorted_args() for e in agents},
        "awareness": {e: _frame_doc(m.aware[e]) for e in agents},
        "public": _frame_doc(m.public_af),
        "gsem": _pair_matrix_doc(m.sem_model, lambda k: k.value),
        "factual": _pair_matrix_doc(m.intra, lambda p: sorted(p.factual)),
        "trust": _pair_matrix_doc(m.trust),
        "omega_overrides": {},
        "script": [
            {
                "announcers": sorted(ev.announcers),
                "args": ev.payload.sorted_args(),
                "attacks": [list(p) for p in ev.payload.sorted_attacks()],
            }
            for ev in sc.script
        ],
        "policy": {"honest": sc.policy.delta_honest, "dishonest": sc.policy.delta_dishonest},
    }
    for (v, s), f in sorted(sc.initial.overrides.items()):
        doc["omega_overrides"].setdefault(v, {})[s] = _frame_doc(f)
    return doc


def dumps_scenario(sc: Scenario) -> str:
    return json.dumps(scenario_to_doc(sc), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Replay.

def run(sc: Scenario, with_semantics: bool = False) -> Trace:
    """Fold :func:`~mmarg.dynamics.step` over the script, recording every step.

    Replay halts at the first invalid event with the violations as the
    trace's diagnostic; the steps before it stay recorded.
    """
    m = sc.initial
    steps: list[TraceStep] = []
    for k, ev in enumerate(sc.script, 1):
        try:
            m2, verdicts, m3 = step(m, ev, sc.policy)
        except AnnouncementError as exc:
            return Trace(tuple(steps), m, error_step=k, error=tuple(str(v) for v in exc.violations))
        extras = {e: trust_adjusted_public_semantics(m3, e) for e in sorted(m3.agents)} if with_semantics else None
        steps.append(
            TraceStep(
                index=k,
                announcers=tuple(sorted(ev.announcers)),
                payload=ev.payload,
                public_added_args=tuple(sorted(m2.public_af.args - m.public_af.args)),
                public_added_attacks=tuple(sorted(m2.public_af.attacks - m.public_af.attacks)),
                global_added_args=tuple(sorted(m2.global_af.args - m.global_af.args)),
                global_added_attacks=tuple(sorted(m2.global_af.attacks - m.global_af.attacks)),
                verdicts=verdicts,
                trust_before=dict(m.trust),
                trust_after=dict(m3.trust),
                trust_adjusted=extras,
            )
        )
        m = m3
    return Trace(tuple(steps), m)


def state_at(sc: Scenario, step: int) -> MmaState:
    """The state after ``step`` script events (0 = the initial state).

    Folds :func:`~mmarg.dynamics.update`, the revised state of each step,
    over exactly the first ``step`` events.
    """
    if step < 0 or step > len(sc.script):
        raise ValueError(f"step {step} outside 0..{len(sc.script)}")
    m = sc.initial
    for ev in sc.script[:step]:
        m = update(m, ev, sc.policy)
    return m


def query(m: MmaState, viewer: str, subject: str | None, view: str, kind: SemanticsKind | None = None) -> ExtensionSet:
    """Extension sets of a view of :data:`~mmarg.state.VIEWS`: a one-agent view reads ``viewer`` and
    takes no ``subject`` (``ValueError``), a two-agent view ``viewer``'s model of ``subject`` (default
    ``viewer``).  The kind defaults to what the first agent assumes the last one applies.
    """
    if (view.replace("_", "-"), 1) in VIEWS:
        if subject is not None:
            raise ValueError(f"view {view!r} reads one agent and takes no subject")
        agents = (viewer,)
    else:
        agents = (viewer, subject if subject is not None else viewer)
    frame = state.view(m, view, *agents)
    return semantics(kind if kind is not None else m.sem_model[(agents[0], agents[-1])], frame)


# ---------------------------------------------------------------------------
# Trace serialization.

def trace_to_doc(trace: Trace) -> dict:
    doc: dict[str, Any] = {
        "steps": [],
        "final": {
            "public": _frame_doc(trace.final.public_af),
            "global": _frame_doc(trace.final.global_af),
            "trust": _pair_matrix_doc(trace.final.trust),
        },
        "error": None,
    }
    if trace.error_step is not None:
        doc["error"] = {"step": trace.error_step, "violations": list(trace.error)}
    for step in trace.steps:
        entry = {
            "index": step.index,
            "announcers": list(step.announcers),
            "payload": _frame_doc(step.payload),
            "public_added": {
                "args": list(step.public_added_args),
                "attacks": [list(p) for p in step.public_added_attacks],
            },
            "global_added": {
                "args": list(step.global_added_args),
                "attacks": [list(p) for p in step.global_added_attacks],
            },
            "verdicts": _pair_matrix_doc(step.verdicts, lambda v: v.value),
            "trust_before": _pair_matrix_doc(step.trust_before),
            "trust_after": _pair_matrix_doc(step.trust_after),
        }
        if step.trust_adjusted is not None:
            entry["trust_adjusted"] = {e: sorted_extensions(g) for e, g in sorted(step.trust_adjusted.items())}
        doc["steps"].append(entry)
    return doc


def dumps_trace(trace: Trace) -> str:
    return json.dumps(trace_to_doc(trace), indent=2, sort_keys=True) + "\n"

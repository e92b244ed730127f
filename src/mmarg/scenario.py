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

import functools
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, IO, Mapping

from .dynamics import AnnouncementError, TrustPolicy, Verdict, step, update
from .frames import AnnouncementEvent, ArgumentationFrame
from .semantics import ExtensionSet, SemanticsKind, semantics, sorted_extensions
from .state import (
    VIEWS,
    MmaState,
    Pair,
    Violation,
    ViolationsError,
    trust_adjusted_public_model,
    validate,
)
from . import state

# Largest |trust| a scenario document may state.
TRUST_CAP = 1000
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# The keys a document, an argument declaration, a frame object and a policy may hold; a script step is a
# frame object that may also hold announcers.
_DOC_KEYS = frozenset({"notes", "arguments", "global_attacks", "scopes", "awareness", "public", "gsem", "factual",
                      "trust", "omega_overrides", "script", "policy"})
_ARGUMENT_KEYS = frozenset({"id", "owner", "label"})
_FRAME_KEYS = frozenset({"args", "attacks"})
_POLICY_KEYS = frozenset({"honest", "dishonest"})


class ScenarioParseError(ValueError):
    """Malformed document: bad JSON, a wrong type, a missing or unknown key, an empty or duplicate id, a bad attack
    entry, a scope that misses an owned argument or lists an id twice, or an agent name that is unknown or holds ':'."""


class ScenarioValidationError(ViolationsError):
    """Well-formed document describing an ill-formed state: ``validate``'s violations or a ``trust range``."""


@dataclass(frozen=True)
class Scenario:
    """An initial state, the script replayed from it and the trust policy.

    The document's argument roster is not kept as such: its ids are
    ``initial.global_af.args``, each owner is the agent whose
    ``initial.scope`` holds the id, and ``labels`` maps an id to its
    nonempty display label.
    """

    initial: MmaState
    script: tuple[AnnouncementEvent, ...]
    policy: TrustPolicy
    labels: Mapping[str, str]
    notes: str = ""


@dataclass(frozen=True)
class TraceStep:
    """A replayed step, less what the announcement rules fix: public gains every payload attack, global no argument."""

    event: AnnouncementEvent
    public_added_args: tuple[str, ...]
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


def _as_frame(raw: Any, where: str, make: Callable[..., Any] = ArgumentationFrame) -> Any:
    """``make(args, attacks)`` from an object holding only args/attacks; its ``ValueError`` becomes a parse error."""
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{where} must be an object with args/attacks")
    if not raw.keys() <= _FRAME_KEYS:
        raise ScenarioParseError(f"{where}: unknown key {min(raw.keys() - _FRAME_KEYS, key=repr)!r}")
    args = raw.get("args", [])
    if not (isinstance(args, list) and all(isinstance(a, str) for a in args)):
        raise ScenarioParseError(f"{where}: args must be a list of ids")
    attacks = raw.get("attacks", [])
    if not isinstance(attacks, list):
        raise ScenarioParseError(f"{where} must be a list of [source, target] pairs")
    for item in attacks:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str) and isinstance(item[1], str)):
            raise ScenarioParseError(f"{where}: bad attack entry {item!r}")
    try:
        return make(frozenset(args), frozenset(map(tuple, attacks)))
    except ValueError as exc:
        raise ScenarioParseError(f"{where}: {exc}") from exc


def _matrix(raw: Any, agents: list[str], where: str) -> dict[Pair, Any]:
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{where} must map viewer -> subject -> value")
    out: dict[Pair, Any] = {}
    for v in agents:
        if v not in raw:
            raise ScenarioParseError(f"{where}: missing row for agent {v}")
        row = raw[v]
        if not isinstance(row, dict):
            raise ScenarioParseError(f"{where}: row for {v} must be an object")
        for s in agents:
            if s not in row:
                raise ScenarioParseError(f"{where}: missing entry ({v},{s})")
            out[(v, s)] = row[s]
        if len(row) != len(agents):
            raise ScenarioParseError(f"{where}: row for {v} names unknown agent {min(row.keys() - agents, key=repr)!r}")
    if len(raw) != len(agents):
        raise ScenarioParseError(f"{where}: row for unknown agent {min(raw.keys() - agents, key=repr)!r}")
    return out


def parse_scenario(doc: Any) -> Scenario:
    """Build and validate a scenario from a decoded JSON document.

    The parser checks the document's shape (:class:`ScenarioParseError`, a frame constructor's
    ``ValueError`` included) and leaves each condition on the state to :func:`validate`, whose
    violations and any trust past :data:`TRUST_CAP` raise :class:`ScenarioValidationError`.  The cap
    bounds only the values the document states; trust revision may carry a value past it.  Each check
    costs one test when it passes; its message is built only where it is raised.
    """
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    for key in ("arguments", "global_attacks", "scopes", "awareness", "gsem", "factual", "trust", "script"):
        if key not in doc:
            raise ScenarioParseError(f"missing top-level key {key!r}")
    if not doc.keys() <= _DOC_KEYS:
        raise ScenarioParseError(f"unknown top-level key {min(doc.keys() - _DOC_KEYS, key=repr)!r}")
    if not isinstance(doc.get("notes", ""), str):
        raise ScenarioParseError("notes must be a string")

    owners: dict[str, str] = {}
    labels: dict[str, str] = {}
    if not isinstance(doc["arguments"], list):
        raise ScenarioParseError("arguments must be a list of declarations")
    for raw in doc["arguments"]:
        if not (isinstance(raw, dict) and isinstance(raw.get("id"), str) and isinstance(raw.get("owner"), str)
                and isinstance(raw.get("label", ""), str)):
            raise ScenarioParseError(f"bad argument declaration {raw!r}")
        a = raw["id"]
        if not a:
            raise ScenarioParseError("arguments: argument ids must be nonempty strings, got ''")
        if not raw.keys() <= _ARGUMENT_KEYS:
            raise ScenarioParseError(f"argument {a}: unknown key {min(raw.keys() - _ARGUMENT_KEYS, key=repr)!r}")
        if a in owners:
            raise ScenarioParseError(f"duplicate argument id {a!r}")
        owners[a] = raw["owner"]
        if raw.get("label"):
            labels[a] = raw["label"]

    scopes_raw = doc["scopes"]
    if not (isinstance(scopes_raw, dict) and scopes_raw):
        raise ScenarioParseError("scopes must be a nonempty object")
    agents = sorted(scopes_raw)
    if any(":" in e for e in agents):  # ':' separates the agents of a view selector such as aware:e1
        raise ScenarioParseError(f"agent name {min((e for e in agents if ':' in e), key=repr)!r} contains ':'")
    scope: dict[str, frozenset[str]] = {}
    for e in agents:
        listed = scopes_raw[e]
        if not (isinstance(listed, list) and all(isinstance(a, str) for a in listed)):
            raise ScenarioParseError(f"scope of {e} must be a list of ids")
        scope[e] = frozenset(listed)
        if len(scope[e]) != len(listed):
            raise ScenarioParseError(f"scope of {e} lists an argument twice")
    for a, owner in owners.items():
        if owner not in scope:
            raise ScenarioParseError(f"argument {a} owned by unknown agent {owner!r}")
        if a not in scope[owner]:
            raise ScenarioParseError(f"scope of {owner} disagrees with the declared owners")
    global_af = _as_frame({"args": list(owners), "attacks": doc["global_attacks"]}, "global_attacks")

    aware_raw = doc["awareness"]
    if not (isinstance(aware_raw, dict) and aware_raw.keys() == scope.keys()):
        raise ScenarioParseError("awareness must cover exactly the agents")
    aware = {e: _as_frame(aware_raw[e], f"awareness of {e}") for e in agents}
    public_af = _as_frame(doc.get("public", {}), "public")

    sem_model: dict[Pair, SemanticsKind] = {}
    for pair, value in _matrix(doc["gsem"], agents, "gsem").items():
        try:
            sem_model[pair] = SemanticsKind(value)
        except ValueError as exc:
            raise ScenarioParseError(f"gsem{pair}: unknown semantics {value!r}") from exc

    intra: dict[Pair, frozenset[str]] = {}
    for (v, s), listed in _matrix(doc["factual"], agents, "factual").items():
        if not (isinstance(listed, list) and all(isinstance(a, str) for a in listed)):
            raise ScenarioParseError(f"factual({v},{s}) must be a list of ids")
        intra[(v, s)] = frozenset(listed)

    violations: list[Violation] = []
    trust: dict[Pair, int] = {}
    for pair, value in _matrix(doc["trust"], agents, "trust").items():
        if not state._is_int(value):
            raise ScenarioParseError(f"trust{pair} must be an integer")
        if abs(value) > TRUST_CAP:
            violations.append(Violation("trust range", f"trust{pair} = {value} exceeds the cap {TRUST_CAP}"))
        trust[pair] = value

    overrides: dict[Pair, ArgumentationFrame] = {}
    overrides_raw = doc.get("omega_overrides", {})
    if not isinstance(overrides_raw, dict):
        raise ScenarioParseError("omega_overrides must map viewer -> subject -> frame")
    for v, row in overrides_raw.items():
        if v not in scopes_raw:
            raise ScenarioParseError(f"omega override row for unknown agent {v!r}")
        if not isinstance(row, dict):
            raise ScenarioParseError(f"omega overrides of {v} must be an object")
        for s, raw in row.items():
            overrides[(v, s)] = _as_frame(raw, f"omega override ({v},{s})")

    initial = MmaState(
        global_af=global_af,
        public_af=public_af,
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
    if not isinstance(doc["script"], list):
        raise ScenarioParseError("script must be a list of events")
    for i, raw in enumerate(doc["script"], 1):
        if not isinstance(raw, dict):
            raise ScenarioParseError(f"script step {i} must be an object")
        event = dict(raw)
        announcers = event.pop("announcers", [])
        if not (isinstance(announcers, list) and all(isinstance(a, str) for a in announcers)):
            raise ScenarioParseError(f"script step {i}: announcers must be a list of agent names")
        if not set(announcers) <= scope.keys():
            raise ScenarioParseError(f"script step {i}: unknown announcer")
        script.append(_as_frame(event, f"script step {i}", functools.partial(AnnouncementEvent, announcers=frozenset(announcers))))

    policy_raw = doc.get("policy", {})
    if not isinstance(policy_raw, dict):
        raise ScenarioParseError("policy must be an object")
    if not policy_raw.keys() <= _POLICY_KEYS:
        raise ScenarioParseError(f"policy: unknown key {min(policy_raw.keys() - _POLICY_KEYS, key=repr)!r}")
    try:
        policy = TrustPolicy(**{"delta_" + key: value for key, value in policy_raw.items()})
    except ValueError as exc:
        raise ScenarioParseError(f"bad policy: {exc}") from exc

    return Scenario(initial, tuple(script), policy, labels, doc.get("notes", ""))


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
    path = os.path.join(FIXTURES, name)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path


def bundled_scenarios() -> list[str]:
    return sorted(n[: -len(".json")] for n in os.listdir(FIXTURES) if n.endswith(".json"))


# ---------------------------------------------------------------------------
# Serialization back to the document form.

def _frame_doc(f: ArgumentationFrame | AnnouncementEvent) -> dict:
    return {"args": sorted(f.args), "attacks": [list(p) for p in sorted(f.attacks)]}


def _pair_matrix_doc(values: Mapping[Pair, Any], conv=lambda x: x) -> dict:
    out: dict[str, dict[str, Any]] = {}
    for (v, s), value in sorted(values.items()):
        out.setdefault(v, {})[s] = conv(value)
    return out


def dumps_scenario(sc: Scenario) -> str:
    m = sc.initial
    agents = sorted(m.agents)
    owner = {a: e for e in agents for a in m.scope[e]}
    return json.dumps({
        "notes": sc.notes,
        "arguments": [{"id": a, "owner": owner[a], "label": sc.labels.get(a, "")} for a in sorted(m.global_af.args)],
        "global_attacks": [list(p) for p in sorted(m.global_af.attacks)],
        "scopes": {e: sorted(m.scope[e]) for e in agents},
        "awareness": {e: _frame_doc(m.aware[e]) for e in agents},
        "public": _frame_doc(m.public_af),
        "gsem": _pair_matrix_doc(m.sem_model, lambda k: k.value),
        "factual": _pair_matrix_doc(m.intra, sorted),
        "trust": _pair_matrix_doc(m.trust),
        "omega_overrides": _pair_matrix_doc(m.overrides, _frame_doc),
        "script": [{"announcers": sorted(ev.announcers), **_frame_doc(ev)} for ev in sc.script],
        "policy": {"honest": sc.policy.delta_honest, "dishonest": sc.policy.delta_dishonest},
    }, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Replay.

def run(sc: Scenario, with_semantics: bool = False) -> Trace:
    """Fold :func:`~mmarg.dynamics.step` over the script, recording every step.

    Replay halts at the first invalid event with the violations as the
    trace's diagnostic; the steps before it stay recorded.  With
    ``with_semantics`` each step also records every agent's ``trust-adjusted``
    :func:`query` on the revised state.  Nothing is memoised: every solve is
    a call to ``semantics`` as it is bound at that moment.
    """
    m = sc.initial
    steps: list[TraceStep] = []
    for k, ev in enumerate(sc.script, 1):
        try:
            _, verdicts, m3 = step(m, ev, sc.policy)
        except AnnouncementError as exc:
            return Trace(tuple(steps), m, error_step=k, error=tuple(str(v) for v in exc.violations))
        extras = None
        if with_semantics:
            extras = {e: semantics(m3.sem_model[(e, e)], trust_adjusted_public_model(m3, e)) for e in sorted(m3.agents)}
        steps.append(
            TraceStep(
                event=ev,
                public_added_args=tuple(sorted(ev.args - m.public_af.args)),
                global_added_attacks=tuple(sorted(ev.attacks - m.global_af.attacks)),
                verdicts=verdicts,
                trust_before=m.trust,
                trust_after=m3.trust,
                trust_adjusted=extras,
            )
        )
        m = m3
    return Trace(tuple(steps), m)


def _prefix(sc: Scenario, step: int) -> tuple[AnnouncementEvent, ...]:
    """The first ``step`` script events; ``ValueError`` unless ``0 <= step <= len(sc.script)``."""
    if step < 0 or step > len(sc.script):
        raise ValueError(f"step {step} outside 0..{len(sc.script)}")
    return sc.script[:step]


def state_at(sc: Scenario, step: int) -> MmaState:
    """The state after ``step`` script events (0 = the initial state).

    Folds :func:`~mmarg.dynamics.update`, the revised state of each step,
    over exactly the first ``step`` events.
    """
    m = sc.initial
    for ev in _prefix(sc, step):
        m = update(m, ev, sc.policy)
    return m


def query(m: MmaState, viewer: str, subject: str | None, view: str, kind: SemanticsKind | str | None = None) -> ExtensionSet:
    """Extension sets of a view of :data:`~mmarg.state.VIEWS`: a one-agent view reads ``viewer`` and
    takes no ``subject`` (``ValueError``), a two-agent view ``viewer``'s model of ``subject`` (default
    ``viewer``).  The kind defaults to what the first agent assumes the last one applies.
    """
    if (view, 1) in VIEWS:
        if subject is not None:
            raise ValueError(f"view {view!r} reads one agent and takes no subject")
        agents = (viewer,)
    else:
        agents = (viewer, subject if subject is not None else viewer)
    frame = state.view(m, view, *agents)
    return semantics(kind if kind is not None else m.sem_model[(agents[0], agents[-1])], frame)


# ---------------------------------------------------------------------------
# Trace serialization.

_VERDICT_JSON = {v: encode_basestring_ascii(v.value) for v in Verdict}


def _block(brackets: str, items: list[str], nl: str) -> str:
    """Rendered items laid out as ``json.dumps(indent=2)`` lays them out, ``nl`` before the closing bracket."""
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1] if items else brackets


class _TraceWriter:
    """One trace's parts rendered as ``json.dumps(..., indent=2, sort_keys=True)`` renders them, ``nl``
    before the closing bracket.  ``layouts`` maps each matrix shape, a (``nl``, key set), to its
    ``%``-template and sorted keys."""

    def __init__(self) -> None:
        self.layouts: dict[tuple[str, frozenset[Pair]], tuple[str, list[Pair]]] = {}

    def strs(self, texts: Any, nl: str) -> str:
        return _block("[]", list(map(encode_basestring_ascii, texts)), nl)

    def lists(self, rows: Any, nl: str) -> str:
        return _block("[]", [self.strs(row, nl + "  ") for row in rows], nl)

    def frame(self, args: Any, attacks: Any, nl: str) -> str:
        return _block("{}", ['"args": ' + self.strs(args, nl + "  "), '"attacks": ' + self.lists(attacks, nl + "  ")], nl)

    def matrix(self, values: Mapping[Pair, Any], nl: str, conv: Any = int.__repr__) -> str:
        shape = (nl, frozenset(values))
        layout = self.layouts.get(shape)
        if layout is None:
            keys = sorted(values)
            rows: dict[str, list[str]] = {}
            for v, s in keys:
                rows.setdefault(v, []).append(encode_basestring_ascii(s).replace("%", "%%") + ": %s")
            inner = nl + "  "
            template = _block("{}", [encode_basestring_ascii(v).replace("%", "%%") + ": " + _block("{}", row, inner)
                                     for v, row in rows.items()], nl)
            layout = self.layouts[shape] = (template, keys)
        template, keys = layout
        return template % tuple([conv(values[k]) for k in keys])

    def step(self, index: int, st: TraceStep, nl: str) -> str:
        i, attacks = nl + "  ", sorted(st.event.attacks)
        fields = [
            '"announcers": ' + self.strs(sorted(st.event.announcers), i),
            '"global_added": ' + self.frame((), st.global_added_attacks, i),
            f'"index": {index!r}',
            '"payload": ' + self.frame(sorted(st.event.args), attacks, i),
            '"public_added": ' + self.frame(st.public_added_args, attacks, i),
        ]
        if st.trust_adjusted is not None:
            extras = [encode_basestring_ascii(e) + ": " + self.lists(sorted_extensions(g), i + "  ")
                      for e, g in sorted(st.trust_adjusted.items())]
            fields.append('"trust_adjusted": ' + _block("{}", extras, i))
        return _block("{}", fields + [
            '"trust_after": ' + self.matrix(st.trust_after, i),
            '"trust_before": ' + self.matrix(st.trust_before, i),
            '"verdicts": ' + self.matrix(st.verdicts, i, _VERDICT_JSON.__getitem__),
        ], nl)


def dumps_trace(trace: Trace) -> str:
    """The trace as JSON, written straight from its steps: ``error`` (null, or the halting ``step``
    and its ``violations``), the ``final`` frames and trust, and per step its ``index`` (its position
    in ``trace.steps``, from 1), announcers, payload, added frames, ``verdicts``, trust matrices
    (viewer -> subject -> value) and, with semantics, the ``trust_adjusted`` extensions.  The bytes
    are exactly those of ``json.dumps(document, indent=2, sort_keys=True) + "\\n"``.  Each matrix
    shape (indent and key set) is laid out once per call and then only filled in with its values."""
    w, f, n1, n2 = _TraceWriter(), trace.final, "\n  ", "\n    "
    error = "null" if trace.error_step is None else _block(
        "{}", [f'"step": {trace.error_step!r}', '"violations": ' + w.strs(trace.error, n2)], n1)
    final = _block("{}", [
        '"global": ' + w.frame(sorted(f.global_af.args), sorted(f.global_af.attacks), n2),
        '"public": ' + w.frame(sorted(f.public_af.args), sorted(f.public_af.attacks), n2),
        '"trust": ' + w.matrix(f.trust, n2),
    ], n1)
    steps = _block("[]", [w.step(k, st, n2) for k, st in enumerate(trace.steps, 1)], n1)
    return _block("{}", [f'"error": {error}', f'"final": {final}', f'"steps": {steps}'], "\n") + "\n"

"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 invalid announcement during a
run, 3 parse error, a scenario file that cannot be read or an output that
cannot be written, a closed stdout included (64 for usage errors).
Diagnostics go to stderr only, and are dropped when stderr is closed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
from dataclasses import replace

from .dynamics import AnnouncementError, TrustPolicy, announce
from .oracle import MAX_ORACLE_ARGS, oracle_semantics, random_frame
from .scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    _prefix,
    dumps_trace,
    fixture_path,
    load_scenario,
    query,
    run,
    state_at,
)
from .semantics import SemanticsKind, semantics, sorted_extensions
from .export import export_graph
from .state import VIEWS, MmaState

EX_OK = 0
EX_VALIDATION = 1
EX_ANNOUNCEMENT = 2
EX_PARSE = 3
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for announcement failures
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _load(path: str) -> Scenario:
    """The scenario at ``path``, or else the bundled one of that name; a file that cannot be read is a parse error."""
    try:
        path = path if os.path.exists(path) else fixture_path(path)
    except FileNotFoundError:
        pass
    try:
        with open(path, "rb") as fh:
            return load_scenario(fh)
    except OSError as exc:
        raise ScenarioParseError(str(exc)) from exc


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given; a failed write names where it went."""
    if not path and sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path and sys.stdout is sys.__stdout__:
            # What stays buffered would fail again in the interpreter's exit flush: send it nowhere.
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        exc.filename = path or "<stdout>"
        raise


def cmd_validate(ns) -> int:
    _load(ns.file)
    _emit(f"{ns.file}: valid\n", None)
    return EX_OK


def cmd_run(ns) -> int:
    sc = _load(ns.file)
    if ns.policy is not None:
        try:
            honest, dishonest = (int(x) for x in ns.policy.split(","))
            sc = replace(sc, policy=TrustPolicy(honest, dishonest))
        except ValueError as exc:
            raise ScenarioParseError(f"bad --policy value {ns.policy!r}: {exc} (expected H,D)") from exc
    trace = run(sc, with_semantics=ns.with_semantics)
    _emit(dumps_trace(trace), ns.trace)
    if trace.error_step is not None:
        print(f"invalid announcement at step {trace.error_step}: {'; '.join(trace.error)}", file=sys.stderr)
        return EX_ANNOUNCEMENT
    return EX_OK


def _state(sc: Scenario, at: int, view: str) -> MmaState:
    """The state after ``at`` script steps, replayed as far as ``view`` reads it.  Only ``trust-adjusted``
    reads trust, so every other view folds the announcements alone, from a state with no trust entries."""
    if view == "trust-adjusted":
        return state_at(sc, at)
    return functools.reduce(announce, _prefix(sc, at), replace(sc.initial, trust={}))


def cmd_query(ns) -> int:
    sc = _load(ns.file)
    m = _state(sc, ns.at, ns.view)
    exts = query(m, ns.viewer, ns.subject, ns.view, ns.semantics)
    _emit(json.dumps(sorted_extensions(exts), indent=2) + "\n", None)
    return EX_OK


def cmd_export(ns) -> int:
    sc = _load(ns.file)
    m = _state(sc, ns.at, ns.view.split(":")[0])
    _emit(export_graph(m, ns.view, sc.labels), ns.out)
    return EX_OK


def _count(high: int | None = None):
    """An argparse type: an integer from 1 to ``high``, unbounded when ``high`` is None."""
    def integer(text: str) -> int:
        value = int(text)
        if not 1 <= value <= (high or value):
            raise argparse.ArgumentTypeError(f"{value} is not in 1..{high or ''}")
        return value
    return integer


def cmd_oracle_check(ns) -> int:
    rng = random.Random(ns.seed)
    densities = [0.1, 0.2, 0.3, 0.4, 0.5]
    mismatches = 0
    for trial in range(1, ns.trials + 1):
        f = random_frame(rng, rng.randint(1, ns.max_args), rng.choice(densities))
        for kind in SemanticsKind:
            got = semantics(kind, f)
            want = oracle_semantics(kind, f)
            if got != want:
                mismatches += 1
                print(f"MISMATCH trial {trial} kind {kind.value}: "
                      f"solver {sorted_extensions(got)} oracle {sorted_extensions(want)}",
                      file=sys.stderr)
    _emit(f"oracle-check: {ns.trials} random frames (max {ns.max_args} args, seed {ns.seed}), "
          f"{mismatches} mismatches\n", None)
    return EX_OK if mismatches == 0 else EX_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmarg", description="Manipulable multi-agent argumentation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="replay a scenario script and emit the trace")
    p.add_argument("file")
    p.add_argument("--trace", help="write the trace JSON here instead of stdout")
    p.add_argument("--policy", help="trust policy as H,D (overrides the file's policy)")
    p.add_argument("--with-semantics", action="store_true", help="record per-agent trust-adjusted semantics each step")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("query", help="extension sets of a view at a given step")
    p.add_argument("file")
    p.add_argument("--at", type=int, default=0, help="state after this many script steps")
    p.add_argument("--viewer", required=True)
    p.add_argument("--subject")
    p.add_argument("--view", required=True, choices=list(dict.fromkeys(name for name, n in VIEWS if n)))
    p.add_argument("--kind", dest="semantics", choices=[k.value for k in SemanticsKind],
                   help="override the scenario's semantics kind")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("export", help="export a view as a DOT graph")
    p.add_argument("file")
    p.add_argument("--at", type=int, default=0)
    p.add_argument("--view", required=True, help=" | ".join(name + ("", ":E", ":V:S")[n] for name, n in VIEWS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("oracle-check", help="cross-check the solver against the brute-force oracle")
    p.add_argument("--max-args", type=_count(MAX_ORACLE_ARGS), default=8,
                   help=f"largest frame to draw, 1..{MAX_ORACLE_ARGS} (the oracle's limit)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count(), default=100)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # fd 2 was closed when the interpreter started; print would fall back to stdout
        sys.stderr = open(os.devnull, "w")
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_PARSE
    except ScenarioValidationError as exc:
        print("validation failed:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EX_VALIDATION
    except AnnouncementError as exc:
        print(f"invalid announcement: {exc}", file=sys.stderr)
        return EX_ANNOUNCEMENT
    except OSError as exc:  # scenario input is turned into a parse error by _load
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EX_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

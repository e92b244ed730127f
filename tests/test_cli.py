import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmarg import cli
from mmarg.cli import EX_ANNOUNCEMENT, EX_OK, EX_PARSE, EX_USAGE, EX_VALIDATION, main
from mmarg.frames import ArgumentationFrame
from mmarg.oracle import oracle_semantics
from mmarg.scenario import ScenarioParseError, dumps_scenario, fixture_path, parse_scenario, state_at
from mmarg.semantics import SemanticsKind, sorted_extensions

from conftest import load_bundled


FIXTURE = fixture_path("mafia_endgame")
GOLDEN = Path(__file__).parent / "data"


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(capsys):
    assert main(["validate", FIXTURE]) == EX_OK
    assert "valid" in capsys.readouterr().out


def test_validate_resolves_bundled_names(capsys):
    assert main(["validate", "mafia_endgame"]) == EX_OK


def test_a_file_in_the_working_directory_comes_before_a_bundled_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mafia_endgame").write_text("{")
    assert main(["validate", "mafia_endgame"]) == EX_PARSE
    assert capsys.readouterr().err.startswith("parse error: invalid JSON: ")
    assert main(["validate", "mafia_endgame.json"]) == EX_OK


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == EX_PARSE
    assert "parse error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    # Neither a path nor a bundled name: the error names the path as given, not the bundled lookup.
    for path in ("/nonexistent/file.json", "nosuch"):
        assert main(["validate", path]) == EX_PARSE
        assert capsys.readouterr().err == f"parse error: [Errno 2] No such file or directory: {path!r}\n"


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    doc["trust"]["e1"]["e3"] = 99999
    assert main(["validate", write_doc(tmp_path, doc)]) == EX_VALIDATION
    assert "trust range" in capsys.readouterr().err


def test_awareness_outside_the_global_frame_is_a_validation_failure(tmp_path, capsys):
    # A well-formed document whose state breaks a condition of `validate` exits 1, not 3.
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    doc["awareness"]["e1"]["args"].append("zz")
    assert main(["validate", write_doc(tmp_path, doc)]) == EX_VALIDATION
    assert capsys.readouterr().err == (
        "validation failed:\n  (structure) awareness of e1 is not a sub-frame of the global frame\n")


MALFORMED = {
    "arguments not a list": lambda doc: doc.update(arguments=5),
    "omega_overrides not an object": lambda doc: doc.update(omega_overrides=[]),
    "integer scope id": lambda doc: doc["scopes"]["e1"].append(7),
    "list scope id": lambda doc: doc["scopes"]["e1"].append([1]),
    "script not a list": lambda doc: doc.update(script={}),
    "fractional policy step": lambda doc: doc.update(policy={"honest": 1.5}),
    "script attack touching none of its args": lambda doc: doc["script"][1].update(attacks=[["y", "z"]]),
    "empty script argument id": lambda doc: doc["script"][1]["args"].append(""),
    "empty declared argument id": lambda doc: doc["arguments"].append({"id": "", "owner": "e1"}),
    "null argument label": lambda doc: doc["arguments"][0].update(label=None),
    "integer notes": lambda doc: doc.update(notes=7),
    "agent name holding a colon": lambda doc: doc["scopes"].update({"e:1": doc["scopes"].pop("e1")}),
}
# The whole stderr of the cases whose message is pinned.
MALFORMED_STDERR = {
    "script attack touching none of its args": "parse error: script step 2: attack (y,z) touches no argument of the frame\n",
    "empty script argument id": "parse error: script step 2: argument ids must be nonempty strings, got ''\n",
    "empty declared argument id": "parse error: arguments: argument ids must be nonempty strings, got ''\n",
    "null argument label": "parse error: bad argument declaration {'id': 'a1', 'label': None, 'owner': 'e1'}\n",
    "agent name holding a colon": "parse error: agent name 'e:1' contains ':'\n",
    "integer notes": "parse error: notes must be a string\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_a_parse_error(case, tmp_path, capsys):
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    MALFORMED[case](doc)
    with pytest.raises(ScenarioParseError):
        parse_scenario(doc)
    assert main(["validate", write_doc(tmp_path, doc)]) == EX_PARSE
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err
    assert err == MALFORMED_STDERR.get(case, err)


def _write_bytes(tmp_path, data: bytes) -> str:
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return str(path)


# Each case gives the command line and the start of its message on stderr.
UNREADABLE = {
    "directory as scenario": lambda tmp: (["validate", str(tmp)], "parse error: "),
    "directory as trace output": lambda tmp: (["run", FIXTURE, "--trace", str(tmp)], f"cannot write {tmp}: "),
    "directory as export output": lambda tmp: (
        ["export", FIXTURE, "--view", "public", "--out", str(tmp)], f"cannot write {tmp}: "),
    "non-UTF-8 scenario": lambda tmp: (["validate", _write_bytes(tmp, b'{"notes": "\xff"}')], "parse error: "),
    "integer too long to convert": lambda tmp: (
        ["validate", _write_bytes(tmp, b'{"notes": ' + b"1" * 5000 + b"}")], "parse error: "),
    "nesting too deep to decode": lambda tmp: (
        ["validate", _write_bytes(tmp, b"[" * 100000 + b"]" * 100000)], "parse error: "),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_or_output_is_exit_3(case, tmp_path, capsys):
    argv, message = UNREADABLE[case](tmp_path)
    assert main(argv) == EX_PARSE
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


class FullStdout:
    """A standard output on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["validate", "mafia_endgame"],
    ["query", "mafia_endgame", "--viewer", "e1", "--view", "aware"],
])
def test_a_failed_write_to_stdout_names_stdout(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(argv) == EX_PARSE
    assert capsys.readouterr().err == "cannot write <stdout>: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device on which every write fails")
def test_a_failed_write_to_a_file_names_the_file(capsys):
    # Opening the device succeeds; the write fails, raising an error that carries no file name of its own.
    assert main(["run", FIXTURE, "--trace", "/dev/full"]) == EX_PARSE
    assert capsys.readouterr().err == "cannot write /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device on which every write fails")
def test_a_buffered_stdout_on_a_full_device_is_exit_3_with_one_line():
    # Buffered, the write only fills the buffer: the flush fails, and nothing may be left for the exit flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "mmarg.cli", "validate", "mafia_endgame"], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (EX_PARSE, "cannot write <stdout>: No space left on device\n")


def _with_closed(fd: int, *argv: str) -> subprocess.CompletedProcess:
    """``python -m mmarg.cli ARGV`` started with file descriptor ``fd`` closed; both streams are piped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mmarg.cli", *argv], env=env, capture_output=True, text=True,
                          preexec_fn=lambda: os.close(fd), timeout=60)


def test_a_closed_stdout_is_exit_3_with_one_line():
    done = _with_closed(1, "validate", "mafia_endgame")
    assert (done.returncode, done.stderr) == (EX_PARSE, "cannot write <stdout>: Bad file descriptor\n")


def test_a_closed_stderr_drops_diagnostics_and_keeps_the_exit_code():
    # Without a stderr, print would fall back to stdout and mix diagnostics into the command's output.
    done = _with_closed(2, "query", "mafia_endgame", "--viewer", "zz", "--view", "aware")
    assert (done.returncode, done.stdout) == (EX_VALIDATION, "")
    assert _with_closed(2, "validate", "mafia_endgame").stdout == "mafia_endgame: valid\n"


@pytest.mark.parametrize("fd", [1, 2])
def test_a_usage_error_with_a_closed_stream_is_exit_64(fd):
    done = _with_closed(fd, "validate")
    assert done.returncode == EX_USAGE
    assert (done.stdout, done.stderr.startswith("usage: mmarg validate")) == ("", fd == 1)


def test_a_frame_too_deep_to_solve_is_an_error_not_a_traceback(tmp_path, capsys):
    # A one-agent scenario whose awareness is a 3000-argument even cycle: the grounded labelling
    # decides nothing, so the complete search would recurse once per argument.
    ids = [f"a{i}" for i in range(3000)]
    attacks = [[a, ids[i - 1]] for i, a in enumerate(ids)]
    doc = {
        "arguments": [{"id": a, "owner": "e1"} for a in ids],
        "global_attacks": attacks,
        "scopes": {"e1": ids},
        "awareness": {"e1": {"args": ids, "attacks": attacks}},
        "gsem": {"e1": {"e1": "complete"}},
        "factual": {"e1": {"e1": []}},
        "trust": {"e1": {"e1": 0}},
        "script": [],
    }
    assert main(["query", write_doc(tmp_path, doc), "--viewer", "e1", "--view", "aware"]) == EX_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: frame too deep to solve: 3000 undecided arguments exceed the recursion limit\n"


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["run", FIXTURE, "--trace", str(out)]) == EX_OK
    doc = json.loads(out.read_text())
    assert len(doc["steps"]) == 4
    assert doc["error"] is None
    assert doc["steps"][2]["verdicts"]["e2"]["e1"] == "dishonest"


def test_run_to_stdout_with_policy(capsys):
    assert main(["run", FIXTURE, "--policy", "2,3"]) == EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"][2]["trust_after"]["e2"]["e1"] == -3


def test_run_bad_policy(capsys):
    assert main(["run", FIXTURE, "--policy", "fast"]) == EX_PARSE


@pytest.mark.parametrize(
    "value, reason",
    [
        ("-1,1", "trust deltas must be non-negative"),
        ("1,-2", "trust deltas must be non-negative"),
        ("1.5,1", "invalid literal for int() with base 10: '1.5'"),
        ("1", "not enough values to unpack"),
    ],
)
def test_run_bad_policy_names_the_reason(capsys, value, reason):
    assert main(["run", FIXTURE, f"--policy={value}"]) == EX_PARSE
    err = capsys.readouterr().err
    assert f"bad --policy value {value!r}: " in err
    assert reason in err
    assert "(expected H,D)" in err


def test_run_invalid_event_exits_2(tmp_path, capsys):
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    doc["script"].append(doc["script"][2])  # verbatim repeat duplicates public attacks
    assert main(["run", write_doc(tmp_path, doc)]) == EX_ANNOUNCEMENT
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["step"] == 5
    assert "invalid announcement" in captured.err


@pytest.mark.parametrize("command", [
    ["query", "--viewer", "e2", "--subject", "e1", "--view", "public"],
    ["export", "--view", "public"],
])
def test_query_and_export_past_an_invalid_step_exit_2(command, tmp_path, capsys):
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    doc["script"].append(doc["script"][2])  # step 5 repeats step 3
    name, *options = command
    path = write_doc(tmp_path, doc)
    assert main([name, path, "--at", "5", *options]) == EX_ANNOUNCEMENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid announcement: (no repetition) attack (a3,a4) already stands publicly; ")
    assert main([name, path, "--at", "4", *options]) == EX_OK


def test_query_public_and_local(capsys):
    assert main(["query", FIXTURE, "--at", "3", "--viewer", "e2", "--subject", "e1", "--view", "public"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["a2", "a3", "a9"]]
    assert main(["query", FIXTURE, "--at", "3", "--viewer", "e2", "--subject", "e1", "--view", "local"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["a1", "a4", "a5"]]


def test_query_trust_adjusted_variant(capsys):
    path = fixture_path("mafia_endgame_trusts_e2")
    assert main(["query", path, "--at", "4", "--viewer", "e3", "--view", "trust-adjusted"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["a4", "a5"]]


def test_trust_adjusted_with_an_underscore_is_not_a_view(capsys):
    path = fixture_path("mafia_endgame_trusts_e2")
    with pytest.raises(SystemExit) as exc:
        main(["query", path, "--at", "4", "--viewer", "e3", "--view", "trust_adjusted"])
    assert exc.value.code == EX_USAGE
    assert "argument --view: invalid choice: 'trust_adjusted'" in capsys.readouterr().err
    assert main(["export", path, "--at", "4", "--view", "trust_adjusted:e3"]) == EX_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unknown view 'trust_adjusted' for 1 agent(s)\n")


def test_query_kind_override(capsys):
    assert main(["query", FIXTURE, "--at", "4", "--viewer", "e3", "--view", "public", "--kind", "grounded"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [[]]


def test_query_unknown_agent(capsys):
    assert main(["query", FIXTURE, "--viewer", "e9", "--view", "public"]) == EX_VALIDATION


@pytest.mark.parametrize("view", ["trust-adjusted", "aware"])
def test_query_one_agent_view_rejects_a_subject(view, capsys):
    argv = ["query", FIXTURE, "--viewer", "e1", "--view", view]
    assert main(argv + ["--subject", "e2"]) == EX_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "takes no subject" in captured.err
    assert main(argv) == EX_OK


def test_export_public_view(capsys):
    assert main(["export", FIXTURE, "--at", "4", "--view", "public"]) == EX_OK
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert dot.count("style=filled") == 5
    for edge in ('"a3" -> "a4"', '"a3" -> "a5"', '"a5" -> "a2"', '"a5" -> "a3"', '"a4" -> "a9"'):
        assert edge in dot


def test_export_matches_golden_file(capsys):
    # Labels, scope clusters and the fill of public arguments, byte for byte.
    assert main(["export", "mafia_endgame", "--at", "4", "--view", "trust-adjusted:e3"]) == EX_OK
    assert capsys.readouterr().out == (GOLDEN / "export_mafia_endgame_at4_trust_adjusted_e3.dot").read_text(encoding="utf-8")


def test_export_adjusted_view_to_file(tmp_path):
    out = tmp_path / "e2.dot"
    assert main(["export", FIXTURE, "--at", "4", "--view", "local:e2:e2", "--out", str(out)]) == EX_OK
    dot = out.read_text()
    assert '"a4" -> "a3"' in dot and '"a3" -> "a4"' not in dot


def test_export_empty_view_is_header_only(capsys):
    assert main(["export", FIXTURE, "--at", "0", "--view", "public"]) == EX_OK
    dot = capsys.readouterr().out
    assert "->" not in dot and dot.startswith("digraph")


def test_export_unknown_selector(capsys):
    assert main(["export", FIXTURE, "--view", "secret:e1"]) == EX_VALIDATION


def test_oracle_check(capsys):
    assert main(["oracle-check", "--max-args", "6", "--seed", "3", "--trials", "25"]) == EX_OK
    assert "0 mismatches" in capsys.readouterr().out


def test_oracle_check_reports_each_mismatch_and_exits_1(monkeypatch, capsys):
    # A solver that finds no preferred extension: every trial mismatches once, on that kind.
    real = cli.semantics
    monkeypatch.setattr(cli, "semantics", lambda kind, f: frozenset() if kind is SemanticsKind.PREFERRED else real(kind, f))
    assert main(["oracle-check", "--max-args", "4", "--seed", "1", "--trials", "3"]) == EX_VALIDATION
    out, err = capsys.readouterr()
    assert out == "oracle-check: 3 random frames (max 4 args, seed 1), 3 mismatches\n"
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"MISMATCH trial {k} kind preferred" for k in (1, 2, 3)]
    assert all(" solver [] oracle [[" in line for line in lines)


@pytest.mark.parametrize("args", [
    ["--max-args", "0"],
    ["--max-args", "-1"],
    ["--max-args", "21"],
    ["--max-args", "40", "--trials", "3"],
    ["--trials", "0"],
    ["--trials", "-2"],
])
def test_oracle_check_rejects_bounds_it_cannot_honour_before_solving(args, monkeypatch, capsys):
    def no_solve(*_):
        raise AssertionError("solved a frame before rejecting the options")
    monkeypatch.setattr(cli, "random_frame", no_solve)
    monkeypatch.setattr(cli, "semantics", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", *args])
    assert exc.value.code == EX_USAGE
    assert "is not in 1.." in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing file argument
    assert exc.value.code == EX_USAGE


def test_opponent_model_override_parses_round_trips_and_grows(tmp_path, capsys):
    # e2's model of e1 pinned between its lower bound (the public record and
    # what e2 sees of e1's scope: a1-a3) and e2's awareness: e2 also credits
    # e1 with a4.
    sc = load_bundled("mafia_endgame")
    doc = json.loads(dumps_scenario(sc))
    override = {"args": ["a1", "a2", "a3", "a4"], "attacks": [["a1", "a2"], ["a1", "a3"], ["a3", "a1"]]}
    doc["omega_overrides"] = {"e2": {"e1": override}}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path = write_doc(tmp_path, doc)
    assert main(["validate", path]) == EX_OK
    with_override = parse_scenario(doc)
    assert dumps_scenario(with_override) == text
    frame = ArgumentationFrame.of(override["args"], map(tuple, override["attacks"]))
    assert with_override.initial.overrides == {("e2", "e1"): frame}
    capsys.readouterr()
    for at in range(len(sc.script) + 1):
        announced = sc.script[:at]
        grown = ArgumentationFrame(
            frame.args.union(*(ev.args for ev in announced)),
            frame.attacks.union(*(ev.attacks for ev in announced)),
        )
        assert state_at(with_override, at).overrides == {("e2", "e1"): grown}
        assert main(["query", path, "--at", str(at), "--viewer", "e2", "--subject", "e1", "--view", "perceived"]) == EX_OK
        assert json.loads(capsys.readouterr().out) == sorted_extensions(oracle_semantics(SemanticsKind.PREFERRED, grown))
    assert sorted_extensions(oracle_semantics(SemanticsKind.PREFERRED, frame)) == [["a1", "a4"], ["a2", "a3", "a4"]]

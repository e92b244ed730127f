import json

import pytest

from mmarg.cli import EX_ANNOUNCEMENT, EX_OK, EX_PARSE, EX_USAGE, EX_VALIDATION, main
from mmarg.scenario import ScenarioParseError, dumps_scenario, fixture_path, parse_scenario

from conftest import load_bundled


FIXTURE = fixture_path("mafia_endgame")


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(capsys):
    assert main(["validate", FIXTURE]) == EX_OK
    assert "valid" in capsys.readouterr().out


def test_validate_resolves_bundled_names(capsys):
    assert main(["validate", "mafia_endgame"]) == EX_OK


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == EX_PARSE
    assert "parse error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == EX_PARSE


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    doc["trust"]["e1"]["e3"] = 99999
    assert main(["validate", write_doc(tmp_path, doc)]) == EX_VALIDATION
    assert "trust range" in capsys.readouterr().err


MALFORMED = {
    "arguments not a list": lambda doc: doc.update(arguments=5),
    "omega_overrides not an object": lambda doc: doc.update(omega_overrides=[]),
    "integer scope id": lambda doc: doc["scopes"]["e1"].append(7),
    "list scope id": lambda doc: doc["scopes"]["e1"].append([1]),
    "script not a list": lambda doc: doc.update(script={}),
    "fractional policy step": lambda doc: doc.update(policy={"honest": 1.5}),
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


def test_run_invalid_event_exits_2(tmp_path, capsys):
    doc = json.loads(dumps_scenario(load_bundled("mafia_endgame")))
    doc["script"].append(doc["script"][2])  # verbatim repeat duplicates public attacks
    assert main(["run", write_doc(tmp_path, doc)]) == EX_ANNOUNCEMENT
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["step"] == 5
    assert "invalid announcement" in captured.err


def test_query_public_and_local(capsys):
    assert main(["query", FIXTURE, "--at", "3", "--viewer", "e2", "--subject", "e1", "--view", "public"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["a2", "a3", "a9"]]
    assert main(["query", FIXTURE, "--at", "3", "--viewer", "e2", "--subject", "e1", "--view", "local"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["a1", "a4", "a5"]]


def test_query_trust_adjusted_variant(capsys):
    path = fixture_path("mafia_endgame_trusts_e2")
    assert main(["query", path, "--at", "4", "--viewer", "e3", "--view", "trust-adjusted"]) == EX_OK
    assert json.loads(capsys.readouterr().out) == [["a4", "a5"]]


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
    assert main(["export", FIXTURE, "--at", "4", "--view", "public", "--format", "graph"]) == EX_OK
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert dot.count("style=filled") == 5
    for edge in ('"a3" -> "a4"', '"a3" -> "a5"', '"a5" -> "a2"', '"a5" -> "a3"', '"a4" -> "a9"'):
        assert edge in dot


def test_export_adjusted_view_to_file(tmp_path):
    out = tmp_path / "e2.dot"
    assert main(["export", FIXTURE, "--at", "4", "--view", "adjusted:e2:e2", "--out", str(out)]) == EX_OK
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing file argument
    assert exc.value.code == EX_USAGE

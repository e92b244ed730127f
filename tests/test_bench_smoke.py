"""One untimed pass of each benchmark workload (cli-session, synth-replay,
solve-dense), checked against its committed oracle references: a change under
``src/`` that breaks a benchmark output or the solver rebinding fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _one_pass(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_cli_session_pass_matches_the_references():
    assert _one_pass("cli-session")["attempted"] > 0


def test_synth_replay_pass_matches_the_references():
    # Every game's trace bytes are compared with the committed reference.
    assert _one_pass("synth-replay")["attempted"] == 120


def test_solve_dense_pass_matches_the_references():
    # 1000 frames of 13 arguments, each solved for every semantics kind:
    # larger frames than the oracle cross-check of the acceptance tests draws.
    assert _one_pass("solve-dense")["attempted"] == 3000

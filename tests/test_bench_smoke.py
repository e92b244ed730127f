"""One untimed pass of the benchmark's cli-session workload, checked
against its committed oracle references: a change under ``src/`` that
breaks a benchmark output or the solver rebinding fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_session_pass_matches_the_references():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-session", "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0

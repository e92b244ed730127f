import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mmarg.cli import EX_OK, EX_USAGE
from mmarg.scenario import bundled_scenarios

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child with ``src/`` on its path, as an uninstalled checkout runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_replay_script_runs_on_bundled_fixture(name):
    done = run_python(str(ROOT / "scripts" / "replay_mafia.py"), name, "--with-semantics")
    assert done.returncode == 0, done.stderr
    assert f"scenario: {name}" in done.stdout and "trust-adjusted" in done.stdout


def test_the_cli_module_runs_as_a_script():
    done = run_python("-m", "mmarg.cli", "validate", "mafia_endgame")
    assert (done.returncode, done.stdout) == (EX_OK, "mafia_endgame: valid\n"), done.stderr
    assert run_python("-m", "mmarg.cli").returncode == EX_USAGE


def test_the_output_digest_prints_a_count_and_a_sha256():
    done = run_python(str(ROOT / "scripts" / "output_digest.py"))
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"[1-9][0-9]* [0-9a-f]{64}\n", done.stdout), done.stdout


def test_each_mutant_of_the_harness_names_a_text_that_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {m.name: (ROOT / m.file).read_text(encoding="utf-8").count(m.old) for m in mutants.MUTANTS}
    assert counts == dict.fromkeys(counts, 1)

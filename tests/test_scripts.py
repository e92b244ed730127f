import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmarg.scenario import bundled_scenarios

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", bundled_scenarios())
def test_replay_script_runs_on_bundled_fixture(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_mafia.py"), name, "--with-semantics"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert f"scenario: {name}" in done.stdout and "trust-adjusted" in done.stdout

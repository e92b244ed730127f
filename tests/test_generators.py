"""The conftest generators depend on their ``random.Random`` alone."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import random_announcement, random_state

ROOT = Path(__file__).resolve().parents[1]


def _frame(f):
    return [sorted(f.args), sorted(f.attacks)]


def fingerprint(seed: int, count: int = 40) -> str:
    """Canonical JSON of ``count`` random states, each with one random announcement."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = random_state(rng)
        ev = random_announcement(rng, m)
        out.append({
            "global": _frame(m.global_af),
            "public": _frame(m.public_af),
            "scope": {e: sorted(args) for e, args in sorted(m.scope.items())},
            "aware": {e: _frame(f) for e, f in sorted(m.aware.items())},
            "sem_model": sorted([v, s, k.value] for (v, s), k in m.sem_model.items()),
            "intra": sorted([v, s, sorted(p)] for (v, s), p in m.intra.items()),
            "trust": sorted([v, s, t] for (v, s), t in m.trust.items()),
            "event": None if ev is None else [_frame(ev), sorted(ev.announcers)],
        })
    return json.dumps(out, sort_keys=True)


def test_random_generators_ignore_the_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "tests"), str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "from test_generators import fingerprint; print(fingerprint(5))"
    outputs = []
    for hash_seed in ("0", "32"):
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]

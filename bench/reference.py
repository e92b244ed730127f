"""Reference outputs, and the hook that swaps the solver.

The references come from replaying every operation with the brute-force
oracle (``mmarg.oracle.oracle_semantics``) in place of the solver, through
the same rebinding hook the tracer uses, so they never depend on the
solver under test.  References for ``DEFAULT_SEED`` are committed in
``references/``; for any other seed, or when the inputs no longer match
the committed fingerprint, they are computed in two child processes before
anything is timed.

    python3 bench/reference.py            # rewrite the committed references
    python3 bench/reference.py --worker W # one worker: items on stdin, digests on stdout
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for _p in (str(HERE), str(SRC)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import workloads  # noqa: E402

DEFAULT_SEED = 0
REF_FILE = HERE / "references" / f"seed{DEFAULT_SEED}.json"
WORKERS = 2


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def import_mmarg(names) -> workloads.Modules:
    for name in names:
        importlib.import_module(name)
    return workloads.Modules()


def _mmarg_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "mmarg" or name.startswith("mmarg.")]


@contextlib.contextmanager
def rebound(replacements: dict):
    """Rebind every ``mmarg`` module attribute that is a key of
    ``replacements`` to its value, and restore them on exit.

    Modules import functions by name (``from .semantics import semantics``),
    so replacing a function everywhere means rebinding each alias.
    """
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    saved = []
    for mod in _mmarg_modules():
        for key, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((mod, key, value))
                setattr(mod, key, hit[1])
    try:
        yield
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


def memo_oracle():
    """The oracle, memoised per (kind, frame) and sharing one subset
    enumeration between the three kinds of the same frame."""
    oracle = sys.modules["mmarg.oracle"]
    results: dict = {}
    subsets: dict = {}
    enumerate_subsets = getattr(oracle, "_complete_subsets", None)

    def shared_subsets(f):
        if f not in subsets:
            subsets[f] = enumerate_subsets(f)
        return subsets[f]

    def solve(kind, f):
        key = (str(getattr(kind, "value", kind)), f)
        if key not in results:
            results[key] = oracle.oracle_semantics(kind, f)
        return results[key]

    extra = {enumerate_subsets: shared_subsets} if enumerate_subsets is not None else {}
    return solve, extra


def _outputs_chunk(name: str, items: list) -> list[str]:
    w = workloads.WORKLOADS[name]
    mods = import_mmarg(w.modules + ("mmarg.oracle",))
    solve, extra = memo_oracle()
    with rebound({mods.pkg.semantics: solve, **extra}):
        loaded = w.load(mods, items)
        return [digest(canon(call())) for call, canon in w.ops(mods, items, loaded)]


def compute(name: str, items: list) -> list[str]:
    """Oracle-backed output digests, one per op, from ``WORKERS`` child
    processes that each take a contiguous share of the items."""
    size = max(1, -(-len(items) // WORKERS))
    procs = []
    try:
        for i in range(0, len(items), size):
            proc = subprocess.Popen([sys.executable, __file__, "--worker", name], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(json.dumps(items[i:i + size]).encode("utf-8"))
            proc.stdin.close()
        outputs = []
        for proc in procs:
            text = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"reference worker for {name} exited with {proc.returncode}")
            outputs += json.loads(text)
        return outputs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def committed() -> dict:
    if not REF_FILE.exists():
        return {}
    return json.loads(REF_FILE.read_text(encoding="utf-8"))


def references(name: str, items: list) -> list[str]:
    """Committed references when they match these inputs, else fresh ones."""
    entry = committed().get(name)
    if entry is not None and entry["inputs"] == digest(workloads.fingerprint(name, items)):
        return entry["outputs"]
    return compute(name, items)


def write_committed() -> None:
    out = {}
    for name, w in workloads.WORKLOADS.items():
        items = w.generate(DEFAULT_SEED)
        out[name] = {"inputs": digest(workloads.fingerprint(name, items)), "outputs": compute(name, items)}
    REF_FILE.parent.mkdir(exist_ok=True)
    REF_FILE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(_outputs_chunk(sys.argv[2], json.load(sys.stdin))))
    else:
        write_committed()

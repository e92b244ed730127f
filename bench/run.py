#!/usr/bin/env python3
"""The mmarg benchmark: one closed-loop caller, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, gets the oracle-backed
reference outputs (committed for the default seed, else computed in
child processes before anything is timed), times the set-up, then runs
one whole pass over the workload's operations and then on, in the same
order, until ``--seconds`` have passed, checking every output against its
reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then, with the layer wrappers installed, one traced load of
the inputs and one traced pass (outputs still checked), and reports the
per-layer metrics; the spans go to ``bench/out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

SETUP_REPS = 9
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Metric names and units live in BENCHMARK.json alone.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# Candidate tail percentiles; a workload reports the highest one that
# leaves at least ten samples beyond it in a single pass over its ops, so
# the percentile is fixed by the workload and not by how fast it ran.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


@dataclass
class Samples:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)


def tail_percentile(ops_per_pass: int) -> float:
    ok = [p for p in TAIL_LADDER if ops_per_pass - math.ceil(p * ops_per_pass / 100) >= 10]
    if not ok:
        raise ValueError(f"{ops_per_pass} ops per pass leave no percentile with ten samples beyond it")
    return ok[-1]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def measure_setup(w: workloads.Workload, items: list):
    """Median time to import ``mmarg`` afresh and load every input."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules if n == "mmarg" or n.startswith("mmarg.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        mods = reference.import_mmarg(w.modules)
        loaded = w.load(mods, items)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), mods, loaded


def run_ops(ops: list, refs: list[str], seconds: float | None, samples: Samples, invoke=None) -> Samples:
    """One whole pass over ``ops``, then on in the same order until
    ``seconds`` have passed (no further when ``seconds`` is None)."""
    start = time.perf_counter()
    i = 0
    while True:
        call, canon = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            out = call() if invoke is None else invoke(call)
            ok = True
        except Exception:
            ok = False
            if samples.failed == 0:
                traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        samples.latencies.append(t1 - t0)
        if ok:
            try:
                ok = reference.digest(canon(out)) == refs[i % len(ops)]
            except Exception:
                ok = False
        if not ok:
            samples.failed += 1
        i += 1
        if i >= len(ops) and (seconds is None or t1 - start >= seconds):
            return samples


def end_to_end(run: Samples, setup_s: float, tail_p: float) -> dict[str, float]:
    return {
        "ops_per_s": run.ops_per_s,
        "op_p50_ms": statistics.median(run.latencies) * 1e3,
        "op_tail_ms": percentile(run.latencies, tail_p) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    w = workloads.WORKLOADS[ns.workload]
    items = w.generate(ns.seed)
    refs = reference.references(w.name, items)
    setup_s, mods, loaded = measure_setup(w, items)
    ops = w.ops(mods, items, loaded)
    if len(refs) != len(ops):
        raise RuntimeError(f"{len(ops)} ops but {len(refs)} reference outputs")
    tail_p = tail_percentile(len(ops))
    run_ops(ops[:10], refs[:10], None, Samples())  # warm-up, not counted

    print(f"workload {w.name}  seed {ns.seed}  {len(ops)} ops per pass, one op = one {w.op_unit}")
    if ns.trace == 0:
        run = run_ops(ops, refs, ns.seconds, Samples())
        metrics = end_to_end(run, setup_s, tail_p)
        section = "end_to_end"
        notes = {
            "op_tail_ms": f"p{tail_p:g} of {run.attempted} samples",
            "setup_s": f"median of {SETUP_REPS} imports + loads",
            "ops_per_s": f"{run.attempted - run.failed} ok ops / {sum(run.latencies):.3f} s in ops",
        }
    else:
        untraced = run_ops(ops, refs, ns.seconds / 2, Samples())
        tracer = tracing.Tracer()
        with tracer.install():
            w.load(mods, items)  # one traced set-up load, outside any op span
            traced = run_ops(ops, refs, None, Samples(), tracer.run_op)
        tracer.write(OUT_DIR / f"spans-{w.name}-seed{ns.seed}.tsv")
        run = Samples(untraced.latencies + traced.latencies, untraced.failed + traced.failed)
        metrics = tracer.metrics(untraced.ops_per_s / traced.ops_per_s - 1)
        section = "per_layer"
        notes = {"trace.overhead": f"untraced {untraced.ops_per_s:.4g} ops/s over traced {traced.ops_per_s:.4g} ops/s, minus 1"}

    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    error_rate = run.failed / run.attempted
    print(f"attempted {run.attempted}  failed {run.failed}  error_rate {error_rate:g}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

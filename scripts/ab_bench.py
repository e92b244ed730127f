#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts.

Usage: python3 scripts/ab_bench.py BASE CHANGE --workload W --seed N --seconds S --pairs K

Runs each checkout's own ``bench/run.py --trace 0`` K times, in pairs
whose order alternates: BASE runs first in odd pairs, CHANGE in even ones.
Prints every pair's values, with each run's failed and attempted op
counts (``peak_rss_mb`` grows with the ops a run completes), then for each
end-to-end metric named in BASE's ``BENCHMARK.json`` the median and
quartiles of each side, the change/base ratio of the medians, the median
and quartiles of the per-pair change/base ratios (machine drift within a
session widens each side's quartiles but moves both runs of a pair), how
many pairs the change won (ties count for neither side) and a verdict:
``gain shown``, ``worse than bound``, ``unresolved`` or ``no change shown``
(see :func:`verdict`).  A last ``attempted`` line gives each side's median and
quartiles of attempted ops and their change/base ratio, so a move in
``peak_rss_mb`` can be read against the op count that drives it.  Exits 1
when any run reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

# (checkout, workload, seed, seconds) -> the run's standard output.
Runner = Callable[[Path, str, int, float], str]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """One untraced benchmark run in ``checkout``; raises if it exits non-zero."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout


def parse_result(stdout: str) -> dict:
    """The JSON result, which ``bench/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_lines(i: int, base: dict, change: dict, metrics: list[dict]) -> list[str]:
    """The values of pair ``i``, ``metrics`` as in ``BENCHMARK.json``'s ``end_to_end``."""
    first = "base" if i % 2 else "change"
    lines = [f"pair {i} ({first} first): failed {base['failed']}/{change['failed']}  "
             f"attempted {base['attempted']}/{change['attempted']}"]
    for m in metrics:
        name = m["name"]
        lines.append(f"  {name:12s} base {base['metrics'][name]['value']:12.6g}  change {change['metrics'][name]['value']:12.6g}")
    return lines


def spread(q: tuple[float, float, float]) -> str:
    """``median [first quartile, third quartile]``."""
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def summary_lines(base: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """Per metric: each side's median and quartiles, the change/base ratio of medians, the median and
    quartiles of the per-pair change/base ratios, the wins."""
    lines = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        bv = [r["metrics"][name]["value"] for r in base]
        cv = [r["metrics"][name]["value"] for r in change]
        wins = sum(sign * (y - x) > 0 for x, y in zip(bv, cv))
        beats_all = min(sign * y for y in cv) > max(sign * x for x in bv)
        bq, cq = quartiles(bv), quartiles(cv)
        bmed, cmed = bq[1], cq[1]
        ratio = f"{cmed / bmed:.3f}" if bmed else "n/a"
        pair_ratios = "n/a"
        if all(bv):
            rq1, rmed, rq3 = quartiles([y / x for x, y in zip(bv, cv)])
            pair_ratios = f"{rmed:.3f} [{rq1:.3f}, {rq3:.3f}]"
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): base {spread(bq)}  "
            f"change {spread(cq)}  change/base {ratio}  pair ratios {pair_ratios}  "
            f"change wins {wins} of {len(bv)}  "
            + verdict(sign, m["bound"], wins / len(bv), bq, cq, beats_all)
        )
    return lines


def attempted_line(base: list[dict], change: list[dict]) -> str:
    """Each side's median and quartiles of attempted ops per run, and the change/base ratio of medians."""
    bq, cq = (quartiles([r["attempted"] for r in side]) for side in (base, change))
    ratio = f"{cq[1] / bq[1]:.3f}" if bq[1] else "n/a"
    return f"attempted (ops per run, which peak_rss_mb grows with): base {spread(bq)}  change {spread(cq)}  change/base {ratio}"


def verdict(sign: int, bound: float, win_share: float, base: tuple[float, float, float],
            change: tuple[float, float, float], beats_all: bool) -> str:
    """``gain shown`` when the change won at least 9 pairs in 10, and its median lies beyond the base's
    quartile range on the better side and is better than the base median by more than that range is
    wide; ``worse than bound`` when its median is worse than the base median by more than ``bound``
    times the base median; ``unresolved`` when either side's quartile range is wider than ``bound``
    times its own median, unless every change run beat every base run (``beats_all``), since a spread
    past the bound could hide a move past it; else ``no change shown``.  ``base`` and ``change`` are
    (first quartile, median, third quartile); ``sign`` is 1 when higher is better, else -1."""
    bq1, bmed, bq3 = base
    change_median = change[1]
    beyond = sign * change_median > sign * (bq3 if sign > 0 else bq1)
    if win_share >= 0.9 and beyond and sign * (change_median - bmed) > bq3 - bq1:
        return "gain shown"
    if sign * (bmed - change_median) > bound * abs(bmed):
        return "worse than bound"
    if not beats_all and any(q3 - q1 > bound * abs(med) for q1, med, q3 in (base, change)):
        return "unresolved"
    return "no change shown"


def main(argv: list[str] | None = None, run: Runner = run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ns.base / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    print(f"workload {ns.workload}  seed {ns.seed}  {ns.seconds:g} s per run  {ns.pairs} pairs", flush=True)
    checkouts = (ns.base, ns.change)
    results: tuple[list[dict], list[dict]] = ([], [])
    for i in range(1, ns.pairs + 1):
        for side in ((0, 1) if i % 2 else (1, 0)):
            results[side].append(parse_result(run(checkouts[side], ns.workload, ns.seed, ns.seconds)))
        print("\n".join(pair_lines(i, results[0][-1], results[1][-1], metrics)), flush=True)
    print("\n".join(["", *summary_lines(*results, metrics), attempted_line(*results)]))
    wrong = [(name, i) for name, side in zip(("base", "change"), results)
             for i, r in enumerate(side, start=1) if r["correct"] is not True]
    for name, i in wrong:
        print(f"{name} run of pair {i} reports incorrect outputs", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

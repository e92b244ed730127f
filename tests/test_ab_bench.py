"""scripts/ab_bench.py on canned benchmark output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]


def canned(ops_per_s, correct=True):
    """What ``bench/run.py`` prints: a table, then the JSON result as the last line."""
    values = dict.fromkeys(METRICS, 10.0) | {"ops_per_s": ops_per_s}
    result = {
        "correct": correct,
        "attempted": 20 * ops_per_s,
        "failed": 0 if correct else 3,
        "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()},
    }
    return f"workload synth-replay  seed 0\n  ops_per_s {ops_per_s}\n{json.dumps(result)}\n"


def fake_runner(base, base_values, change_values, wrong=()):
    calls = []
    queues = {"base": list(base_values), "change": list(change_values)}

    def run(checkout, workload, seed, seconds):
        side = "base" if checkout == base else "change"
        calls.append((side, workload, seed, seconds))
        return canned(queues[side].pop(0), correct=(side, len(calls)) not in wrong)

    return run, calls


def test_pairs_alternate_and_the_summary_reads_medians_quartiles_ratio_and_wins(tmp_path, capsys):
    run, calls = fake_runner(ROOT, [50, 52, 48, 51], [70, 75, 47, 72])
    argv = [str(ROOT), str(tmp_path), "--workload", "synth-replay", "--seed", "0", "--seconds", "20", "--pairs", "4"]
    assert ab_bench.main(argv, run=run) == 0
    assert [c[0] for c in calls] == ["base", "change", "change", "base", "base", "change", "change", "base"]
    assert set(c[1:] for c in calls) == {("synth-replay", 0, 20.0)}
    out = capsys.readouterr().out
    assert "pair 2 (change first)" in out
    assert "base           52  change           75" in out
    summary = next(line for line in out.splitlines() if line.startswith("ops_per_s"))
    assert "base 50.5 [49.5, 51.25]" in summary
    assert "change 71 [64.25, 72.75]" in summary
    assert "change/base 1.406" in summary and "change wins 3 of 4" in summary
    # Pair ratios 1.4, 75/52, 47/48 and 72/51: median (1.4 + 72/51) / 2, quartiles inclusive of the extremes.
    assert "pair ratios 1.406 [1.295, 1.419]" in summary
    # Equal values on both sides are ties, won by neither.
    setup = next(line for line in out.splitlines() if line.startswith("setup_s"))
    assert "change/base 1.000" in setup and "pair ratios 1.000 [1.000, 1.000]" in setup
    assert "change wins 0 of 4" in setup
    # Attempted ops (20 per op/s in the canned runs) follow peak_rss_mb, with each side's spread and the ratio.
    lines = out.splitlines()
    attempted = next(line for line in lines if line.startswith("attempted ("))
    assert lines.index(attempted) == lines.index(next(line for line in lines if line.startswith("peak_rss_mb"))) + 1
    assert "base 1010 [990, 1025]  change 1420 [1285, 1455]  change/base 1.406" in attempted


def run_result(ops_per_s, peak_rss_mb):
    result = json.loads(canned(ops_per_s).splitlines()[-1])
    result["metrics"]["peak_rss_mb"]["value"] = peak_rss_mb
    return result


def test_the_attempted_line_reads_the_extra_peak_rss_per_extra_op_in_bytes():
    # Attempted ops are 20 per op/s: pairs of 200 and 100 extra ops grow by 0.25 and 0.5 MB, and a tie is
    # skipped, as is a pair whose ops differ by under 5% of the base run's (1040 against 1000), whose
    # 1 MB drop would otherwise pull the median below zero.
    base = [run_result(50, 40.0)] * 4
    change = [run_result(60, 40.25), run_result(55, 40.5), run_result(50, 45.0), run_result(52, 39.0)]
    line = ab_bench.attempted_line(base, change)
    # The median of 0.25 MiB / 200 = 1310.72 B and 0.5 MiB / 100 = 5242.88 B.
    assert line.endswith("  peak_rss_mb per extra op 3277 B")
    assert ab_bench.attempted_line(base, base[::-1]).endswith("  peak_rss_mb per extra op n/a")
    assert ab_bench.attempted_line(base[3:], change[3:]).endswith("  peak_rss_mb per extra op n/a")
    # 1050 against 1000 ops is 5%, so that pair counts.
    assert ab_bench.attempted_line(base[:1], [run_result(52.5, 40.5)]).endswith("  peak_rss_mb per extra op 10486 B")


def test_lower_is_better_metrics_count_a_drop_as_a_win():
    metrics = [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]
    base = [json.loads(canned(1).splitlines()[-1]) for _ in range(2)]
    change = [json.loads(canned(1).splitlines()[-1]) for _ in range(2)]
    change[0]["metrics"]["op_p50_ms"]["value"] = 5.0
    change[1]["metrics"]["op_p50_ms"]["value"] = 15.0
    (line,) = ab_bench.summary_lines(base, change, metrics)
    assert "change wins 1 of 2" in line


def test_an_incorrect_run_makes_the_exit_status_nonzero(tmp_path, capsys):
    run, _ = fake_runner(ROOT, [50, 50], [60, 60], wrong={("change", 3)})
    argv = [str(ROOT), str(tmp_path), "--workload", "cli-session", "--seed", "1", "--seconds", "1", "--pairs", "2"]
    assert ab_bench.main(argv, run=run) == 1
    captured = capsys.readouterr()
    assert "change run of pair 2 reports incorrect outputs" in captured.err
    assert "failed 0/3" in captured.out
    assert "pair 1 (base first): failed 0/0  attempted 1000/1200" in captured.out
    assert "pair 2 (change first): failed 0/3  attempted 1000/1200" in captured.out


def summary(base_values, change_values, capsys, tmp_path):
    run, _ = fake_runner(ROOT, base_values, change_values)
    argv = [str(ROOT), str(tmp_path), "--workload", "cli-session", "--seed", "0", "--seconds", "20",
            "--pairs", str(len(base_values))]
    assert ab_bench.main(argv, run=run) == 0
    lines = capsys.readouterr().out.splitlines()
    return {name: next(line for line in lines if line.startswith(name + " (")) for name in METRICS}


def test_nine_wins_in_ten_beyond_the_base_quartiles_show_a_gain(tmp_path, capsys):
    base = [100, 104, 98, 101, 99, 103, 97, 102, 100, 105]
    change = [120, 118, 121, 119, 96, 122, 117, 120, 123, 119]
    lines = summary(base, change, capsys, tmp_path)
    assert "change wins 9 of 10" in lines["ops_per_s"]
    assert lines["ops_per_s"].endswith("  gain shown")
    # Every other metric reads the same on both sides.
    assert all(lines[name].endswith("  no change shown") for name in METRICS if name != "ops_per_s")


def test_pair_ratios_show_a_steady_win_that_drift_hides_from_the_verdict(tmp_path, capsys):
    # The machine speeds up run by run, so the base's own quartiles span the change's median,
    # yet every pair reads the change 1.25 times faster.
    base = [100 + 40 * i for i in range(10)]
    change = [1.25 * x for x in base]
    line = summary(base, change, capsys, tmp_path)["ops_per_s"]
    assert "base 280 [190, 370]" in line and "change 350 [237.5, 462.5]" in line
    assert "pair ratios 1.250 [1.250, 1.250]" in line and "change wins 10 of 10" in line
    # The base's quartile range, 180, is wider than 0.25 of its median, so the verdict cannot tell.
    assert line.endswith("  unresolved")


def test_a_zero_base_value_has_no_pair_ratios():
    metrics = [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]
    base = [json.loads(canned(1).splitlines()[-1]) for _ in range(2)]
    change = [json.loads(canned(1).splitlines()[-1]) for _ in range(2)]
    base[0]["metrics"]["op_p50_ms"]["value"] = 0.0
    (line,) = ab_bench.summary_lines(base, change, metrics)
    assert "pair ratios n/a" in line


def test_eight_wins_or_a_median_inside_the_quartiles_show_no_change(tmp_path, capsys):
    base = [100, 104, 98, 101, 99, 103, 97, 102, 100, 105]
    eight = [120, 118, 121, 119, 96, 122, 95, 120, 123, 119]
    assert summary(base, eight, capsys, tmp_path)["ops_per_s"].endswith("  no change shown")
    close = [x + 0.5 for x in base]
    line = summary(base, close, capsys, tmp_path)["ops_per_s"]
    assert "change wins 10 of 10" in line and line.endswith("  no change shown")


def test_a_median_past_the_bound_reads_worse_than_bound(tmp_path, capsys):
    base = [100, 104, 98, 101]
    assert summary(base, [74, 76, 70, 80], capsys, tmp_path)["ops_per_s"].endswith("  worse than bound")
    # 0.25 is the bound of ops_per_s: a median 24% lower is within it.
    assert summary(base, [76, 77, 75, 78], capsys, tmp_path)["ops_per_s"].endswith("  no change shown")


def lower_is_better(win_share, base, change, beats_all=False):
    """The verdict on op_p50_ms, whose bound is 0.25; a bare number for ``change`` is a run-free median."""
    change = change if isinstance(change, tuple) else (change,) * 3
    return ab_bench.verdict(-1, 0.25, win_share, base, change, beats_all)


def test_a_lower_is_better_metric_reads_its_gain_and_its_bound_downward():
    assert lower_is_better(1.0, (9.0, 10.0, 11.0), 7.5) == "gain shown"
    # Below the first quartile, but by less than the quartile range from the median.
    assert lower_is_better(1.0, (9.0, 10.0, 11.0), 8.5) == "no change shown"
    assert lower_is_better(0.8, (9.0, 10.0, 11.0), 7.5) == "no change shown"
    assert lower_is_better(1.0, (9.0, 10.0, 11.0), 9.5) == "no change shown"
    assert lower_is_better(0.0, (9.0, 10.0, 11.0), 12.6) == "worse than bound"
    assert lower_is_better(0.0, (9.0, 10.0, 11.0), 12.4) == "no change shown"


def test_a_spread_wider_than_the_bound_reads_unresolved():
    # Either side's quartile range is 2.6, past 0.25 of its median of 10.
    assert lower_is_better(0.5, (8.7, 10.0, 11.3), 10.0) == "unresolved"
    assert lower_is_better(0.5, (9.0, 10.0, 11.0), (8.7, 10.0, 11.3)) == "unresolved"
    # A range of 2.4 is within the bound.
    assert lower_is_better(0.5, (8.8, 10.0, 11.2), (8.8, 10.0, 11.2)) == "no change shown"
    # Unless every change run beat every base run.
    assert lower_is_better(1.0, (8.7, 10.0, 11.3), 8.0, beats_all=True) == "no change shown"
    assert lower_is_better(1.0, (8.7, 10.0, 11.3), 8.0) == "unresolved"


def test_a_gain_or_a_move_past_the_bound_outranks_a_wide_spread():
    assert lower_is_better(1.0, (9.0, 10.0, 11.0), (2.0, 5.0, 8.0)) == "gain shown"
    assert lower_is_better(0.0, (5.0, 10.0, 15.0), 13.0) == "worse than bound"


def test_every_change_run_beating_every_base_run_resolves_a_wide_spread(tmp_path, capsys):
    # The base's quartile range, 100, is four times its bound and wider than the change's lead of 60.
    base = [50, 150, 100, 50, 150, 50, 100, 150, 50, 150]
    change = [160, 155, 165, 160, 158, 162, 160, 157, 163, 160]
    line = summary(base, change, capsys, tmp_path)["ops_per_s"]
    assert "base 100 [50, 150]" in line and "change 160 [158.5, 161.5]" in line
    assert line.endswith("  no change shown")
    # One change run below the base's best leaves the spread unresolved.
    assert summary(base, change[:-1] + [149], capsys, tmp_path)["ops_per_s"].endswith("  unresolved")

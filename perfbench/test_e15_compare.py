"""The A/B verdict rules of compare.py, on synthetic run sets."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "e15_compare", Path(__file__).resolve().parent / "compare.py"
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

BOUNDS = {"throughput_rps": ("higher", 0.10), "latency_p50_s": ("lower", 0.10)}


def _write_runs(directory: Path, throughputs, latencies, failed=0) -> None:
    for index, (rps, p50) in enumerate(zip(throughputs, latencies)):
        run = directory / f"run-{index:02d}"
        run.mkdir(parents=True)
        result = {
            "correct": failed == 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "throughput_rps": {"value": rps, "unit": "req/s"},
                "latency_p50_s": {"value": p50, "unit": "s"},
            },
        }
        report = {"workloads": {"running-dsl": {"untraced": result}}}
        (run / "BENCH_e15_pipeline.json").write_text(json.dumps(report))


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # clear win on every pair, gap far beyond the parent's spread
        ([5.0, 5.1, 4.9, 5.0, 5.05], [6.0, 6.1, 5.9, 6.0, 6.05], "higher", "improved"),
        ([0.20, 0.21, 0.19, 0.20, 0.20], [0.15, 0.15, 0.14, 0.16, 0.15], "lower", "improved"),
        # within the bound either way
        ([5.0, 5.1, 4.9, 5.0, 5.05], [4.9, 5.0, 5.0, 4.95, 5.1], "higher", "no-regression"),
        # 20% worse with a tight spread
        ([5.0, 5.1, 4.9, 5.0, 5.05], [4.0, 4.05, 3.95, 4.0, 4.02], "higher", "regressed"),
        ([0.20, 0.21, 0.19, 0.20, 0.20], [0.25, 0.25, 0.24, 0.26, 0.25], "lower", "regressed"),
        # the parent's own runs spread wider than the bound
        ([4.0, 6.0, 5.0, 3.5, 6.5], [4.2, 5.8, 4.9, 3.6, 6.4], "higher", "unresolved"),
    ],
)
def test_verdicts(parent, change, better, expected):
    outcome, _wins = compare.verdict(parent, change, better, 0.10)
    assert outcome == expected


def test_wide_spread_resolves_when_every_change_run_is_better():
    parent = [4.0, 4.5, 5.0, 3.6, 4.8]
    change = [5.1, 5.9, 6.8, 5.2, 7.0]
    outcome, wins = compare.verdict(parent, change, "higher", 0.10)
    assert wins == 1.0
    assert outcome in ("improved", "no-regression")


def test_win_fraction_counts_ties_for_neither_side():
    _outcome, wins = compare.verdict([1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.1, 1.0], "lower", 0.10)
    assert wins == 0.25


def test_directories_and_failed_ratio_flag(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": name, "unit": "x", "better": better, "bound": bound}
        for name, (better, bound) in BOUNDS.items()
    ]}))
    _write_runs(tmp_path / "parent", [5.0, 5.1, 4.9], [0.20, 0.21, 0.19])
    _write_runs(tmp_path / "same", [5.05, 5.0, 4.95], [0.20, 0.20, 0.21])
    _write_runs(tmp_path / "failing", [5.05, 5.0, 4.95], [0.20, 0.20, 0.21], failed=1)

    args = [str(tmp_path / "parent"), str(tmp_path / "same"), "--benchmark", str(bench)]
    assert compare.main(args) == 0
    printed = capsys.readouterr().out
    assert printed.count("no-regression") == 2 and "FLAG" not in printed

    args[1] = str(tmp_path / "failing")
    assert compare.main(args) == 1
    assert "failed_ratio rose" in capsys.readouterr().out

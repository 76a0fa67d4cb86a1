"""A/B verdicts for e15: the parent's runs against the change's runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``BENCH_e15_pipeline.json`` files of several
runs (any depth below it, taken in path order).  Run *i* of the parent
pairs with run *i* of the change, so make the runs alternately, the
parent first in one pair and the change first in the next.  For every
(workload, end-to-end metric) this prints both sides' medians and
quartiles, the change's win fraction over the pairs (ties count for
neither side) and one verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ, in its favour, by more than the parent's quartile spread;
* ``unresolved``: one side's run-to-run spread (quartile distance over
  median) is wider than the metric's bound, unless every change run
  reads better than every parent run;
* ``regressed``: the change's median is worse than the parent's by
  more than the bound;
* ``no-regression``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  A rise in a
workload's ``failed_ratio`` (failed / attempted requests over all runs)
is flagged.  Exits 1 when anything regressed or ``failed_ratio`` rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
REPORT = "BENCH_e15_pipeline*.json"


def load_runs(directory) -> List[dict]:
    """Every e15 report below ``directory``, in path order."""
    paths = sorted(Path(directory).rglob(REPORT))
    if not paths:
        raise SystemExit(f"compare: no {REPORT} under {directory}")
    return [json.loads(path.read_text()) for path in paths]


def load_bounds(benchmark) -> Dict[str, Tuple[str, float]]:
    """End-to-end metric name -> (better, bound) from BENCHMARK.json."""
    declared = json.loads(Path(benchmark).read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def _relative_spread(values: Sequence[float]) -> float:
    low, middle, high = quartiles(values)
    return (high - low) / abs(middle) if middle else 0.0


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict on one metric, and the change's win fraction."""
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0: worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
    p_low, p_mid, p_high = quartiles(parent)
    c_mid = statistics.median(change)
    gap = sign * (c_mid - p_mid)
    if wins >= 0.9 and gap < 0 and -gap > p_high - p_low:
        return "improved", wins
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    spread = max(_relative_spread(parent), _relative_spread(change))
    if spread > bound and not every_run_better:
        return "unresolved", wins
    worse = gap / abs(p_mid) if p_mid else (0.0 if gap == 0 else float("inf"))
    return ("regressed" if worse > bound else "no-regression"), wins


def _series(runs: List[dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        result = run["workloads"].get(workload, {}).get("untraced")
        if result and metric in result["metrics"]:
            values.append(result["metrics"][metric]["value"])
    return values


def failed_ratio(runs: List[dict], workload: str) -> float:
    failed = attempted = 0
    for run in runs:
        result = run["workloads"].get(workload, {}).get("untraced")
        if result:
            failed += result["failed"]
            attempted += result["attempted"]
    return failed / attempted if attempted else 0.0


def compare(parent_runs, change_runs, bounds) -> Tuple[List[list], List[str]]:
    """Table rows and failed-ratio flags for two sets of runs."""
    rows, flags = [], []
    workloads = sorted(
        {name for run in parent_runs for name in run["workloads"]}
        & {name for run in change_runs for name in run["workloads"]}
    )
    for workload in workloads:
        for metric, (better, bound) in bounds.items():
            parent = _series(parent_runs, workload, metric)
            change = _series(change_runs, workload, metric)
            if not parent or not change:
                continue
            outcome, wins = verdict(parent, change, better, bound)
            rows.append([workload, metric, quartiles(parent), quartiles(change), wins, outcome])
        before, after = failed_ratio(parent_runs, workload), failed_ratio(change_runs, workload)
        if after > before:
            flags.append(f"{workload}: failed_ratio rose from {before:.4g} to {after:.4g}")
    return rows, flags


def _fmt(triple) -> str:
    low, middle, high = triple
    return f"{middle:.4g} [{low:.4g}, {high:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    rows, flags = compare(
        load_runs(args.parent_dir), load_runs(args.change_dir), load_bounds(args.benchmark)
    )
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict"]
    table = [header] + [
        [w, m, _fmt(p), _fmt(c), f"{wins:.2f}", v] for w, m, p, c, wins, v in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags or any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

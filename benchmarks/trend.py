#!/usr/bin/env python3
"""Diff ``BENCH_*.json`` artifacts against a rolling history and flag
regressions.

CI uploads the quick-mode bench measurements of every PR as
``BENCH_*.json`` files and keeps the last few runs in the workflow
cache (one ``run-*`` subdirectory per run).  This script compares the
current run against the **per-metric median** of that history — a
single noisy neighbour on a shared runner can no longer manufacture or
mask a regression — and prints each metric's movement, flagging changes
past a threshold (default 20%) in the metric's *bad* direction:

* metrics whose key mentions time (``seconds``, ``per_probe``) or ends
  in a time or memory unit (``setup_s``, ``self_s``, ``peak_rss_mb``)
  regress by going **up**;
* metrics whose key mentions rate or yield (``speedup``,
  ``throughput``, ``per_sec``, ``bytes_per_s``, ``hit_ratio``,
  ``_yield``) regress by going **down**;
* other numeric metrics are reported when they move but never flagged —
  sizes and counts have no universal polarity.

Exit status is 1 when any regression was flagged (CI surfaces it as a
warning rather than failing the build: quick-mode numbers on shared
runners are noisy, and the artifact history is the ground truth).

Usage::

    python benchmarks/trend.py CURRENT_DIR HISTORY_DIR [--threshold 0.2]
                                                       [--window 5]

``HISTORY_DIR`` either contains ``BENCH_*.json`` directly (a single
previous run — the pre-rolling layout, still supported) or ``run-*``
subdirectories, of which the lexicographically-last ``--window`` are
used (CI names them by zero-padded run number, so that is recency
order).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys
from typing import Dict, Iterator, List, Tuple

# p50/p99 cover the flight recorder's per-phase latency digests
# (BENCH_trace_phases.json and BatchSummary.phase_latencies leaves);
# ns_per_op covers the columnar kernel's per-operation micro-benches
# (BENCH_e13_kernel.json intern/probe leaves).
LOWER_IS_BETTER = (
    "seconds", "per_probe", "elapsed", "wall", "p50", "p99", "ns_per_op"
)
# bytes_per_s / hit_ratio / proven_ratio / _yield cover the e15 ledger's
# parse rate, cache hit share, analyzer proof share and probe/selection
# yields (throughput_rps is caught by "throughput").
HIGHER_IS_BETTER = (
    "speedup", "throughput", "per_sec", "per_second", "coverage",
    "bytes_per_s", "hit_ratio", "proven_ratio", "_yield",
)
# Token-matched, not substring-matched: "rate" as a substring would
# capture phase names like "chase.enumerate".
HIGHER_IS_BETTER_TOKENS = ("rate",)
# Unit suffixes of e15 leaf names, matched on the name's last token:
# ``setup_s``, ``<layer>.self_s``, ``latency_p90_s`` and ``peak_rss_mb``.
LOWER_IS_BETTER_UNITS = ("s", "mb")


def flatten(payload: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Numeric leaves of a nested JSON payload as dotted paths."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten(payload[key], path)
    elif isinstance(payload, bool):
        return  # True/False are not measurements
    elif isinstance(payload, (int, float)):
        yield prefix, float(payload)


def direction(path: str) -> int:
    """-1: lower is better, +1: higher is better, 0: no polarity."""
    lowered = path.lower()
    # e15 stores each metric as ``{"value": ..., "unit": ...}``: the
    # metric's own name is the segment before ``.value``.
    if lowered.endswith(".value"):
        lowered = lowered[: -len(".value")]
    if any(marker in lowered for marker in HIGHER_IS_BETTER):
        return 1
    if any(marker in lowered for marker in LOWER_IS_BETTER):
        return -1
    tokens = re.split(r"[^a-z0-9]+", lowered)
    if any(marker in tokens for marker in HIGHER_IS_BETTER_TOKENS):
        return 1
    if tokens[-1] in LOWER_IS_BETTER_UNITS:
        return -1
    return 0


def load_directory(directory: str) -> Dict[str, Dict[str, float]]:
    """``{bench name: {metric path: value}}`` for every BENCH_*.json."""
    out: Dict[str, Dict[str, float]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_") : -len(".json")]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"trend: skipping unreadable {path}: {exc}", file=sys.stderr)
            continue
        out[name] = dict(flatten(payload))
    return out


def load_history(
    directory: str, window: int
) -> List[Dict[str, Dict[str, float]]]:
    """The last ``window`` runs under a history directory, oldest first.

    A directory holding ``BENCH_*.json`` directly is a single run (the
    pre-rolling cache layout); otherwise every ``run-*`` subdirectory is
    one run, and the lexicographically-last ``window`` of them form the
    baseline (CI names them by zero-padded run number).
    """
    flat = load_directory(directory)
    if flat:
        return [flat]
    run_dirs = sorted(
        path
        for path in glob.glob(os.path.join(directory, "run-*"))
        if os.path.isdir(path)
    )
    runs = []
    for path in run_dirs[-max(1, window):]:
        loaded = load_directory(path)
        if loaded:
            runs.append(loaded)
    return runs


def median_baseline(
    runs: List[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Per-metric median across runs — the comparison baseline.

    A metric's median is taken over the runs that recorded it, so a
    newly-added benchmark needs no full window before it is tracked.
    """
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for bench, metrics in run.items():
            bucket = values.setdefault(bench, {})
            for metric, value in metrics.items():
                bucket.setdefault(metric, []).append(value)
    return {
        bench: {
            metric: statistics.median(series)
            for metric, series in metrics.items()
        }
        for bench, metrics in values.items()
    }


def compare(
    current: Dict[str, Dict[str, float]],
    previous: Dict[str, Dict[str, float]],
    threshold: float,
) -> Tuple[List[str], List[str]]:
    """(regressions, informational movements) as printable lines."""
    regressions: List[str] = []
    movements: List[str] = []
    for bench in sorted(current):
        if bench not in previous:
            movements.append(f"{bench}: new benchmark (no previous run)")
            continue
        before, after = previous[bench], current[bench]
        for metric in sorted(after):
            if metric not in before:
                continue
            old, new = before[metric], after[metric]
            if old == new:
                continue
            base = max(abs(old), 1e-12)
            change = (new - old) / base
            line = (
                f"{bench}.{metric}: {old:g} -> {new:g} "
                f"({change:+.1%})"
            )
            polarity = direction(metric)
            worse = (polarity == -1 and change > threshold) or (
                polarity == 1 and change < -threshold
            )
            if worse:
                regressions.append(f"REGRESSION {line}")
            elif abs(change) > threshold:
                movements.append(line)
    return regressions, movements


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="directory with this run's BENCH_*.json")
    parser.add_argument(
        "previous",
        help="history directory: run-* subdirectories (rolling window) or "
        "a single run's BENCH_*.json (legacy layout)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative change flagged as a regression (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=5,
        help="how many most-recent history runs feed the median baseline "
        "(default 5)",
    )
    args = parser.parse_args(argv)

    current = load_directory(args.current)
    runs = load_history(args.previous, args.window)
    if not current:
        print(f"trend: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 0
    if not runs:
        print("trend: no previous measurements; nothing to compare")
        return 0
    previous = median_baseline(runs)
    print(f"trend: baseline is the median of {len(runs)} run(s)")

    regressions, movements = compare(current, previous, args.threshold)
    for line in movements:
        print(line)
    for line in regressions:
        print(line)
    if regressions:
        print(
            f"trend: {len(regressions)} metric(s) regressed more than "
            f"{args.threshold:.0%}"
        )
        write_step_summary(regressions, args.threshold)
        return 1
    print("trend: no regressions past the threshold")
    return 0


def write_step_summary(regressions: List[str], threshold: float) -> None:
    """Surface flagged regressions on the GitHub Actions run summary.

    ``$GITHUB_STEP_SUMMARY`` is a file CI appends markdown to; outside
    Actions (or when the file is unwritable) this is a silent no-op so
    local runs behave identically.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Bench trend: regressions past "
        f"{threshold:.0%} vs the window median",
        "",
    ]
    lines.extend(f"- `{line}`" for line in regressions)
    lines.append("")
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
    except OSError as exc:
        print(f"trend: cannot write step summary: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

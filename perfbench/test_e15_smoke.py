"""Tier-1 smoke test of the e15 harness: all four workloads on small
inputs, untraced and traced, through the command users run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# Runs the benchmark, so it carries the marker the fast CI job deselects.
pytestmark = pytest.mark.bench

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def test_quick_suite_emits_every_declared_metric(tmp_path):
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0",
         "--seed", "1", "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    report = json.loads((tmp_path / "BENCH_e15_pipeline.json").read_text())
    declared = json.loads(BENCHMARK.read_text())
    assert set(report["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, results in report["workloads"].items():
        for kind, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            result = results[kind]
            # ``correct`` also covers the seed-1 digests pinned in
            # expected/seed-1.json and, traced, that the layer-by-layer
            # replay produced the untraced run's digests.
            assert result["correct"], (name, kind)
            assert result["failed"] == 0 and result["attempted"] > 0
            emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in declared[section]}
        assert results["traced"]["metrics"]["trace.coverage"]["value"] >= 0.95
        assert (tmp_path / f"TRACE_e15_{name}.jsonl").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "running-dsl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert "correct" not in run.stdout

"""The bench-trend comparator (benchmarks/trend.py)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_TREND_PATH = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "trend.py"
)
_spec = importlib.util.spec_from_file_location("grom_bench_trend", _TREND_PATH)
trend = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("grom_bench_trend", trend)
_spec.loader.exec_module(trend)


def write_bench(directory, name, payload):
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return path


class TestFlatten:
    def test_numeric_leaves_with_paths(self):
        flat = dict(trend.flatten({"a": {"b": 1.5, "c": 2}, "d": 3}))
        assert flat == {"a.b": 1.5, "a.c": 2.0, "d": 3.0}

    def test_booleans_and_strings_ignored(self):
        flat = dict(trend.flatten({"quick": True, "label": "x", "v": 1}))
        assert flat == {"v": 1.0}


class TestDirection:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("by_size.2000.scratch_seconds", -1),
            ("per_probe_seconds.1000", -1),
            ("by_size.2000.speedup", 1),
            ("tasks_per_second", 1),
            ("facts", 0),
            # Flight-recorder phase digests (BENCH_trace_phases.json).
            ("phases.chase.enumerate.p50_seconds", -1),
            ("phases.verify.p99_seconds", -1),
            ("phases.task.self_seconds", -1),
            ("coverage", 1),
            # E14 probe-throughput leaves: rows/sec is higher-is-better,
            # and a drop in the block-vs-row ratio is a regression.
            ("delta_contiguous.block_rows_per_second", 1),
            ("by_fanout.16.row_rows_per_second", 1),
            ("delta_sparse.block_vs_row_speedup", 1),
            # e15 ledger leaves (BENCH_e15_pipeline.json): unit-suffixed
            # names, each metric's number under ``.value``.
            ("workloads.running-dsl.untraced.metrics.setup_s.value", -1),
            ("workloads.running-dsl.untraced.metrics.latency_p90_s.value", -1),
            ("workloads.running-dsl.untraced.metrics.peak_rss_mb.value", -1),
            ("workloads.ded-search.traced.metrics.chase.search.self_s.value", -1),
            ("running-dsl.pipeline.strip_auxiliary.self_s", -1),
            ("workloads.running-dsl.untraced.metrics.throughput_rps.value", 1),
            ("workloads.running-dsl.traced.metrics.dsl.parse.bytes_per_s.value", 1),
            ("corpus-mixed.runtime.cache.hit_ratio", 1),
            ("corpus-mixed.analysis.proven_ratio", 1),
            ("join-triangles.kernel.probe_yield", 1),
            ("ded-search.chase.selection_yield", 1),
            # Counts and unit strings stay unflagged.
            ("workloads.ded-search.traced.metrics.chase.runs.value", 0),
            ("workloads.running-dsl.untraced.attempted", 0),
        ],
    )
    def test_polarity(self, path, expected):
        assert trend.direction(path) == expected


class TestCompare:
    def test_time_increase_past_threshold_is_a_regression(self):
        previous = {"e9": {"per_probe_seconds.1000": 1.0}}
        current = {"e9": {"per_probe_seconds.1000": 1.5}}
        regressions, _ = trend.compare(current, previous, 0.2)
        assert len(regressions) == 1
        assert "REGRESSION" in regressions[0]

    def test_speedup_drop_past_threshold_is_a_regression(self):
        previous = {"e10": {"by_size.2000.speedup": 5.0}}
        current = {"e10": {"by_size.2000.speedup": 3.0}}
        regressions, _ = trend.compare(current, previous, 0.2)
        assert len(regressions) == 1

    def test_improvements_and_small_changes_pass(self):
        previous = {"e9": {"per_probe_seconds.1000": 1.0, "speedup": 2.0}}
        current = {"e9": {"per_probe_seconds.1000": 0.5, "speedup": 2.2}}
        regressions, _ = trend.compare(current, previous, 0.2)
        assert regressions == []

    def test_unpolarized_metrics_move_without_flagging(self):
        previous = {"e2": {"facts": 100.0}}
        current = {"e2": {"facts": 300.0}}
        regressions, movements = trend.compare(current, previous, 0.2)
        assert regressions == []
        assert len(movements) == 1

    def test_new_benchmark_is_informational(self):
        regressions, movements = trend.compare({"e10": {"v": 1.0}}, {}, 0.2)
        assert regressions == []
        assert "new benchmark" in movements[0]

    def test_phase_latency_regression_is_flagged(self):
        previous = {"trace_phases": {"phases.chase.p99_seconds": 0.10}}
        current = {"trace_phases": {"phases.chase.p99_seconds": 0.15}}
        regressions, _ = trend.compare(current, previous, 0.2)
        assert len(regressions) == 1


class TestStepSummary:
    def test_regressions_appended_to_summary_file(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        trend.write_step_summary(
            ["REGRESSION e9.per_probe_seconds.1000: 1 -> 1.5 (+50.0%)"], 0.2
        )
        text = summary.read_text()
        assert "20%" in text
        assert "per_probe_seconds" in text

    def test_no_op_outside_actions(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        trend.write_step_summary(["REGRESSION x: 1 -> 2 (+100.0%)"], 0.2)


class TestRollingWindow:
    def _history(self, tmp_path, values):
        history = tmp_path / "history"
        history.mkdir()
        for run_number, value in enumerate(values):
            run_dir = history / f"run-{run_number:09d}"
            run_dir.mkdir()
            write_bench(
                run_dir, "e9_probe_cost", {"per_probe_seconds": {"1000": value}}
            )
        return history

    def test_load_history_flat_directory_is_one_run(self, tmp_path):
        flat = tmp_path / "previous"
        flat.mkdir()
        write_bench(flat, "e9", {"v": 1.0})
        runs = trend.load_history(str(flat), window=5)
        assert len(runs) == 1
        assert runs[0] == {"e9": {"v": 1.0}}

    def test_load_history_takes_last_window_runs(self, tmp_path):
        history = self._history(tmp_path, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        runs = trend.load_history(str(history), window=3)
        values = [
            run["e9_probe_cost"]["per_probe_seconds.1000"] for run in runs
        ]
        assert values == [4.0, 5.0, 6.0]

    def test_median_baseline_resists_one_noisy_run(self, tmp_path):
        # One 10x outlier among five runs must not move the baseline.
        history = self._history(tmp_path, [1.0, 1.1, 10.0, 0.9, 1.0])
        runs = trend.load_history(str(history), window=5)
        baseline = trend.median_baseline(runs)
        assert baseline["e9_probe_cost"]["per_probe_seconds.1000"] == 1.0

    def test_median_covers_metrics_missing_from_some_runs(self, tmp_path):
        history = tmp_path / "history"
        history.mkdir()
        for run_number, payload in enumerate(
            [{"v": 1.0}, {"v": 3.0, "fresh": 7.0}]
        ):
            run_dir = history / f"run-{run_number:09d}"
            run_dir.mkdir()
            write_bench(run_dir, "e2", payload)
        baseline = trend.median_baseline(
            trend.load_history(str(history), window=5)
        )
        assert baseline["e2"] == {"v": 2.0, "fresh": 7.0}

    def test_main_compares_against_window_median(self, tmp_path):
        history = self._history(tmp_path, [1.0, 1.0, 50.0, 1.0, 1.0])
        current = tmp_path / "current"
        current.mkdir()
        # 1.1 is fine against the median (1.0) even though the previous
        # run alone (1.0) and the outlier (50.0) would disagree wildly.
        write_bench(
            current, "e9_probe_cost", {"per_probe_seconds": {"1000": 1.1}}
        )
        assert trend.main([str(current), str(history)]) == 0
        write_bench(
            current, "e9_probe_cost", {"per_probe_seconds": {"1000": 2.0}}
        )
        assert trend.main([str(current), str(history)]) == 1
        # A window of one = compare against the last run only.
        assert (
            trend.main([str(current), str(history), "--window", "1"]) == 1
        )

    def test_main_empty_history_directory(self, tmp_path):
        history = tmp_path / "history"
        history.mkdir()
        current = tmp_path / "current"
        current.mkdir()
        write_bench(current, "e2", {"v": 1.0})
        assert trend.main([str(current), str(history)]) == 0


class TestMain:
    def test_end_to_end_exit_codes(self, tmp_path):
        current = tmp_path / "current"
        previous = tmp_path / "previous"
        current.mkdir()
        previous.mkdir()
        write_bench(previous, "e9_probe_cost", {"per_probe_seconds": {"1000": 1.0}})
        write_bench(current, "e9_probe_cost", {"per_probe_seconds": {"1000": 1.1}})
        assert trend.main([str(current), str(previous)]) == 0
        write_bench(current, "e9_probe_cost", {"per_probe_seconds": {"1000": 2.0}})
        assert trend.main([str(current), str(previous)]) == 1
        # A 2x slowdown is fine under a generous threshold.
        assert trend.main([str(current), str(previous), "--threshold", "1.5"]) == 0

    def test_missing_previous_is_not_an_error(self, tmp_path):
        current = tmp_path / "current"
        current.mkdir()
        (tmp_path / "previous").mkdir()
        write_bench(current, "e2", {"v": 1.0})
        assert trend.main([str(current), str(tmp_path / "previous")]) == 0

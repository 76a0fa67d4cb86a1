"""The batch runtime: fingerprints, cache, corpora, executor, results."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.core.rewriter import rewrite
from repro.dsl.serializer import serialize_dependency
from repro.pipeline import run_rewritten, run_scenario
from repro.relational.instance import Instance
from repro.runtime.cache import RewriteCache, decode_rewrite, encode_rewrite
from repro.runtime.corpus import (
    DEFAULT_CORPUS,
    Corpus,
    ScenarioSpec,
    corpus_names,
    get_corpus,
    spec,
)
from repro.runtime.executor import BatchOptions, run_batch
from repro.runtime.fingerprint import (
    fingerprint_instance,
    fingerprint_scenario,
    fingerprint_task,
)
from repro.runtime.results import TaskRecord, read_jsonl, summarize, write_jsonl
from repro.scenarios.generators import build_family, flagged_scenario
from repro.scenarios.running_example import build_scenario


def _dependency_set(result):
    return sorted(
        f"{d.name}|{serialize_dependency(d)}" for d in result.dependencies
    )


class TestFingerprint:
    def test_reordered_mappings_fingerprint_identically(self, running_scenario):
        from repro.core.scenario import MappingScenario

        reordered = MappingScenario(
            source_schema=running_scenario.source_schema,
            target_schema=running_scenario.target_schema,
            mappings=list(reversed(running_scenario.mappings)),
            target_views=running_scenario.target_views,
            target_constraints=running_scenario.target_constraints,
            name="reordered",
        )
        assert fingerprint_scenario(reordered) == fingerprint_scenario(
            running_scenario
        )

    def test_scenario_name_does_not_contribute(self, running_scenario):
        assert fingerprint_scenario(build_scenario()) == fingerprint_scenario(
            running_scenario
        )

    def test_different_content_differs(self):
        assert fingerprint_scenario(flagged_scenario(1)) != fingerprint_scenario(
            flagged_scenario(2)
        )

    def test_instance_fingerprint_ignores_insertion_order(self):
        left, right = Instance(), Instance()
        rows = [(1, "a"), (2, "b"), (3, "c")]
        for row in rows:
            left.add_row("R", *row)
        for row in reversed(rows):
            right.add_row("R", *row)
        assert fingerprint_instance(left) == fingerprint_instance(right)
        right.add_row("R", 4, "d")
        assert fingerprint_instance(left) != fingerprint_instance(right)

    def test_instance_fingerprint_distinguishes_types(self):
        ints, strings = Instance(), Instance()
        ints.add_row("R", 1)
        strings.add_row("R", "1")
        assert fingerprint_instance(ints) != fingerprint_instance(strings)

    def test_task_fingerprint_includes_params(self, running_scenario):
        base = fingerprint_task(running_scenario, verify=True)
        assert base != fingerprint_task(running_scenario, verify=False)
        assert base == fingerprint_task(build_scenario(), verify=True)


class TestRewriteCache:
    def test_payload_round_trip_preserves_dependencies(self, running_scenario):
        rewritten = rewrite(running_scenario)
        payload = json.loads(json.dumps(encode_rewrite(rewritten)))
        decoded = decode_rewrite(payload, running_scenario)
        assert _dependency_set(decoded) == _dependency_set(rewritten)
        assert decoded.aux_arities == rewritten.aux_arities
        assert decoded.provenance == rewritten.provenance
        assert decoded.has_deds == rewritten.has_deds

    def test_cached_rewrite_chases_identically(self, running_scenario):
        from repro.scenarios.running_example import generate_source_instance

        source = generate_source_instance(products=8, seed=3)
        cache = RewriteCache()
        rewritten = rewrite(running_scenario)
        fingerprint = fingerprint_scenario(running_scenario)
        cache.store(fingerprint, rewritten)
        cached, _ = cache.fetch(running_scenario)
        direct = run_scenario(running_scenario, source)
        replayed = run_rewritten(running_scenario, cached, source)
        assert replayed.chase.status == direct.chase.status
        assert replayed.target == direct.target

    def test_stats_and_lru_eviction(self):
        cache = RewriteCache(capacity=2)
        cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        assert cache.get("a") == {"x": 1}  # refreshes 'a'
        cache.put("c", {"x": 3})  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.stats.puts == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_corrupt_or_stale_disk_entry_is_a_miss(
        self, tmp_path, running_scenario
    ):
        from repro.runtime.fingerprint import fingerprint_scenario as fps

        cache = RewriteCache(directory=tmp_path)
        fingerprint = fps(running_scenario)
        entry = tmp_path / f"{fingerprint}.json"
        entry.write_text('{"version": 999, "deps": []}')  # future format
        assert cache.fetch(running_scenario)[0] is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.clear_memory()
        entry.write_text("not json {")  # torn/corrupted
        assert cache.fetch(running_scenario)[0] is None

    def test_unfold_mode_is_part_of_the_key(self, running_scenario):
        cache = RewriteCache()
        fingerprint = fingerprint_scenario(running_scenario)
        cache.store(fingerprint, rewrite(running_scenario))
        hit, _ = cache.fetch(running_scenario, unfold_source_premises=True)
        assert hit is None  # wrong rewrite mode must not be served
        hit, _ = cache.fetch(running_scenario)
        assert hit is not None  # ...and the valid entry was not evicted

    def test_disk_backend_survives_processes(self, tmp_path, running_scenario):
        first = RewriteCache(directory=tmp_path)
        fingerprint = fingerprint_scenario(running_scenario)
        first.store(fingerprint, rewrite(running_scenario))
        assert (tmp_path / f"{fingerprint}.json").exists()

        second = RewriteCache(directory=tmp_path)  # a "new process"
        result, _ = second.fetch(running_scenario)
        assert result is not None
        assert second.stats.disk_hits == 1
        second.clear_memory()
        assert second.get(fingerprint) is not None


class TestCorpus:
    def test_registry_contains_default(self):
        assert DEFAULT_CORPUS in corpus_names()

    def test_default_corpus_is_batch_sized(self):
        assert len(get_corpus(DEFAULT_CORPUS)) >= 50

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            get_corpus("nope")
        with pytest.raises(KeyError):
            ScenarioSpec("nope")

    def test_specs_build_deterministically(self):
        for candidate in get_corpus("smoke"):
            first, second = candidate.build(), candidate.build()
            assert fingerprint_scenario(first.scenario) == fingerprint_scenario(
                second.scenario
            )
            assert fingerprint_instance(first.instance) == fingerprint_instance(
                second.instance
            )

    def test_every_registered_spec_is_well_formed(self):
        seen = set()
        for name in corpus_names():
            for candidate in get_corpus(name):
                if candidate in seen:
                    continue
                seen.add(candidate)
                assert candidate.label.startswith(candidate.family)
                built = build_family(
                    candidate.family, **candidate.params_dict()
                )
                built.scenario.validate()

    def test_limited_prefix(self):
        corpus = get_corpus(DEFAULT_CORPUS)
        short = corpus.limited(3)
        assert len(short) == 3
        assert short.specs == corpus.specs[:3]
        assert corpus.limited(10_000) is corpus


class TestExecutor:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        return run_batch(get_corpus("smoke"), BatchOptions(jobs=1))

    def test_serial_run_completes_every_spec(self, smoke_report):
        corpus = get_corpus("smoke")
        assert len(smoke_report.records) == len(corpus)
        assert smoke_report.mode == "serial"
        assert [r.index for r in smoke_report.records] == list(range(len(corpus)))
        for record in smoke_report.records:
            assert record.status in ("success", "failure", "nontermination")
            assert record.fingerprint and record.task_fingerprint
            assert record.total_seconds > 0

    def test_summary_counts(self, smoke_report):
        summary = smoke_report.summary
        assert summary.total == len(smoke_report.records)
        assert summary.errors == 0 and summary.timeouts == 0
        assert summary.clean
        assert summary.succeeded == sum(
            1 for r in smoke_report.records if r.status == "success"
        )
        assert set(summary.by_family) == {
            r.family for r in smoke_report.records
        }

    def test_warm_disk_cache_repeat_run_hits_everything(self, tmp_path):
        options = BatchOptions(jobs=1, cache_dir=str(tmp_path))
        corpus = get_corpus("smoke")
        cold = run_batch(corpus, options)
        assert not any(r.cache_hit for r in cold.records)
        warm = run_batch(corpus, options)
        assert all(r.cache_hit for r in warm.records)
        assert warm.summary.cache_hit_rate == 1.0
        # Warm statuses replay the cold ones exactly.
        assert [r.status for r in warm.records] == [
            r.status for r in cold.records
        ]

    def test_pooled_run_matches_serial(self, tmp_path, smoke_report):
        pooled = run_batch(
            get_corpus("smoke"),
            BatchOptions(jobs=2, cache_dir=str(tmp_path)),
        )
        assert pooled.mode == "pool"
        assert [r.label for r in pooled.records] == [
            r.label for r in smoke_report.records
        ]
        assert [r.status for r in pooled.records] == [
            r.status for r in smoke_report.records
        ]
        assert [r.target_facts for r in pooled.records] == [
            r.target_facts for r in smoke_report.records
        ]

    def test_broken_spec_records_error_not_crash(self):
        corpus = Corpus(
            "broken",
            "one bad spec",
            (spec("partition", width=0), spec("cleanup", orders=5)),
        )
        report = run_batch(corpus, BatchOptions(jobs=1))
        statuses = [r.status for r in report.records]
        assert statuses[0] == "error"
        assert "width" in report.records[0].error
        assert statuses[1] == "success"
        assert not report.summary.clean

    def test_timeout_records_timeout(self):
        import signal

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        corpus = Corpus(
            "slowpoke",
            "a deliberately heavy spec",
            (spec("flagged", flags=3, products=40, name_pairs=3),),
        )
        report = run_batch(corpus, BatchOptions(jobs=1, timeout=0.001))
        assert report.records[0].status == "timeout"
        assert report.summary.timeouts == 1

    def test_swallowed_timeout_still_times_out(self):
        # A SIGALRM landing inside a gc callback raises an unraisable
        # exception: Python prints and discards it, and the task body
        # carries on.  The body below discards the first timeout the
        # same way; leaving the alarm must still report the timeout.
        import signal
        import time

        from repro.runtime.executor import _alarm, _TaskTimeout

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        swallowed = []
        with pytest.raises(_TaskTimeout):
            with _alarm(0.01):
                try:
                    time.sleep(5)
                except _TaskTimeout:
                    swallowed.append(True)
        assert swallowed == [True]

    def test_alarm_without_expiry_is_silent(self):
        from repro.runtime.executor import _alarm

        with _alarm(5.0):
            pass


class TestResults:
    def test_jsonl_round_trip(self, tmp_path, smoke_records=None):
        report = run_batch(get_corpus("smoke").limited(3), BatchOptions())
        path = tmp_path / "out" / "records.jsonl"
        written = write_jsonl(report.records, path)
        assert written == 3
        loaded = read_jsonl(path)
        assert loaded == report.records

    def test_summarize_buckets_statuses(self):
        records = [
            TaskRecord("c", 0, "a()", "random", {}, status="success", ok=True,
                       verified=True, cache_hit=True),
            TaskRecord("c", 1, "b()", "random", {}, status="failure"),
            TaskRecord("c", 2, "c()", "flagged", {}, status="timeout"),
            TaskRecord("c", 3, "d()", "flagged", {}, status="error"),
        ]
        summary = summarize(records, wall_seconds=2.0)
        assert (summary.succeeded, summary.failed) == (1, 1)
        assert (summary.timeouts, summary.errors) == (1, 1)
        assert summary.cache_hits == 1 and summary.cache_lookups == 4
        assert summary.scenarios_per_second == 2.0
        assert summary.by_family == {"random": 2, "flagged": 2}
        assert not summary.clean

    def test_records_from_older_versions_still_load(self, tmp_path):
        # A line written before a field was removed carries a key that
        # is no longer a field; one written before a field was added
        # lacks it.  Both load.
        record = TaskRecord("c", 0, "a()", "random", {}, status="success")
        line = json.loads(record.to_json())
        line["parallelism"] = "process:2"
        del line["scenarios_pruned"]
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(line) + "\n")
        (loaded,) = read_jsonl(path)
        assert loaded == record
        assert not hasattr(loaded, "parallelism")


#: The record fields a degraded batch must reproduce exactly.
RECORD_FIELDS = (
    "label", "status", "ok", "verified", "task_fingerprint",
    "target_facts", "rounds", "scenarios_tried", "scenarios_pruned",
    "nulls_created",
)


def _record_rows(report):
    return [[getattr(r, f) for f in RECORD_FIELDS] for r in report.records]


@contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging the suite, past ``seconds``."""

    def _expired(_signum, _frame):
        pytest.fail(f"batch did not return within {seconds}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestPoolDegradation:
    """A pool that cannot start, or loses a worker mid-run, degrades to
    a serial batch whose records equal a plain serial run's."""

    CORPUS = get_corpus("smoke").limited(4)

    @pytest.fixture(scope="class")
    def serial(self):
        return run_batch(self.CORPUS, BatchOptions(use_cache=False))

    def test_pooled_records_equal_serial(self, serial):
        pooled = run_batch(self.CORPUS, BatchOptions(jobs=2, use_cache=False))
        assert (pooled.mode, pooled.note) == ("pool", "")
        assert _record_rows(pooled) == _record_rows(serial)

    def test_pool_creation_failure_degrades_to_serial(self, serial, monkeypatch):
        import repro.runtime.executor as executor_module

        def _no_pool():
            raise OSError("no semaphores available")

        monkeypatch.setattr(executor_module, "_pool_context", _no_pool)
        report = run_batch(self.CORPUS, BatchOptions(jobs=2, use_cache=False))
        assert report.mode == "serial"
        assert "worker pool unavailable" in report.note
        assert "no semaphores available" in report.note
        assert _record_rows(report) == _record_rows(serial)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(signal, "SIGALRM"),
        reason="needs fork (the patched task must reach the worker) and SIGALRM",
    )
    def test_dead_worker_degrades_to_serial(self, serial, monkeypatch):
        import repro.runtime.executor as executor_module

        # Forked workers inherit the patch; task 1 kills its worker.
        # The serial rerun happens in this process and runs unharmed.
        parent = os.getpid()
        execute = executor_module._execute

        def _dying(corpus_name, index, spec, options, cache):
            if index == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute(corpus_name, index, spec, options, cache)

        monkeypatch.setattr(executor_module, "_execute", _dying)
        with _deadline(60):
            report = run_batch(
                self.CORPUS, BatchOptions(jobs=2, use_cache=False)
            )
        assert report.mode == "serial"
        assert "worker pool failed" in report.note
        assert "BrokenProcessPool" in report.note
        assert _record_rows(report) == _record_rows(serial)


class TestBatchCli:
    def test_list(self, capsys):
        assert main(["batch", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "mixed" in out

    def test_unknown_corpus_is_an_error(self, capsys):
        assert main(["batch", "definitely-not-a-corpus"]) == 2

    def test_end_to_end_with_results_and_cache(self, tmp_path, capsys):
        results = tmp_path / "records.jsonl"
        code = main([
            "batch", "smoke",
            "--cache-dir", str(tmp_path / "cache"),
            "--results", str(results),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch run: smoke" in out
        assert "By family" in out
        records = read_jsonl(results)
        assert len(records) == len(get_corpus("smoke"))

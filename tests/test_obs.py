"""Flight recorder: span tracer, metrics, JSONL format, profiling.

Covers the observability layer end to end: unit behaviour of the tracer
and registry, payload merging across workers (including the
completion-order parent remap), the JSONL schema round-trip, the phase
profiler's self-time arithmetic, trace determinism across parallel
tiers, and the overhead guard proving an untraced run never touches the
real instrumentation.
"""

import dataclasses
import json

import pytest

from repro.chase.engine import ChaseConfig, StandardChase
from repro.obs.jsonl import (
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    read_trace,
    trace_records,
    write_trace,
)
from repro.obs.metrics import Histogram, MetricsRegistry, percentile
from repro.obs.profile import phase_metrics, profile_trace, render_profile
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    TraceConfig,
    resolve_recorder,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pipeline import run_scenario
from repro.relational.instance import Instance
from repro.runtime.cache import RewriteCache
from repro.runtime.executor import BatchOptions, run_batch
from repro.runtime.corpus import get_corpus
from repro.scenarios.generators import flagged_case
from repro.scenarios.running_example import (
    build_scenario,
    generate_source_instance,
)

from kernel_oracle import oracle_kernel


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        inner, outer = tracer.records
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["attrs"] == {"detail": 1}
        assert inner["end"] >= inner["start"]

    def test_completion_order_is_children_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r["name"] for r in tracer.records] == ["b", "a"]

    def test_exception_annotates_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.records[0]["attrs"]["error"] == "ValueError"

    def test_max_spans_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped == 3

    def test_add_raw_attaches_to_current_span(self):
        tracer = Tracer()
        with tracer.span("parent"):
            tracer.add_raw("leaf", 1.0, 2.0, worker="fork-0", matches=3)
        leaf = next(r for r in tracer.records if r["name"] == "leaf")
        parent = next(r for r in tracer.records if r["name"] == "parent")
        assert leaf["parent"] == parent["id"]
        assert leaf["worker"] == "fork-0"
        assert leaf["attrs"] == {"matches": 3}

    def test_merge_preserves_parents_despite_completion_order(self):
        # Records arrive children-first; the merge must still rebuild
        # the tree instead of re-rooting every span.
        child = Tracer(worker="main")
        with child.span("outer"):
            with child.span("inner"):
                pass
        parent = Tracer()
        with parent.span("host"):
            parent.merge_records(child.records, worker="branch-0")
        by_name = {r["name"]: r for r in parent.records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] == by_name["host"]["id"]
        # "main"-labelled spans get the caller's worker name; the ids
        # were re-assigned without collision.
        assert by_name["inner"]["worker"] == "branch-0"
        assert len({r["id"] for r in parent.records}) == 3

    def test_merge_keeps_specific_worker_labels(self):
        child = Tracer(worker="main")
        child.add_raw("enumerate.worker", 0.0, 1.0, worker="fork-3")
        parent = Tracer()
        parent.merge_records(child.records, worker="branch-1")
        assert parent.records[0]["worker"] == "fork-3"

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything") as span:
            span.annotate(ignored=True)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.records == []
        assert NULL_TRACER.add_raw("x", 0.0, 1.0) == -1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.count("hits")
        registry.count("hits", 2)
        registry.gauge("depth", 7)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == 3
        assert snapshot["gauges"]["depth"] == 7

    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile([5.0], 99) == 5.0

    def test_histogram_summary_and_merge(self):
        histogram = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        histogram.merge(
            {"count": 1, "sum": 10.0, "min": 10.0, "max": 10.0, "samples": [10.0]}
        )
        assert histogram.count == 5
        assert histogram.total == 20.0
        assert histogram.max == 10.0

    def test_merge_snapshot_adds_counters_overwrites_gauges(self):
        registry = MetricsRegistry()
        registry.count("n", 1)
        registry.gauge("g", 1)
        registry.merge_snapshot(
            {"counters": {"n": 2}, "gauges": {"g": 9}, "histograms": {}}
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["n"] == 3
        assert snapshot["gauges"]["g"] == 9


# ---------------------------------------------------------------------------
# Recorder resolution and payloads
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_resolution_precedence(self):
        explicit = FlightRecorder()
        assert resolve_recorder(explicit, None) is explicit
        assert resolve_recorder(None, None) is NULL_RECORDER
        assert resolve_recorder(None, TraceConfig(enabled=False)) is NULL_RECORDER
        built = resolve_recorder(None, TraceConfig(enabled=True))
        assert built.enabled and built is not NULL_RECORDER

    def test_payload_round_trip(self):
        recorder = FlightRecorder()
        with recorder.span("phase"):
            recorder.count("facts", 4)
        payload = recorder.to_payload()
        target = FlightRecorder()
        target.merge_payload(payload, worker="task-0")
        assert [r["name"] for r in target.tracer.records] == ["phase"]
        assert target.metrics.counter_value("facts") == 4

    def test_null_recorder_payload_is_none(self):
        assert NULL_RECORDER.to_payload() is None
        NULL_RECORDER.merge_payload({"spans": []})  # no-op, no error


# ---------------------------------------------------------------------------
# JSONL schema
# ---------------------------------------------------------------------------


class TestJsonl:
    def _recorder(self):
        recorder = FlightRecorder()
        with recorder.span("run"):
            with recorder.span("step", size=2):
                pass
            recorder.count("facts", 7)
            recorder.observe("latency", 0.25)
        return recorder

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_trace(path, self._recorder(), meta={"command": "test"})
        trace = read_trace(path)
        assert written == 1 + 2 + 1 + 1  # meta + spans + counter + histogram
        assert trace.meta["command"] == "test"
        assert trace.meta["version"] == TRACE_FORMAT_VERSION
        assert [s["name"] for s in trace.spans] == ["step", "run"]
        assert trace.counters == {"facts": 7}
        assert trace.histograms["latency"]["p50"] == 0.25

    def test_span_times_rebased_to_origin(self):
        records = trace_records(self._recorder())
        spans = [r for r in records if r["type"] == "span"]
        assert min(s["start"] for s in spans) == 0.0
        for span in spans:
            assert span["end"] >= span["start"] >= 0.0

    def test_meta_must_come_first(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "counter", "name": "x", "value": 1}))
        with pytest.raises(TraceFormatError, match="meta header"):
            read_trace(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "meta", "version": 999}))
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_span_ending_before_start_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            json.dumps({"type": "meta", "version": TRACE_FORMAT_VERSION}),
            json.dumps(
                {
                    "type": "span",
                    "id": 0,
                    "parent": None,
                    "name": "x",
                    "start": 2.0,
                    "end": 1.0,
                    "worker": "main",
                }
            ),
        ]
        path.write_text("\n".join(lines))
        with pytest.raises(TraceFormatError, match="ends before"):
            read_trace(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            json.dumps({"type": "meta", "version": TRACE_FORMAT_VERSION}),
            json.dumps({"type": "mystery"}),
        ]
        path.write_text("\n".join(lines))
        with pytest.raises(TraceFormatError, match="unknown record type"):
            read_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty trace"):
            read_trace(path)


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------


class TestProfile:
    def _trace(self, tmp_path, recorder, meta=None):
        path = tmp_path / "trace.jsonl"
        write_trace(path, recorder, meta=meta)
        return read_trace(path)

    def test_self_time_subtracts_same_worker_children(self, tmp_path):
        recorder = FlightRecorder()
        tracer = recorder.tracer
        root = tracer.add_raw("root", 0.0, 10.0)
        tracer.add_raw("child", 1.0, 5.0, parent=root)
        trace = self._trace(tmp_path, recorder)
        report = profile_trace(trace)
        by_name = {p.name: p for p in report.phases}
        assert by_name["root"].self_time == pytest.approx(6.0)
        assert by_name["child"].self_time == pytest.approx(4.0)
        assert report.main_self_seconds == pytest.approx(10.0)

    def test_cross_worker_children_do_not_subtract(self, tmp_path):
        recorder = FlightRecorder()
        tracer = recorder.tracer
        root = tracer.add_raw("root", 0.0, 10.0)
        tracer.add_raw("fork.worker", 0.0, 8.0, worker="fork-0", parent=root)
        trace = self._trace(tmp_path, recorder)
        report = profile_trace(trace)
        by_name = {p.name: p for p in report.phases}
        # The other worker's span ran concurrently: the parent keeps its time.
        assert by_name["root"].self_time == pytest.approx(10.0)
        assert sorted(report.workers) == ["fork-0", "main"]

    def test_wall_prefers_meta_and_coverage_uses_it(self, tmp_path):
        recorder = FlightRecorder()
        recorder.tracer.add_raw("root", 0.0, 4.0)
        trace = self._trace(tmp_path, recorder, meta={"wall_seconds": 5.0})
        report = profile_trace(trace)
        assert report.wall_seconds == 5.0
        assert report.coverage == pytest.approx(0.8)

    def test_render_and_phase_metrics(self, tmp_path):
        recorder = FlightRecorder()
        with recorder.span("alpha"):
            recorder.count("things", 2)
        trace = self._trace(tmp_path, recorder)
        report = profile_trace(trace)
        rendered = render_profile(report, trace)
        assert "alpha" in rendered
        assert "coverage" in rendered
        assert "things" in rendered
        digest = phase_metrics(report)
        assert "alpha" in digest["phases"]
        assert digest["phases"]["alpha"]["calls"] == 1
        assert digest["span_count"] == 1


# ---------------------------------------------------------------------------
# Trace determinism, and the chase counters against the oracle
# ---------------------------------------------------------------------------


def _traced_pipeline(built=None):
    if built is None:
        scenario = build_scenario()
        source = generate_source_instance(
            products=25, seed=3, benign_name_pairs=1
        )
    else:
        scenario, source = built.scenario, built.instance
    config = ChaseConfig(trace=TraceConfig(enabled=True))
    outcome = run_scenario(scenario, source, config=config)
    assert outcome.ok
    assert outcome.trace is not None
    return outcome


def _structure(payload):
    """(name, parent name) sequence, worker-agnostic."""
    spans = payload["spans"]
    names = {span["id"]: span["name"] for span in spans}
    return [(span["name"], names.get(span["parent"])) for span in spans]


def _chase_counters(payload):
    return {
        name: value
        for name, value in payload["metrics"]["counters"].items()
        if name.startswith("chase.")
    }


class TestTraceDeterminism:
    def test_span_structure_identical_across_reruns(self):
        first = _traced_pipeline().trace
        second = _traced_pipeline().trace
        assert _structure(first) == _structure(second)

    def test_chase_counters_match_the_oracle_stats(self):
        # ``chase.*`` counters mirror ChaseStats summed over every chase
        # run; with nothing pruned, that is the sweep's aggregate — which
        # the set-based oracle must reproduce.
        outcome = _traced_pipeline()
        assert outcome.chase.scenarios_pruned == 0
        source = generate_source_instance(
            products=25, seed=3, benign_name_pairs=1
        )
        with oracle_kernel():
            oracle = run_scenario(build_scenario(), source)
        counters = _chase_counters(outcome.trace)
        assert counters["chase.rounds"] > 0  # the namespace is populated
        expected = dataclasses.asdict(oracle.chase.stats)
        del expected["elapsed_seconds"]
        assert {
            name: counters.get(f"chase.{name}", 0) for name in expected
        } == expected

    def test_pruned_sweep_trace_identical_across_reruns(self):
        # A flagged case's sweep answers most selections from nogoods;
        # the skipped runs are the same on every run.
        built = flagged_case(flags=3, products=10, name_pairs=2, seed=1)
        first = _traced_pipeline(built).trace
        second = _traced_pipeline(
            flagged_case(flags=3, products=10, name_pairs=2, seed=1)
        ).trace
        pruned = first["metrics"]["counters"]["search.pruned"]
        assert pruned > 0
        assert second["metrics"]["counters"]["search.pruned"] == pruned
        assert _structure(first) == _structure(second)
        assert _chase_counters(first) == _chase_counters(second)


# ---------------------------------------------------------------------------
# The chase.seed span: which path loaded the working store
# ---------------------------------------------------------------------------


def _seed_spans(payload):
    return [span for span in payload["spans"] if span["name"] == "chase.seed"]


class TestSeedSpan:
    @pytest.mark.parametrize(
        "source_kind,path",
        [("decoded", "bulk"), ("composed", "ingest"), ("empty", "bulk")],
    )
    def test_records_rows_relations_and_path(self, source_kind, path):
        from repro.core.compose import extend_source
        from repro.core.rewriter import rewrite

        scenario = build_scenario()
        rewritten = rewrite(scenario)
        tgds = [d for d in rewritten.dependencies if not d.is_ded()]
        engine = StandardChase(
            tgds,
            rewritten.source_relations(),
            ChaseConfig(trace=TraceConfig(enabled=True)),
        )
        source = generate_source_instance(products=8, seed=1)
        if source_kind == "composed":
            # The composed source is a columnar store on the shared pool.
            source = extend_source(scenario, source)
        elif source_kind == "empty":
            source = Instance()
        payload = engine.run(source).trace
        (span,) = _seed_spans(payload)
        assert span["attrs"] == {
            "rows": len(source),
            "relations": len(source.relations()),
            "path": path,
        }
        # Seeding is its own span, ahead of (not inside) chase.run.
        run = next(s for s in payload["spans"] if s["name"] == "chase.run")
        assert span["parent"] == run["parent"]
        assert span["end"] <= run["start"]

    def test_foreign_pool_store_seeds_in_bulk(self):
        # A store on another pool cannot move code rows: ingest re-encodes
        # it fact by fact, and the span says so.
        from repro.logic.atoms import Atom, Conjunction
        from repro.logic.dependencies import tgd
        from repro.logic.terms import Constant, Variable
        from repro.relational.kernel import ColumnarInstance, TermPool

        x, y = Variable("x"), Variable("y")
        engine = StandardChase(
            [tgd(Conjunction(atoms=(Atom("A", (x,)),)), (Atom("B", (x, y)),))],
            ("A",),
            ChaseConfig(trace=TraceConfig(enabled=True)),
        )
        outcomes = {}
        for label, pool in (("foreign", TermPool()), ("shared", None)):
            store = ColumnarInstance(pool=pool)
            store.add(Atom("A", (Constant(1),)))
            result = engine.run(store)
            (span,) = _seed_spans(result.trace)
            outcomes[label] = (span["attrs"]["path"], result.target)
        assert outcomes["foreign"][0] == "bulk"
        assert outcomes["shared"][0] == "ingest"
        assert len(outcomes["shared"][1]) == 1
        assert outcomes["foreign"][1] == outcomes["shared"][1]

    def test_pipeline_ingests_the_columnar_store(self):
        scenario = build_scenario()
        source = generate_source_instance(products=8, seed=1)
        outcome = run_scenario(
            scenario, source, config=ChaseConfig(trace=TraceConfig(enabled=True))
        )
        spans = _seed_spans(outcome.trace)
        assert spans and {span["attrs"]["path"] for span in spans} == {"ingest"}
        assert all(span["attrs"]["rows"] > 0 for span in spans)


# ---------------------------------------------------------------------------
# Overhead guard: a disabled trace never touches real instrumentation
# ---------------------------------------------------------------------------


class TestOverheadGuard:
    def test_untraced_run_never_builds_a_recorder(self, monkeypatch):
        def _forbidden(self, *args, **kwargs):
            raise AssertionError(
                "real instrumentation reached on the untraced path"
            )

        monkeypatch.setattr(FlightRecorder, "__init__", _forbidden)
        monkeypatch.setattr(Tracer, "span", _forbidden)
        monkeypatch.setattr(MetricsRegistry, "count", _forbidden)

        scenario = build_scenario()
        source = generate_source_instance(products=8, seed=1)
        outcome = run_scenario(scenario, source)
        assert outcome.ok
        assert outcome.trace is None
        assert outcome.chase.trace is None

    def test_untraced_chase_engine_uses_null_recorder(self, monkeypatch):
        monkeypatch.setattr(
            Tracer,
            "span",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("traced")),
        )
        scenario = build_scenario()
        source = generate_source_instance(products=8, seed=1)
        from repro.core.rewriter import rewrite
        from repro.core.compose import extend_source

        rewritten = rewrite(scenario)
        tgds = [d for d in rewritten.dependencies if not d.is_ded()]
        engine = StandardChase(tgds, rewritten.source_relations(), None)
        result = engine.run(extend_source(scenario, source))
        assert result.trace is None


# ---------------------------------------------------------------------------
# Batch integration
# ---------------------------------------------------------------------------


class TestTracedBatch:
    def test_traced_batch_records_carry_payloads(self):
        corpus = get_corpus("smoke").limited(3)
        report = run_batch(corpus, BatchOptions(trace=True))
        for record in report.records:
            assert record.trace is not None
            assert record.trace["version"] == 1
            names = {span["name"] for span in record.trace["spans"]}
            assert {"task", "build", "rewrite"} <= names
            assert record.metrics is not None
        summary = report.summary
        assert set(summary.phase_latencies) == {
            "build", "rewrite", "chase", "total"
        }
        for digest in summary.phase_latencies.values():
            assert digest["p99"] >= digest["p50"] >= 0.0

    def test_untraced_batch_records_have_no_payloads(self):
        corpus = get_corpus("smoke").limited(2)
        report = run_batch(corpus, BatchOptions())
        assert all(record.trace is None for record in report.records)
        assert all(record.metrics is None for record in report.records)

    def test_merged_batch_trace_covers_wall_clock(self, tmp_path):
        corpus = get_corpus("smoke").limited(3)
        report = run_batch(corpus, BatchOptions(trace=True))
        merged = FlightRecorder()
        for record in report.records:
            merged.merge_payload(record.trace)
        path = tmp_path / "batch.jsonl"
        write_trace(
            path, merged, meta={"wall_seconds": report.wall_seconds}
        )
        profile = profile_trace(read_trace(path))
        # The acceptance bar: merged per-phase self-times reconcile with
        # the batch wall clock (untraced gaps are record bookkeeping).
        assert profile.coverage is not None
        assert 0.5 <= profile.coverage <= 1.05

    def test_task_record_json_round_trips_trace(self, tmp_path):
        from repro.runtime.results import TaskRecord, read_jsonl, write_jsonl

        corpus = get_corpus("smoke").limited(1)
        report = run_batch(corpus, BatchOptions(trace=True))
        path = tmp_path / "records.jsonl"
        write_jsonl(report.records, path)
        loaded = read_jsonl(path)
        assert isinstance(loaded[0], TaskRecord)
        assert loaded[0].trace == report.records[0].trace


# ---------------------------------------------------------------------------
# Satellite: cache._miss rolls back disk hits
# ---------------------------------------------------------------------------


class TestCacheMissReclassification:
    def test_unusable_disk_payload_rolls_back_disk_hit(self, tmp_path):
        scenario = build_scenario()
        writer = RewriteCache(directory=tmp_path)
        # A payload with the wrong format version: get() serves it from
        # disk (hit + disk_hit), fetch() then reclassifies it as a miss.
        writer.put("deadbeef", {"version": 999})

        reader = RewriteCache(directory=tmp_path)
        result, fingerprint = reader.fetch(scenario, "deadbeef")
        assert result is None
        assert fingerprint == "deadbeef"
        assert reader.stats.hits == 0
        assert reader.stats.misses == 1
        assert reader.stats.disk_hits == 0

    def test_unusable_memory_payload_keeps_disk_hits(self, tmp_path):
        scenario = build_scenario()
        cache = RewriteCache(directory=tmp_path)
        cache.put("cafe", {"version": 999})
        # Served from memory: the rollback must not touch disk_hits.
        result, _ = cache.fetch(scenario, "cafe")
        assert result is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.disk_hits == 0

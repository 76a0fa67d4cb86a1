"""Batch executor: a corpus through the full pipeline, optionally pooled.

Work is described by :class:`~repro.runtime.corpus.ScenarioSpec`s, so a
pooled run ships only (family, params) tuples to its workers; each
worker rebuilds scenarios locally (the generators are seeded, hence
deterministic) and keeps a worker-local
:class:`~repro.runtime.cache.RewriteCache`.  Pointing the options at a
``cache_dir`` makes that cache disk-backed and therefore *shared*: any
worker's rewriting becomes every other worker's hit, and a repeat run
over the same corpus re-executes zero rewrites.

Robustness over raw speed:

* per-task timeouts via ``SIGALRM`` (skipped on platforms without it),
  recorded as ``timeout`` task records instead of killing the run;
* a task that raises records ``error`` with the exception text;
* if the worker pool cannot be created — or a worker dies mid-run —
  the executor degrades gracefully to serial execution and notes why.
  The pool is a :class:`concurrent.futures.ProcessPoolExecutor`, which
  notices a dead worker and fails the outstanding tasks with
  ``BrokenProcessPool`` (``multiprocessing.Pool.map`` would wait for
  the lost task forever).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.rewriter import rewrite
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.pipeline import run_rewritten
from repro.runtime.cache import CacheStats, RewriteCache
from repro.runtime.corpus import Corpus, ScenarioSpec
from repro.runtime.fingerprint import fingerprint_scenario, fingerprint_task
from repro.runtime.results import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    BatchSummary,
    TaskRecord,
    summarize,
)

__all__ = ["BatchOptions", "BatchReport", "run_batch"]


@dataclass(frozen=True)
class BatchOptions:
    """Knobs for one batch run (picklable: it travels to pool workers)."""

    jobs: int = 1
    """Worker processes; 1 means serial in-process execution."""
    timeout: Optional[float] = None
    """Per-task wall-clock budget in seconds (needs ``SIGALRM``)."""
    verify: bool = True
    max_scenarios: int = 256
    """Greedy ded-chase budget, as in :func:`repro.pipeline.run_scenario`."""
    use_cache: bool = True
    cache_dir: Optional[str] = None
    """Disk tier for the rewrite cache; required for cross-process sharing
    and for warm-cache behaviour across runs."""
    cache_capacity: int = 512
    trace: bool = False
    """Run every task under a flight recorder: each
    :class:`~repro.runtime.results.TaskRecord` then carries the full
    span/metric payload (``record.trace``) and its counter snapshot
    (``record.metrics``).  Payloads travel back from pool workers with
    the records, so ``grom batch --trace`` merges them into one file."""


@dataclass
class BatchReport:
    """Everything one batch run produced."""

    corpus: str
    records: List[TaskRecord]
    wall_seconds: float
    mode: str
    """``serial`` or ``pool``; serial runs note a degradation reason."""
    jobs: int
    note: str = ""
    cache_stats: Optional[CacheStats] = None
    """Parent-process cache counters (serial runs only; pooled workers
    keep their own — use the per-record ``cache_hit`` flags, which are
    authoritative in both modes)."""

    @property
    def summary(self) -> BatchSummary:
        return summarize(self.records, wall_seconds=self.wall_seconds)


class _TaskTimeout(Exception):
    pass


class _PoolUnavailable(Exception):
    pass


@contextmanager
def _alarm(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`_TaskTimeout` after ``seconds`` of wall clock.

    A no-op when no budget is set, off the main thread, or on platforms
    without ``SIGALRM``/``setitimer`` (Windows) — timeouts are then
    simply not enforced rather than refusing to run.

    The handler's exception can be lost: when the signal lands inside a
    gc callback it is unraisable, so Python prints and discards it and
    the body runs on.  The handler therefore also records that the
    timer expired, and leaving the block raises the timeout if it fired
    but never propagated.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    expired = []

    def _handler(_signum, _frame):
        expired.append(True)
        raise _TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise _TaskTimeout()


# ---------------------------------------------------------------------------
# Task execution (shared by the serial path and pool workers)
# ---------------------------------------------------------------------------


def _execute(
    corpus_name: str,
    index: int,
    spec: ScenarioSpec,
    options: BatchOptions,
    cache: Optional[RewriteCache],
) -> TaskRecord:
    record = TaskRecord(
        corpus=corpus_name,
        index=index,
        label=spec.label,
        family=spec.family,
        params=spec.params_dict(),
    )
    recorder = FlightRecorder() if options.trace else NULL_RECORDER
    start = time.perf_counter()
    try:
        with _alarm(options.timeout), recorder.span(
            "task", label=spec.label, family=spec.family, index=index
        ):
            with recorder.span("build"):
                built = spec.build()
            scenario, instance = built.scenario, built.instance
            record.build_seconds = time.perf_counter() - start
            record.source_facts = len(instance)
            fingerprint = fingerprint_scenario(scenario)
            record.fingerprint = fingerprint
            record.task_fingerprint = fingerprint_task(
                scenario,
                instance,
                scenario_fingerprint=fingerprint,
                verify=options.verify,
                max_scenarios=options.max_scenarios,
            )

            step = time.perf_counter()
            with recorder.span("rewrite") as rewrite_span:
                rewritten = None
                if cache is not None:
                    rewritten, _ = cache.fetch(scenario, fingerprint)
                    record.cache_hit = rewritten is not None
                if rewritten is None:
                    rewritten = rewrite(scenario)
                    if cache is not None:
                        cache.store(fingerprint, rewritten)
                if recorder.enabled:
                    rewrite_span.annotate(cached=record.cache_hit)
                    recorder.count("cache.lookups")
                    if record.cache_hit:
                        recorder.count("cache.hits")
            record.rewrite_seconds = time.perf_counter() - step
            record.dependencies = len(rewritten.dependencies)
            record.deds = sum(1 for d in rewritten.dependencies if d.is_ded())

            step = time.perf_counter()
            # run_rewritten materializes the source-side semantic
            # database once and shares it between the chase input and
            # the soundness verifier, so a verified task pays one
            # materialization, not two (and the greedy ded sweep's k
            # derived scenarios all chase over that same instance).
            outcome = run_rewritten(
                scenario,
                rewritten,
                instance,
                verify=options.verify,
                max_scenarios=options.max_scenarios,
                recorder=recorder if recorder.enabled else None,
            )
            record.chase_seconds = time.perf_counter() - step
            record.status = str(outcome.chase.status)
            record.ok = outcome.ok
            record.verified = (
                outcome.verification.ok if outcome.verification is not None else None
            )
            record.target_facts = len(outcome.target)
            record.rounds = outcome.chase.stats.rounds
            record.scenarios_tried = outcome.chase.scenarios_tried
            record.scenarios_pruned = outcome.chase.scenarios_pruned
            record.nulls_created = outcome.chase.stats.nulls_created
            record.branch_timings = outcome.chase.branch_timings
            record.guards = outcome.chase.guards
            if outcome.analysis is not None:
                analysis = outcome.analysis
                record.termination_class = str(
                    analysis.termination.classification
                )
                record.proven_terminating = analysis.termination.proven
                record.dead_dependencies = len(
                    analysis.firing.dead_dependencies
                )
                record.strata = len(analysis.firing.strata)
                counters = analysis.counters()
                record.analysis_errors = counters["analysis.diagnostics.error"]
                record.analysis_warnings = counters[
                    "analysis.diagnostics.warning"
                ]
    except _TaskTimeout:
        record.status = STATUS_TIMEOUT
        record.error = f"timed out after {options.timeout:g}s"
    except Exception as exc:  # a bad spec must not sink the batch
        record.status = STATUS_ERROR
        record.error = f"{type(exc).__name__}: {exc}"
    record.total_seconds = time.perf_counter() - start
    if recorder.enabled:
        payload = recorder.to_payload()
        record.trace = payload
        # Counters plus gauges (e.g. ``instance.intern_size``): the
        # names are disjoint, so one flat dict serves batch summaries.
        record.metrics = dict(payload["metrics"].get("counters", {}))
        record.metrics.update(payload["metrics"].get("gauges", {}))
    return record


# ---------------------------------------------------------------------------
# Pool plumbing
# ---------------------------------------------------------------------------

_worker_state: dict = {}


def _init_worker(options: BatchOptions) -> None:
    _worker_state["options"] = options
    _worker_state["cache"] = (
        RewriteCache(capacity=options.cache_capacity, directory=options.cache_dir)
        if options.use_cache
        else None
    )


def _run_task(task: Tuple[str, int, ScenarioSpec]) -> TaskRecord:
    corpus_name, index, spec = task
    return _execute(
        corpus_name,
        index,
        spec,
        _worker_state["options"],
        _worker_state["cache"],
    )


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    # fork skips re-importing the package per worker; spawn is the
    # portable fallback.
    method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(method)


def _run_pool(
    corpus_name: str,
    specs: Sequence[ScenarioSpec],
    options: BatchOptions,
    jobs: int,
) -> List[TaskRecord]:
    # Imported here: concurrent.futures.process pulls in logging,
    # subprocess and multiprocessing.queues (about 0.6 MiB resident),
    # which serial batches never need.
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(corpus_name, index, spec) for index, spec in enumerate(specs)]
    try:
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(options,),
        )
    except (OSError, ValueError, AttributeError) as exc:
        raise _PoolUnavailable(f"worker pool unavailable: {exc}") from exc
    try:
        with pool:
            # One task per submission: specs have wildly different
            # costs, so greedy load balancing beats amortized dispatch.
            return list(pool.map(_run_task, tasks))
    except Exception as exc:  # e.g. BrokenProcessPool: a worker died
        raise _PoolUnavailable(
            f"worker pool failed: {type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_batch(
    corpus: Corpus,
    options: Optional[BatchOptions] = None,
    cache: Optional[RewriteCache] = None,
) -> BatchReport:
    """Run every spec of ``corpus`` through the pipeline.

    ``options.jobs > 1`` uses a worker pool; pool creation or mid-run
    failure degrades to serial execution (the report's ``note`` says
    why).  A ``cache`` instance is honoured on the serial path; pooled
    workers construct their own from ``options`` (share state by setting
    ``options.cache_dir``).
    """
    options = options or BatchOptions()
    specs = list(corpus)
    jobs = max(1, int(options.jobs))

    note = ""
    records: Optional[List[TaskRecord]] = None
    start = time.perf_counter()
    mode = "serial"
    if jobs > 1 and len(specs) > 1:
        try:
            records = _run_pool(corpus.name, specs, options, jobs)
            mode = "pool"
        except _PoolUnavailable as exc:
            note = f"{exc}; degraded to serial"
    if records is None:
        if cache is None and options.use_cache:
            cache = RewriteCache(
                capacity=options.cache_capacity, directory=options.cache_dir
            )
        elif not options.use_cache:
            cache = None
        records = [
            _execute(corpus.name, index, spec, options, cache)
            for index, spec in enumerate(specs)
        ]
        jobs_used = 1
    else:
        jobs_used = jobs
    wall = time.perf_counter() - start

    return BatchReport(
        corpus=corpus.name,
        records=records,
        wall_seconds=wall,
        mode=mode,
        jobs=jobs_used,
        note=note,
        cache_stats=cache.stats if cache is not None else None,
    )

"""JSONL task records and aggregate summaries for batch runs.

One :class:`TaskRecord` per executed spec: identity (corpus, index,
family, params, fingerprints), outcome (pipeline status, verification),
timings (build / rewrite / chase / total) and cache behaviour.  Records
serialize to one JSON object per line so arbitrarily large runs stream
to disk and standard tooling (``jq``, pandas) can consume them.

:func:`summarize` folds records into a :class:`BatchSummary`;
:func:`repro.reporting.batch_summary_table` renders that for humans.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import percentile

__all__ = [
    "TaskRecord",
    "BatchSummary",
    "write_jsonl",
    "read_jsonl",
    "summarize",
]

# Task statuses beyond the chase's own success/failure/nontermination.
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


@dataclass
class TaskRecord:
    """The outcome of one spec run through the pipeline."""

    corpus: str
    index: int
    label: str
    family: str
    params: Dict[str, object]
    fingerprint: str = ""
    """Scenario fingerprint (the rewrite-cache key)."""
    task_fingerprint: str = ""
    """Scenario + instance + pipeline-parameter fingerprint."""

    status: str = ""
    """``success`` / ``failure`` / ``nontermination`` / ``timeout`` / ``error``."""
    ok: bool = False
    verified: Optional[bool] = None
    error: str = ""
    branch_timings: Optional[List[Dict[str, object]]] = None
    """Per derived-scenario timings from the greedy ded sweep (canonical
    selection order up to the winner): ``index``, ``selection``,
    ``status``, ``seconds``, ``pruned``, ``resumed``."""

    cache_hit: bool = False
    build_seconds: float = 0.0
    rewrite_seconds: float = 0.0
    chase_seconds: float = 0.0
    total_seconds: float = 0.0

    dependencies: int = 0
    deds: int = 0
    source_facts: int = 0
    target_facts: int = 0
    rounds: int = 0
    scenarios_tried: int = 0
    scenarios_pruned: int = 0
    """Of ``scenarios_tried``, the selections the greedy ded sweep
    answered from a nogood instead of chasing them."""
    scenarios_resumed: int = 0
    """Of the chased selections, those resumed from the search's
    checkpoint instead of chased from scratch."""
    nulls_created: int = 0

    termination_class: str = ""
    """Static termination verdict for the rewritten set (``full`` /
    ``weakly_acyclic`` / ``jointly_acyclic`` / ``super_weakly_acyclic``
    / ``unproven``)."""
    proven_terminating: bool = False
    guards: str = ""
    """``dropped`` when the chase ran without budgets on the strength of
    the proof, ``enforced`` otherwise."""
    dead_dependencies: int = 0
    """Dependencies the analyzer proved could never fire statically."""
    strata: int = 0
    """Strata in the analyzer's condensed fire schedule."""
    analysis_errors: int = 0
    analysis_warnings: int = 0

    trace: Optional[Dict[str, object]] = None
    """Flight-recorder payload (spans + metrics snapshot) when the batch
    ran with tracing enabled; ``None`` otherwise.  Serializes into the
    JSONL record so a traced batch is fully replayable offline."""
    metrics: Optional[Dict[str, float]] = None
    """Final counter values from the task's flight recorder — the
    ``trace`` payload's counters lifted out for convenient ``jq``/trend
    consumption."""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TaskRecord":
        """Parse one JSONL line.  Keys that are not fields are ignored,
        so files written before a field was removed still load."""
        known = {f.name for f in fields(cls)}
        data = json.loads(line)
        return cls(**{k: v for k, v in data.items() if k in known})


def write_jsonl(records: Iterable[TaskRecord], path) -> int:
    """Write records one-per-line; returns how many were written."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as stream:
        for record in records:
            stream.write(record.to_json())
            stream.write("\n")
            count += 1
    return count


def read_jsonl(path) -> List[TaskRecord]:
    records = []
    with Path(path).open() as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(TaskRecord.from_json(line))
    return records


@dataclass
class BatchSummary:
    """Aggregate view of one batch run."""

    total: int = 0
    succeeded: int = 0
    failed: int = 0
    nonterminated: int = 0
    timeouts: int = 0
    errors: int = 0
    verified: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    rewrite_seconds: float = 0.0
    chase_seconds: float = 0.0
    task_seconds: float = 0.0
    wall_seconds: float = 0.0
    scenarios_tried: int = 0
    """Greedy ded sweep selections summed over the run's tasks."""
    scenarios_pruned: int = 0
    """Of ``scenarios_tried``, those answered from a nogood."""
    scenarios_resumed: int = 0
    """Of the chased selections, those resumed from a checkpoint."""
    proven_terminating: int = 0
    """Tasks whose scenario the static analyzer proved terminating."""
    guards_dropped: int = 0
    """Tasks that chased without budgets on the strength of the proof."""
    dead_dependencies: int = 0
    """Statically dead dependencies summed over the run's tasks."""
    analysis_errors: int = 0
    analysis_warnings: int = 0
    by_family: Dict[str, int] = field(default_factory=dict)
    by_termination: Dict[str, int] = field(default_factory=dict)
    """Task counts per termination class (``full``, ``weakly_acyclic``,
    ...)."""
    phase_latencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    """Per-phase (build/rewrite/chase/total) latency digests over the
    run's task records: ``{"p50": ..., "p99": ..., "sum": ...}``."""
    kernel_metrics: Dict[str, float] = field(default_factory=dict)
    """Columnar-kernel totals over the run's traced records: summed
    ``kernel.*`` counters plus the peak ``instance.intern_size`` gauge.
    Empty when the batch ran untraced."""

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    @property
    def scenarios_per_second(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def clean(self) -> bool:
        """No infrastructure problems (chase failures are a valid outcome)."""
        return self.errors == 0 and self.timeouts == 0

    def as_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["cache_hit_rate"] = self.cache_hit_rate
        out["scenarios_per_second"] = self.scenarios_per_second
        return out


def summarize(
    records: Iterable[TaskRecord], wall_seconds: float = 0.0
) -> BatchSummary:
    """Fold task records into one :class:`BatchSummary`."""
    summary = BatchSummary(wall_seconds=wall_seconds)
    phase_samples: Dict[str, List[float]] = {
        "build": [],
        "rewrite": [],
        "chase": [],
        "total": [],
    }
    for record in records:
        summary.total += 1
        summary.by_family[record.family] = (
            summary.by_family.get(record.family, 0) + 1
        )
        if record.status == "success":
            summary.succeeded += 1
        elif record.status == "failure":
            summary.failed += 1
        elif record.status == "nontermination":
            summary.nonterminated += 1
        elif record.status == STATUS_TIMEOUT:
            summary.timeouts += 1
        else:
            summary.errors += 1
        if record.verified:
            summary.verified += 1
        summary.cache_lookups += 1
        if record.cache_hit:
            summary.cache_hits += 1
        if record.termination_class:
            summary.by_termination[record.termination_class] = (
                summary.by_termination.get(record.termination_class, 0) + 1
            )
        if record.proven_terminating:
            summary.proven_terminating += 1
        if record.guards == "dropped":
            summary.guards_dropped += 1
        summary.dead_dependencies += record.dead_dependencies
        summary.scenarios_tried += record.scenarios_tried
        summary.scenarios_pruned += record.scenarios_pruned
        summary.scenarios_resumed += record.scenarios_resumed
        summary.analysis_errors += record.analysis_errors
        summary.analysis_warnings += record.analysis_warnings
        summary.rewrite_seconds += record.rewrite_seconds
        summary.chase_seconds += record.chase_seconds
        summary.task_seconds += record.total_seconds
        phase_samples["build"].append(record.build_seconds)
        phase_samples["rewrite"].append(record.rewrite_seconds)
        phase_samples["chase"].append(record.chase_seconds)
        phase_samples["total"].append(record.total_seconds)
        if record.metrics:
            kernel = summary.kernel_metrics
            for name, value in record.metrics.items():
                if name.startswith("kernel."):
                    kernel[name] = kernel.get(name, 0) + value
                elif name == "instance.intern_size":
                    # A gauge: the pool is global per process, so the
                    # batch-level figure is the peak, not a sum.
                    kernel[name] = max(kernel.get(name, 0), value)
    for phase, samples in phase_samples.items():
        if samples:
            summary.phase_latencies[phase] = {
                "p50": percentile(samples, 50),
                "p99": percentile(samples, 99),
                "sum": sum(samples),
            }
    return summary

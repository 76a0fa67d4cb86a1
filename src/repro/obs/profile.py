"""Aggregate a trace into a self-time-sorted phase profile.

``grom profile run.jsonl`` answers "where did the time go?": per span
name it reports call count, total (inclusive) time, **self time**
(inclusive minus time attributed to child spans, clamped at zero — the
number worth sorting by), and p50/p99 of per-span durations.  A footer
reconciles the profile against wall clock: the summed self-times of the
coordinating worker should cover the root span's duration, and the
``coverage`` ratio makes missing instrumentation visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.jsonl import TraceFile
from repro.obs.metrics import percentile

__all__ = [
    "PhaseProfile",
    "ProfileReport",
    "profile_trace",
    "render_profile",
    "phase_metrics",
]


@dataclass
class PhaseProfile:
    """Aggregated timing for one span name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: List[float] = field(default_factory=list)
    workers: set = field(default_factory=set)

    @property
    def p50(self) -> Optional[float]:
        return percentile(self.durations, 50) if self.durations else None

    @property
    def p99(self) -> Optional[float]:
        return percentile(self.durations, 99) if self.durations else None


@dataclass
class ProfileReport:
    """A full profile: phases (self-time descending) plus reconciliation."""

    phases: List[PhaseProfile]
    wall_seconds: float
    main_self_seconds: float
    span_count: int
    workers: List[str]

    @property
    def coverage(self) -> Optional[float]:
        """Fraction of wall clock covered by coordinator self-times."""
        if not self.wall_seconds:
            return None
        return self.main_self_seconds / self.wall_seconds


def profile_trace(trace: TraceFile) -> ProfileReport:
    """Aggregate the spans of a parsed trace into per-name phases."""
    spans = trace.spans
    # Time attributed to children, per parent span id.  Only same-worker
    # children subtract from self time: another worker's span runs
    # concurrently with its parent, so its duration is not time the
    # parent itself lost.
    child_time: Dict[object, float] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent is None:
            continue
        parent_span = by_id.get(parent)
        if parent_span is None:
            continue
        if parent_span.get("worker") != span.get("worker"):
            continue
        child_time[parent] = child_time.get(parent, 0.0) + (
            span["end"] - span["start"]
        )

    phases: Dict[str, PhaseProfile] = {}
    main_self = 0.0
    workers = set()
    # Roots: spans with no (recorded) parent.  Wall is the envelope of
    # the coordinator's roots; the CLI writes an explicit root span, so
    # in practice this is that span's duration.
    root_start: Optional[float] = None
    root_end: Optional[float] = None
    for span in spans:
        name = span["name"]
        worker = span.get("worker", "main")
        workers.add(worker)
        duration = span["end"] - span["start"]
        self_time = max(0.0, duration - child_time.get(span["id"], 0.0))
        phase = phases.get(name)
        if phase is None:
            phase = phases[name] = PhaseProfile(name=name)
        phase.count += 1
        phase.total += duration
        phase.self_time += self_time
        phase.durations.append(duration)
        phase.workers.add(worker)
        if worker == "main":
            main_self += self_time
        parent = span.get("parent")
        if parent is None or parent not in by_id:
            if root_start is None or span["start"] < root_start:
                root_start = span["start"]
            if root_end is None or span["end"] > root_end:
                root_end = span["end"]

    wall = trace.wall_seconds
    if not wall and root_start is not None and root_end is not None:
        wall = root_end - root_start
    ordered = sorted(phases.values(), key=lambda p: (-p.self_time, p.name))
    return ProfileReport(
        phases=ordered,
        wall_seconds=wall,
        main_self_seconds=main_self,
        span_count=len(spans),
        workers=sorted(workers),
    )


def phase_metrics(report: ProfileReport) -> Dict[str, object]:
    """A trend-comparable digest of a profile (for ``BENCH_*.json``).

    Leaf names carry the ``_seconds``/``p50``/``p99``/``coverage``
    markers ``benchmarks/trend.py`` uses to assign polarity, so a traced
    CI batch feeds straight into the rolling-median regression check.
    """
    return {
        "wall_seconds": report.wall_seconds,
        "coordinator_self_seconds": report.main_self_seconds,
        "coverage": report.coverage if report.coverage is not None else 0.0,
        "span_count": report.span_count,
        "phases": {
            phase.name: {
                "calls": phase.count,
                "self_seconds": phase.self_time,
                "total_seconds": phase.total,
                "p50_seconds": phase.p50 if phase.p50 is not None else 0.0,
                "p99_seconds": phase.p99 if phase.p99 is not None else 0.0,
            }
            for phase in report.phases
        },
    }


def render_profile(
    report: ProfileReport,
    trace: Optional[TraceFile] = None,
    top: Optional[int] = None,
) -> str:
    """The ``grom profile`` output: phase table + reconciliation footer
    (+ counters when the trace carries them)."""
    from repro.reporting import format_table

    phases: Sequence[PhaseProfile] = report.phases
    dropped = 0
    if top is not None and len(phases) > top:
        dropped = len(phases) - top
        phases = phases[:top]
    rows = []
    for phase in phases:
        share = (
            phase.self_time / report.wall_seconds if report.wall_seconds else None
        )
        rows.append(
            [
                phase.name,
                phase.count,
                round(phase.self_time, 4),
                f"{share * 100:.1f}%" if share is not None else "-",
                round(phase.total, 4),
                round(phase.p50, 4) if phase.p50 is not None else None,
                round(phase.p99, 4) if phase.p99 is not None else None,
                len(phase.workers),
            ]
        )
    lines = [
        format_table(
            ["phase", "calls", "self_s", "self%", "total_s", "p50_s", "p99_s", "workers"],
            rows,
            title="Phase profile (self-time descending)",
        )
    ]
    if dropped:
        lines.append(f"... {dropped} more phase(s); use --top to widen")
    coverage = report.coverage
    lines.append("")
    lines.append(
        "wall {:.4f}s  coordinator self {:.4f}s  coverage {}  spans {}  workers {}".format(
            report.wall_seconds,
            report.main_self_seconds,
            f"{coverage * 100:.1f}%" if coverage is not None else "-",
            report.span_count,
            len(report.workers),
        )
    )
    if trace is not None and (trace.counters or trace.gauges):
        # One merged table: counters (monotone sums) and gauges (final
        # levels, e.g. ``instance.intern_size``) share the namespace.
        merged = dict(trace.counters)
        merged.update(trace.gauges)
        metric_rows = [[name, merged[name]] for name in sorted(merged)]
        lines.append("")
        lines.append(format_table(["counter", "value"], metric_rows))
    return "\n".join(lines)

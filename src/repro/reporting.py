"""Plain-text table rendering for benchmark harnesses and the CLI.

The benchmark scripts print the same kind of rows the paper's
experiments would tabulate; this module keeps that output aligned and
consistent without pulling in a formatting dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.runtime.executor import BatchReport
    from repro.runtime.results import TaskRecord

__all__ = [
    "format_table",
    "format_row",
    "Table",
    "batch_summary_table",
    "batch_family_table",
    "batch_slowest_table",
]

Cell = Union[str, int, float, bool, None]


def _render_cell(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def format_row(cells: Sequence[Cell], widths: Sequence[int]) -> str:
    rendered = [
        _render_cell(cell).rjust(width) if not isinstance(cell, str) else
        _render_cell(cell).ljust(width)
        for cell, width in zip(cells, widths)
    ]
    return "  ".join(rendered)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned table: left-aligned strings, right-aligned numbers."""
    materialized = [list(row) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(_render_cell(cell)))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append(format_row(row, widths))
    return "\n".join(lines)


class Table:
    """Accumulates rows and prints once — convenient inside benchmarks."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[Cell]] = []

    def add(self, *cells: Cell) -> None:
        self.rows.append(list(cells))

    def render(self) -> str:
        return format_table(self.headers, self.rows, self.title)

    def print(self) -> None:
        print()
        print(self.render())


# ---------------------------------------------------------------------------
# Batch-run views (consume repro.runtime.results records)
# ---------------------------------------------------------------------------


def batch_summary_table(report: "BatchReport") -> Table:
    """One-row-per-metric overview of a batch run."""
    summary = report.summary
    table = Table(f"Batch run: {report.corpus}", ["metric", "value"])
    table.add("scenarios", summary.total)
    table.add("mode", f"{report.mode} (jobs={report.jobs})")
    table.add("succeeded", summary.succeeded)
    table.add("chase failures", summary.failed)
    table.add("nonterminated", summary.nonterminated)
    table.add("timeouts", summary.timeouts)
    table.add("errors", summary.errors)
    table.add("verified sound", summary.verified)
    table.add("proven terminating", summary.proven_terminating)
    table.add("guards dropped", summary.guards_dropped)
    if summary.by_termination:
        classes = ", ".join(
            f"{name}={count}"
            for name, count in sorted(summary.by_termination.items())
        )
        table.add("termination classes", classes)
    if summary.dead_dependencies:
        table.add("dead dependencies", summary.dead_dependencies)
    table.add(
        "scenarios pruned",
        f"{summary.scenarios_pruned}/{summary.scenarios_tried}",
    )
    if summary.analysis_errors or summary.analysis_warnings:
        table.add(
            "lint diagnostics",
            f"{summary.analysis_errors} errors,"
            f" {summary.analysis_warnings} warnings",
        )
    table.add("cache hits", f"{summary.cache_hits}/{summary.cache_lookups}")
    table.add("cache hit rate", summary.cache_hit_rate)
    table.add("rewrite seconds", summary.rewrite_seconds)
    table.add("chase seconds", summary.chase_seconds)
    for phase, digest in summary.phase_latencies.items():
        table.add(
            f"{phase} p50/p99 s",
            f"{digest['p50']:.4f}/{digest['p99']:.4f}",
        )
    if summary.kernel_metrics:
        kernel = summary.kernel_metrics
        parts = [
            f"{name.split('.', 1)[1]}={int(kernel[name])}"
            for name in sorted(kernel)
            if name.startswith("kernel.")
        ]
        if parts:
            table.add("kernel", ", ".join(parts))
        if "instance.intern_size" in kernel:
            table.add("intern pool peak", int(kernel["instance.intern_size"]))
    table.add("wall seconds", summary.wall_seconds)
    table.add("scenarios/sec", summary.scenarios_per_second)
    if report.note:
        table.add("note", report.note)
    return table


def batch_family_table(records: Sequence["TaskRecord"]) -> Table:
    """Per-family outcome/timing breakdown of batch task records."""
    table = Table(
        "By family",
        ["family", "runs", "ok", "cache hits", "rewrite s", "chase s"],
    )
    families: List[str] = []
    for record in records:
        if record.family not in families:
            families.append(record.family)
    for family in families:
        mine = [r for r in records if r.family == family]
        table.add(
            family,
            len(mine),
            sum(1 for r in mine if r.ok),
            sum(1 for r in mine if r.cache_hit),
            sum(r.rewrite_seconds for r in mine),
            sum(r.chase_seconds for r in mine),
        )
    return table


def batch_slowest_table(records: Sequence["TaskRecord"], top: int = 5) -> Table:
    """The ``top`` slowest tasks — where a performance change should look first."""
    table = Table(
        f"Slowest {top} tasks",
        ["task", "status", "total s", "chase s", "target facts"],
    )
    ranked = sorted(records, key=lambda r: r.total_seconds, reverse=True)
    for record in ranked[:top]:
        table.add(
            record.label,
            record.status,
            record.total_seconds,
            record.chase_seconds,
            record.target_facts,
        )
    return table

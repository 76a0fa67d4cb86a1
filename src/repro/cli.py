"""Command-line interface: the non-graphical face of GROM.

The demo paper drives GROM through a GUI (mapping designer, view
browser, rewriter, chase engine — Figure 3); this CLI exposes the same
workflow over DSL scenario files::

    grom analyze  scenario.grom      # ded prediction + problematic views
    grom lint     scenario.grom      # static diagnostics + termination class
    grom rewrite  scenario.grom      # print Σ_ST ∪ Σ_T
    grom chase    scenario.grom      # rewrite + chase + verify
    grom demo                        # run the paper's Section 2 example
    grom batch    [corpus]           # a whole generated corpus, pooled
    grom profile  trace.jsonl        # phase table from a --trace file

Scenario files may embed an ``instance source { ... }`` section; the
``--csv DIR`` option loads the source instance from CSV files instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.core.analysis import predict_deds
from repro.core.rewriter import rewrite
from repro.dsl.parser import ParsedDocument, parse_scenario
from repro.dsl.serializer import serialize_scenario
from repro.logic.pretty import render_dependencies
from repro.pipeline import run_scenario
from repro.relational.csv_io import load_instance
from repro.relational.instance import Instance
from repro.reporting import Table

__all__ = ["main", "build_argument_parser"]


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grom",
        description="GROM: rewrite and execute semantic schema mappings",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze", help="predict deds and highlight problematic views"
    )
    analyze.add_argument("scenario", type=Path, help="DSL scenario file")

    lint = subparsers.add_parser(
        "lint",
        help="run the static analyzer: termination class, fire schedule "
             "and coded diagnostics; non-zero exit on error diagnostics",
    )
    lint.add_argument(
        "scenarios", nargs="*", type=Path,
        help="DSL scenario files to lint",
    )
    lint.add_argument(
        "--corpus", default=None, metavar="NAME",
        help="also lint every scenario of a generated corpus",
    )
    lint.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the full machine-readable report to this file",
    )
    lint.add_argument(
        "--quiet", action="store_true",
        help="only print warnings and errors (suppress info diagnostics)",
    )

    rewrite_cmd = subparsers.add_parser(
        "rewrite", help="print the rewritten source-to-target dependencies"
    )
    rewrite_cmd.add_argument("scenario", type=Path)
    rewrite_cmd.add_argument(
        "--ascii", action="store_true", help="ASCII arrows instead of unicode"
    )

    chase_cmd = subparsers.add_parser(
        "chase", help="rewrite, chase and verify a scenario end to end"
    )
    chase_cmd.add_argument("scenario", type=Path)
    chase_cmd.add_argument(
        "--csv", type=Path, default=None,
        help="directory of <relation>.csv files for the source instance",
    )
    chase_cmd.add_argument(
        "--max-scenarios", type=int, default=256,
        help="budget for the greedy ded chase",
    )
    chase_cmd.add_argument(
        "--no-verify", action="store_true", help="skip the soundness check"
    )
    chase_cmd.add_argument(
        "--show-target", action="store_true", help="print the produced instance"
    )
    chase_cmd.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="record a flight-recorder trace (spans + metrics) of the "
             "run as JSONL; render it with 'grom profile PATH'",
    )

    subparsers.add_parser("demo", help="run the paper's running example")

    export = subparsers.add_parser(
        "export-example", help="write the running example as a DSL file"
    )
    export.add_argument("output", type=Path)

    batch = subparsers.add_parser(
        "batch",
        help="run a generated scenario corpus through the whole pipeline",
    )
    batch.add_argument(
        "corpus", nargs="?", default=None,
        help="corpus name (default: the built-in mixed workload)",
    )
    batch.add_argument(
        "--list", action="store_true", help="list available corpora and exit"
    )
    batch.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial; >1 uses a multiprocessing pool)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-scenario wall-clock budget in seconds",
    )
    batch.add_argument(
        "--limit", type=int, default=None,
        help="only run the first N scenarios of the corpus",
    )
    batch.add_argument(
        "--cache-dir", type=Path, default=None,
        help="directory for the on-disk rewrite cache (shared by workers "
             "and by repeat runs)",
    )
    batch.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed rewrite cache",
    )
    batch.add_argument(
        "--results", type=Path, default=None,
        help="write one JSONL task record per scenario to this file",
    )
    batch.add_argument(
        "--max-scenarios", type=int, default=256,
        help="budget for the greedy ded chase",
    )
    batch.add_argument(
        "--no-verify", action="store_true", help="skip the soundness check"
    )
    batch.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="trace every task with the flight recorder and write the "
             "merged span/metric stream as JSONL; render it with "
             "'grom profile PATH'",
    )

    profile = subparsers.add_parser(
        "profile",
        help="render a flight-recorder trace as a self-time phase table",
    )
    profile.add_argument(
        "trace", type=Path, help="JSONL trace written by --trace"
    )
    profile.add_argument(
        "--top", type=int, default=20,
        help="show at most this many phases (default 20)",
    )
    return parser


def _load(path: Path) -> ParsedDocument:
    return parse_scenario(path.read_text())


def _source_instance(document: ParsedDocument, csv_dir: Optional[Path]) -> Instance:
    if csv_dir is not None:
        return load_instance(document.scenario.source_schema, csv_dir)
    if document.source_instance is not None:
        return document.source_instance
    print("warning: no source instance (empty input)", file=sys.stderr)
    return Instance(document.scenario.source_schema)


def _cmd_analyze(args: argparse.Namespace) -> int:
    document = _load(args.scenario)
    prediction = predict_deds(document.scenario)
    print(f"scenario: {document.scenario.name}")
    print(f"may produce deds: {'YES' if prediction.may_have_deds else 'no'}")
    if prediction.culprits:
        table = Table("Offending dependencies", ["dependency", "views to revisit"])
        for origin, views in prediction.culprits.items():
            table.add(origin, ", ".join(views))
        table.print()
    diagnostics = Table(
        "View diagnostics",
        ["view", "union", "negation", "depth", "problematic"],
    )
    for diagnostic in prediction.view_diagnostics.values():
        diagnostics.add(
            diagnostic.name,
            diagnostic.union,
            diagnostic.direct_negation,
            diagnostic.negation_depth,
            diagnostic.problematic,
        )
    diagnostics.print()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import (
        Severity,
        lint_file,
        lint_scenario,
        render_report,
        reports_payload,
    )

    reports = []
    for path in args.scenarios:
        reports.append(lint_file(path))
    if args.corpus is not None:
        from repro.runtime.corpus import get_corpus

        try:
            corpus = get_corpus(args.corpus)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        for spec in corpus:
            generated = spec.build()
            reports.append(
                lint_scenario(
                    generated.scenario,
                    source=f"{corpus.name}:{spec.label}",
                )
            )
    if not reports:
        print("error: nothing to lint (pass scenario files or --corpus)",
              file=sys.stderr)
        return 2

    minimum = Severity.WARNING if args.quiet else Severity.INFO
    clean = 0
    for report in reports:
        rendered = render_report(report, minimum=minimum)
        if rendered:
            print(rendered)
        if report.ok:
            clean += 1
    payload = reports_payload(reports)
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote lint report to {args.json}")
    totals = payload["totals"]
    print(
        f"linted {len(reports)} scenario(s): {clean} clean, "
        f"{totals['error']} error(s), {totals['warning']} warning(s)"
    )
    return 0 if payload["ok"] else 1


def _cmd_rewrite(args: argparse.Namespace) -> int:
    document = _load(args.scenario)
    result = rewrite(document.scenario)
    print(render_dependencies(result.dependencies, unicode=not args.ascii))
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(result.counts().items()))
    print(f"\n{len(result.dependencies)} dependencies ({counts})")
    if result.has_deds:
        print(f"deds present; problematic views: {result.problematic_views()}")
    return 0


def _write_trace_file(path: Path, payload, meta: dict) -> None:
    """Merge a flight-recorder payload and write it as a JSONL trace."""
    from repro.obs.jsonl import write_trace
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder()
    recorder.merge_payload(payload)
    written = write_trace(path, recorder, meta=meta)
    print(f"wrote {written} trace records to {path}")


def _cmd_chase(args: argparse.Namespace) -> int:
    import time

    from repro.chase.engine import ChaseConfig
    from repro.obs.recorder import TraceConfig

    document = _load(args.scenario)
    source = _source_instance(document, args.csv)
    trace_config = TraceConfig(enabled=True) if args.trace is not None else None
    config = ChaseConfig(trace=trace_config) if trace_config is not None else None
    begin = time.perf_counter()
    outcome = run_scenario(
        document.scenario,
        source,
        verify=not args.no_verify,
        config=config,
        max_scenarios=args.max_scenarios,
    )
    wall = time.perf_counter() - begin
    if args.trace is not None:
        _write_trace_file(
            args.trace,
            outcome.trace,
            {
                "command": "chase",
                "scenario": document.scenario.name,
                "wall_seconds": round(wall, 6),
            },
        )
    print(f"rewriting: {outcome.rewrite!r}")
    print(f"chase:     {outcome.chase}")
    if outcome.chase.branch_selection:
        print(f"branches:  {outcome.chase.branch_selection} "
              f"(after {outcome.chase.scenarios_tried} scenarios, "
              f"{outcome.chase.scenarios_pruned} pruned)")
    if outcome.verification is not None:
        print(f"verify:    {outcome.verification}")
    if args.show_target and outcome.chase.ok:
        print()
        print(outcome.target)
    return 0 if outcome.ok else 1


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.scenarios.running_example import (
        build_scenario,
        generate_source_instance,
    )

    scenario = build_scenario()
    source = generate_source_instance(products=12, seed=7, benign_name_pairs=1)
    result = rewrite(scenario)
    print("== Rewritten dependencies (note e0 -> the paper's ded d0) ==")
    print(render_dependencies(result.dependencies, unicode=False))
    outcome = run_scenario(scenario, source)
    print()
    print(f"chase:  {outcome.chase}")
    print(f"verify: {outcome.verification}")
    sizes = {r: outcome.target.size(r) for r in sorted(outcome.target.relations())}
    print(f"target sizes: {sizes}")
    return 0 if outcome.ok else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.reporting import (
        batch_family_table,
        batch_slowest_table,
        batch_summary_table,
    )
    from repro.runtime.corpus import DEFAULT_CORPUS, describe_corpora, get_corpus
    from repro.runtime.executor import BatchOptions, run_batch
    from repro.runtime.results import write_jsonl

    if args.list:
        table = Table("Available corpora", ["name", "scenarios", "description"])
        for name, size, description in describe_corpora():
            table.add(name, size, description)
        table.print()
        return 0

    try:
        corpus = get_corpus(args.corpus or DEFAULT_CORPUS)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.limit is not None:
        corpus = corpus.limited(args.limit)

    options = BatchOptions(
        jobs=args.jobs,
        timeout=args.timeout,
        verify=not args.no_verify,
        max_scenarios=args.max_scenarios,
        use_cache=not args.no_cache,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        trace=args.trace is not None,
    )
    report = run_batch(corpus, options)

    if args.results is not None:
        written = write_jsonl(report.records, args.results)
        print(f"wrote {written} task records to {args.results}")
    if args.trace is not None:
        from repro.obs.jsonl import write_trace
        from repro.obs.recorder import FlightRecorder

        merged = FlightRecorder()
        for record in report.records:
            # Pooled tasks ran concurrently in separate processes, so
            # their spans must not share the coordinator's "main" label
            # (that would double-count their self time against wall);
            # serial tasks genuinely are the coordinator's own time.
            merged.merge_payload(
                record.trace,
                worker=f"task-{record.index}" if report.mode == "pool" else None,
            )
        written = write_trace(
            args.trace,
            merged,
            meta={
                "command": "batch",
                "corpus": report.corpus,
                "mode": report.mode,
                "jobs": report.jobs,
                "tasks": len(report.records),
                "wall_seconds": round(report.wall_seconds, 6),
            },
        )
        print(f"wrote {written} trace records to {args.trace}")
    batch_summary_table(report).print()
    batch_family_table(report.records).print()
    batch_slowest_table(report.records).print()

    summary = report.summary
    if not summary.clean:
        for record in report.records:
            if record.error:
                print(
                    f"problem: {record.label}: {record.status}: {record.error}",
                    file=sys.stderr,
                )
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.jsonl import TraceFormatError, read_trace
    from repro.obs.profile import profile_trace, render_profile

    try:
        trace = read_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    report = profile_trace(trace)
    print(render_profile(report, trace, top=args.top))
    return 0


def _cmd_export_example(args: argparse.Namespace) -> int:
    from repro.scenarios.running_example import (
        build_scenario,
        generate_source_instance,
    )

    text = serialize_scenario(
        build_scenario(),
        source_instance=generate_source_instance(products=8, seed=0),
    )
    args.output.write_text(text)
    print(f"wrote {args.output}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "lint": _cmd_lint,
        "rewrite": _cmd_rewrite,
        "chase": _cmd_chase,
        "demo": _cmd_demo,
        "export-example": _cmd_export_example,
        "batch": _cmd_batch,
        "profile": _cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

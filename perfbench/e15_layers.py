"""Per-layer metrics of a traced e15 run.

The traced run records one ``request`` span per request (per task on
corpus-mixed) with one child span per public layer call; the chase and
the Datalog layer nest their own spans and counters below those.
Layer names are module names.  Every metric is a mean per request, so
runs of different lengths compare; ratios state their base below.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.jsonl import TraceFile
from repro.obs.profile import profile_trace

__all__ = ["LAYER_METRICS", "coverage", "layer_metrics"]

# (name, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("dsl.parse.self_s", "s", "lower", "latency_p50_s on running-dsl"),
    ("dsl.parse.bytes_per_s", "B/s", "higher", "latency_p50_s on running-dsl"),
    ("core.rewriter.rewrite.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("core.rewriter.dependencies", "count", "lower", "throughput_rps on corpus-mixed"),
    ("analysis.analyze.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("analysis.proven_ratio", "ratio", "higher", "throughput_rps on corpus-mixed"),
    ("runtime.build.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("runtime.fingerprint.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("runtime.cache.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("runtime.cache.hit_ratio", "ratio", "higher", "throughput_rps on corpus-mixed"),
    ("plan.compiles", "count", "lower", "throughput_rps on corpus-mixed"),
    ("plan.recompiles", "count", "lower", "throughput_rps on corpus-mixed"),
    ("plan.hit_ratio", "ratio", "higher", "throughput_rps on corpus-mixed"),
    ("chase.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("chase.run.self_s", "s", "lower", "throughput_rps on corpus-mixed"),
    ("chase.enumerate.self_s", "s", "lower", "throughput_rps on join-triangles"),
    ("kernel.probe_rows", "count", "lower", "throughput_rps on join-triangles"),
    ("kernel.probe_yield", "ratio", "higher", "throughput_rps on join-triangles"),
    ("relational.instance.load.self_s", "s", "lower", "throughput_rps on join-triangles"),
    ("chase.enforce.self_s", "s", "lower", "latency_p50_s on running-dsl"),
    ("kernel.encoded_appends", "count", "lower", "latency_p50_s on running-dsl"),
    ("chase.facts_created", "count", "lower", "latency_p50_s on running-dsl"),
    ("chase.nulls_created", "count", "lower", "latency_p50_s on running-dsl"),
    ("chase.egd_unifications", "count", "lower", "latency_p50_s on running-dsl"),
    ("instance.intern_size", "count", "lower", "peak_rss_mb on running-dsl"),
    ("instance.index_builds", "count", "lower", "latency_p50_s on running-dsl"),
    ("chase.search.self_s", "s", "lower", "throughput_rps on ded-search"),
    ("chase.scenarios_tried", "count", "lower", "throughput_rps on ded-search"),
    ("chase.runs", "count", "lower", "throughput_rps on ded-search"),
    ("chase.selection_yield", "ratio", "higher", "latency_p90_s on ded-search"),
    ("chase.rounds", "count", "lower", "latency_p90_s on ded-search"),
    ("chase.enumerations_skipped", "count", "higher", "latency_p90_s on ded-search"),
    ("chase.premise_matches", "count", "lower", "latency_p90_s on ded-search"),
    ("core.compose.extend_source.self_s", "s", "lower", "latency_p50_s on running-dsl"),
    ("datalog.refresh.self_s", "s", "lower", "latency_p50_s on running-dsl"),
    ("datalog.derived_facts", "count", "lower", "latency_p50_s on running-dsl"),
    ("core.verify.verify_solution.self_s", "s", "lower", "latency_p50_s on running-dsl"),
    ("verify.premise_matches", "count", "lower", "latency_p50_s on running-dsl"),
    ("pipeline.strip_auxiliary.self_s", "s", "lower", "latency_p50_s on running-dsl"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced busy time / untraced busy time"),
    ("trace.coverage", "ratio", "higher", "none: layer spans / request wall time"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def coverage(spans: List[dict]) -> float:
    """Share of ``request`` wall time covered by its direct layer spans."""
    roots = {s["id"]: s for s in spans if s["name"] == "request"}
    covered = sum(
        s["end"] - s["start"] for s in spans if s.get("parent") in roots
    )
    return _ratio(covered, sum(s["end"] - s["start"] for s in roots.values()))


def layer_metrics(
    payload: dict, time_scale: float, overhead_ratio: float
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced run's payload.

    ``time_scale`` converts the run's span times to the reference host
    speed; ``overhead_ratio`` is traced over untraced busy time.
    """
    spans = payload["spans"]
    counters = payload["metrics"]["counters"]
    gauges = payload["metrics"]["gauges"]
    requests = sum(1 for s in spans if s["name"] == "request")
    phases = {
        phase.name: phase
        for phase in profile_trace(TraceFile(meta={}, spans=spans)).phases
    }

    def count(name: str) -> float:
        return counters.get(name, 0)

    derived = {
        "dsl.parse.bytes_per_s": _ratio(
            count("dsl.parse.bytes"),
            phases["dsl.parse"].total * time_scale if "dsl.parse" in phases else 0.0,
        ),
        # base: analyzer calls (one per request)
        "analysis.proven_ratio": _ratio(count("analysis.proven"), requests),
        # base: rewrite-cache lookups
        "runtime.cache.hit_ratio": _ratio(count("cache.hits"), count("cache.lookups")),
        # base: plan lookups (served from cache + compiled)
        "plan.hit_ratio": _ratio(
            count("plan.served"), count("plan.served") + count("plan.compiles")
        ),
        # base: candidate rows after delta restriction
        "kernel.probe_yield": _ratio(
            count("kernel.probe_survivors"), count("kernel.probe_rows")
        ),
        # base: derived scenarios chased
        "chase.selection_yield": _ratio(
            count("chase.successes"), count("chase.scenarios_tried")
        ),
        "instance.intern_size": gauges.get("instance.intern_size", 0),
        "trace.overhead_ratio": overhead_ratio,
        "trace.coverage": coverage(spans),
    }
    values = {}
    for name, _unit, _better, _moves in LAYER_METRICS:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            phase = phases.get(name[: -len(".self_s")])
            values[name] = _ratio(phase.self_time * time_scale if phase else 0.0, requests)
        else:
            values[name] = _ratio(count(name), requests)
    return values

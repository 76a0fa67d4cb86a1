"""The flight recorder: one span tracer + one metrics registry.

:class:`FlightRecorder` is the object instrumented code talks to; the
disabled default is the shared :data:`NULL_RECORDER`, whose every
operation is a no-op — hot paths guard bigger instrumentation blocks
with ``if recorder.enabled:`` (a single attribute check) and otherwise
just call through.

Configuration travels as :class:`TraceConfig`, a frozen, picklable
dataclass that rides on :class:`~repro.chase.engine.ChaseConfig` and
:class:`~repro.runtime.executor.BatchOptions` — pool workers
rebuild their own recorder from it and ship the result home as a
*payload* (:meth:`FlightRecorder.to_payload`), which the parent merges
deterministically (:meth:`FlightRecorder.merge_payload`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.metrics import (
    DEFAULT_SAMPLE_CAP,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.trace import DEFAULT_MAX_SPANS, NullTracer, Tracer

__all__ = [
    "TraceConfig",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "resolve_recorder",
]

PAYLOAD_VERSION = 1


@dataclass(frozen=True)
class TraceConfig:
    """Picklable tracing knobs (rides on ChaseConfig / BatchOptions)."""

    enabled: bool = False
    max_spans: int = DEFAULT_MAX_SPANS
    """Per-recorder span budget; past it spans are counted, not stored."""
    sample_cap: int = DEFAULT_SAMPLE_CAP
    """Histogram sample buffer bound (quantile precision only)."""

    def recorder(self, worker: str = "main") -> "FlightRecorder":
        """A recorder honouring this config (the null one when disabled)."""
        if not self.enabled:
            return NULL_RECORDER
        return FlightRecorder(
            worker=worker, max_spans=self.max_spans, sample_cap=self.sample_cap
        )


class FlightRecorder:
    """Span tracer + metrics registry behind one ``enabled`` flag."""

    enabled = True

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        worker: str = "main",
        max_spans: int = DEFAULT_MAX_SPANS,
        sample_cap: int = DEFAULT_SAMPLE_CAP,
    ) -> None:
        self.tracer = Tracer(worker=worker, max_spans=max_spans)
        self.metrics = MetricsRegistry(sample_cap=sample_cap)

    # -- instrumentation surface ------------------------------------------

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def count(self, name: str, value: float = 1) -> None:
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- worker shipping ---------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Everything recorded so far, as one JSON/pickle-safe dict."""
        return {
            "version": PAYLOAD_VERSION,
            "worker": self.tracer.worker,
            "spans": list(self.tracer.records),
            "dropped_spans": self.tracer.dropped,
            "metrics": self.metrics.snapshot(),
        }

    def merge_payload(
        self,
        payload: Optional[Dict[str, object]],
        worker: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> None:
        """Adopt a worker payload: spans re-parent under the current
        span, counters/histograms add, gauges take the incoming value.

        Deterministic as long as the caller merges workers in a fixed
        order (task order for a batch run) — which it does.
        """
        if not payload:
            return
        self.tracer.merge_records(
            payload.get("spans", ()), worker=worker, parent=parent
        )
        dropped = payload.get("dropped_spans", 0)
        if dropped:
            self.tracer.dropped += dropped
        self.metrics.merge_snapshot(payload.get("metrics"))


class NullRecorder:
    """The disabled recorder; shared singleton :data:`NULL_RECORDER`."""

    enabled = False

    __slots__ = ()

    tracer = NullTracer()
    metrics = NullMetrics()

    def span(self, _name: str, **_attrs):
        return self.tracer.span(_name)

    def count(self, _name: str, _value: float = 1) -> None:
        pass

    def gauge(self, _name: str, _value: float) -> None:
        pass

    def observe(self, _name: str, _value: float) -> None:
        pass

    def to_payload(self) -> None:
        return None

    def merge_payload(self, _payload, worker=None, parent=None) -> None:
        pass


NULL_RECORDER = NullRecorder()


def resolve_recorder(
    recorder: Optional[object], config: Optional[TraceConfig]
) -> object:
    """The recorder an engine should use: an explicitly-passed one wins
    (the caller owns the trace), else one built from ``config``, else
    the shared null recorder."""
    if recorder is not None:
        return recorder
    if config is not None and config.enabled:
        return config.recorder()
    return NULL_RECORDER


def span_records(payload_or_recorder) -> List[dict]:
    """Span records from a recorder or a payload dict (test helper)."""
    if payload_or_recorder is None:
        return []
    if isinstance(payload_or_recorder, dict):
        return list(payload_or_recorder.get("spans", ()))
    return list(payload_or_recorder.tracer.records)

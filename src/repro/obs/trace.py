"""Nested, monotonic-clock span tracing for the flight recorder.

A :class:`Tracer` records a tree of timed spans.  Spans are opened as
context managers::

    with tracer.span("chase.round", round=3):
        ...

and recorded *flat* on close — each finished span is one plain dict
(``id``, ``parent``, ``name``, ``start``, ``end``, ``worker``,
``attrs``) so a whole trace serializes to JSONL without walking a tree
and merges across processes by re-identifying ids.

Times are raw :func:`time.perf_counter` readings; only differences are
meaningful, and the JSONL writer rebases them against the trace origin.
On Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which forked workers
share, so merged parent/child traces stay on one coherent timeline
(elsewhere durations remain exact and only cross-process alignment is
approximate).

The disabled path is :class:`NullTracer`: ``span()`` returns one shared
no-op context manager, so instrumented code pays a single attribute
check (``tracer.enabled``) or one trivially-inlined method call when
tracing is off.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: Default bound on recorded spans per tracer; past it, spans are
#: counted as dropped instead of recorded (a trace must never be the
#: thing that exhausts memory on a pathological run).
DEFAULT_MAX_SPANS = 100_000


class Span:
    """An open span; finished by its ``with`` block."""

    __slots__ = ("_tracer", "id", "parent", "name", "start", "attrs", "_recorded")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent: Optional[int],
        name: str,
        attrs: Optional[dict],
        recorded: bool,
    ) -> None:
        self._tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self._recorded = recorded
        self.start = time.perf_counter()

    def annotate(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (e.g. match counts)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is not None:
            self.annotate(error=exc_type.__name__)
        self._tracer._finish(self)
        return False


class _NullSpan:
    """The shared do-nothing span of :class:`NullTracer`."""

    __slots__ = ()

    def annotate(self, **_attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans as flat records.

    Not thread-safe: one tracer belongs to one thread of control.
    Worker processes record into their own tracer and the parent
    merges the finished records (:meth:`merge_records`), which
    is how the parallel chase ships worker spans home.
    """

    enabled = True

    __slots__ = ("worker", "_records", "_stack", "_next_id", "_max_spans", "dropped")

    def __init__(
        self, worker: str = "main", max_spans: int = DEFAULT_MAX_SPANS
    ) -> None:
        self.worker = worker
        self._records: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._max_spans = max_spans
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span; finished when its ``with`` block exits."""
        parent = self._stack[-1] if self._stack else None
        recorded = len(self._records) + len(self._stack) < self._max_spans
        span = Span(
            self,
            self._next_id,
            parent,
            name,
            attrs or None,
            recorded,
        )
        self._next_id += 1
        self._stack.append(span.id)
        return span

    def _finish(self, span: Span) -> None:
        # Unwind to this span: an exception may have skipped inner
        # __exit__ calls (they have not — context managers unwind — but
        # a hand-held span closed out of order must not corrupt nesting).
        while self._stack and self._stack[-1] != span.id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if not span._recorded:
            self.dropped += 1
            return
        record = {
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "start": span.start,
            "end": time.perf_counter(),
            "worker": self.worker,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self._records.append(record)

    @property
    def current_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def add_raw(
        self,
        name: str,
        start: float,
        end: float,
        worker: Optional[str] = None,
        parent: Optional[int] = None,
        **attrs,
    ) -> int:
        """Record an already-timed span (after-the-fact bookkeeping)."""
        span_id = self._next_id
        self._next_id += 1
        if len(self._records) >= self._max_spans:
            self.dropped += 1
            return span_id
        record = {
            "id": span_id,
            "parent": parent if parent is not None else self.current_id,
            "name": name,
            "start": start,
            "end": end,
            "worker": worker if worker is not None else self.worker,
        }
        if attrs:
            record["attrs"] = attrs
        self._records.append(record)
        return span_id

    # -- merging (worker span trees -> the parent trace) -------------------

    def merge_records(
        self,
        records: Sequence[dict],
        worker: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> None:
        """Adopt finished span records from another tracer.

        Ids are re-assigned (the two tracers numbered independently);
        parentless spans are attached under ``parent`` (default: the
        caller's currently-open span).  ``worker`` relabels spans that
        carried the generic ``main`` label — a branch chased in a fork
        recorded itself as its own main — while spans that already carry
        a specific worker label keep it.  Merge order is the record
        order, so merging is deterministic whenever the caller iterates
        workers in a fixed order.
        """
        attach_to = parent if parent is not None else self.current_id
        # Two passes: records arrive in *completion* order, so a child
        # precedes its parent — ids must all be assigned before parent
        # references can be remapped, or every span would be re-rooted.
        id_map: Dict[int, int] = {}
        adopted_records: List[dict] = []
        for record in records:
            if len(self._records) + len(adopted_records) >= self._max_spans:
                self.dropped += 1
                continue
            id_map[record["id"]] = self._next_id
            self._next_id += 1
            adopted_records.append(record)
        for record in adopted_records:
            old_parent = record.get("parent")
            adopted = dict(record)
            adopted["id"] = id_map[record["id"]]
            adopted["parent"] = (
                id_map.get(old_parent, attach_to)
                if old_parent is not None
                else attach_to
            )
            if worker is not None and record.get("worker") == "main":
                adopted["worker"] = worker
            self._records.append(adopted)

    # -- reading -----------------------------------------------------------

    @property
    def records(self) -> List[dict]:
        """Finished span records, in completion order."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    worker = "main"
    dropped = 0

    __slots__ = ()

    def span(self, _name: str, **_attrs) -> _NullSpan:
        return _NULL_SPAN

    def add_raw(self, *_args, **_kwargs) -> int:
        return -1

    def merge_records(self, *_args, **_kwargs) -> None:
        pass

    @property
    def current_id(self) -> Optional[int]:
        return None

    @property
    def records(self) -> List[dict]:
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()

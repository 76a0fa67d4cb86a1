"""Chase outcomes: status, produced instance, statistics and traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance

__all__ = ["ChaseStatus", "ChaseStats", "ChaseResult"]


class ChaseStatus(enum.Enum):
    """How a chase run ended."""

    SUCCESS = "success"
    FAILURE = "failure"
    """An egd equated distinct constants, a denial fired, or a required
    disjunct comparison was unsatisfiable — the scenario has no solution
    on this branch."""

    NONTERMINATION = "nontermination"
    """Step/round budget exhausted; the scenario may not terminate."""

    def __str__(self) -> str:
        return self.value


@dataclass
class ChaseStats:
    """Counters accumulated during one chase run."""

    rounds: int = 0
    tgd_fires: int = 0
    egd_unifications: int = 0
    facts_created: int = 0
    nulls_created: int = 0
    premise_matches: int = 0
    null_rewrites: int = 0
    elapsed_seconds: float = 0.0

    dependencies_pruned: int = 0
    """Dependencies the static analyzer proved dead for this run's base
    instance (their premise mentions a never-populatable relation); the
    engine never enumerates them."""

    enumerations_skipped: int = 0
    """Enumerate phases skipped without running the premise join — dead
    dependencies plus delta rounds whose new facts cannot touch the
    premise."""

    def merge(self, other: "ChaseStats") -> "ChaseStats":
        return ChaseStats(
            rounds=self.rounds + other.rounds,
            tgd_fires=self.tgd_fires + other.tgd_fires,
            egd_unifications=self.egd_unifications + other.egd_unifications,
            facts_created=self.facts_created + other.facts_created,
            nulls_created=self.nulls_created + other.nulls_created,
            premise_matches=self.premise_matches + other.premise_matches,
            null_rewrites=self.null_rewrites + other.null_rewrites,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            dependencies_pruned=self.dependencies_pruned
            + other.dependencies_pruned,
            enumerations_skipped=self.enumerations_skipped
            + other.enumerations_skipped,
        )


@dataclass
class ChaseResult:
    """The outcome of a chase run.

    ``target`` is the produced target instance: every relation of the
    working instance except the source relations.  The rewriter's
    auxiliary ``_grom_req_*`` relations are still in it —
    :func:`repro.pipeline.strip_auxiliary` removes them.  The engine
    hands the target over undecoded: ``target`` decodes from the run's
    columnar store on first read, caches the result and drops the store,
    so a result nobody reads (a failed greedy ded selection) never
    decodes.  Until then :meth:`encoded_target` copies relations out of
    the store still encoded.  A result pickled across a process boundary
    ships the decoded target, never the store.

    ``working`` is the full working instance for diagnosis
    (``ChaseConfig.keep_working``).  ``failure_reason`` explains
    FAILURE/NONTERMINATION outcomes.  For greedy ded runs,
    ``branch_selection`` records which disjunct of each ded the winning
    standard scenario used and ``scenarios_tried`` how many scenarios
    were attempted before success (or exhaustion).
    """

    status: ChaseStatus
    target: Instance
    working: Optional[Instance] = None
    stats: ChaseStats = field(default_factory=ChaseStats)
    failure_reason: str = ""
    branch_selection: Optional[Dict[str, int]] = None
    scenarios_tried: int = 0
    scenarios_pruned: int = 0
    """How many of the ``scenarios_tried`` selections the greedy ded
    sweep answered from a nogood instead of chasing them (see
    :mod:`repro.chase.ded`)."""

    branch_timings: Optional[List[Dict[str, object]]] = None
    """Per derived-scenario timings of the greedy ded sweep, in
    canonical selection order up to the winner: ``index``, ``selection``,
    ``status``, ``seconds`` and whether it was ``pruned`` (answered from
    a nogood, not chased)."""

    guards: str = "enforced"
    """``enforced`` when the run kept its step budget and bounded
    trigger memory, ``dropped`` when a static termination proof let the
    engine run unbudgeted with exact trigger memory (see
    :meth:`repro.analysis.TerminationReport.proven_for`)."""

    trace: Optional[Dict[str, object]] = None
    """Flight-recorder payload (spans + metric snapshot) when the run
    owned its recorder — i.e. tracing was enabled via ``config.trace``
    and no external recorder was passed in.  The payload is plain
    picklable data (see :meth:`repro.obs.FlightRecorder.to_payload`)."""

    enforced: FrozenSet[int] = frozenset()
    """Positions (in the chased dependency list) of the dependencies
    that enforced a conclusion at least once during the run."""

    @property
    def ok(self) -> bool:
        return self.status is ChaseStatus.SUCCESS

    def defer_target(
        self, store: ColumnarInstance, source_relations: Iterable[str], recorder=None
    ) -> "ChaseResult":
        """Make ``target`` decode lazily out of ``store`` (the engine's
        working instance), leaving out ``source_relations``.  The decode
        is counted as ``kernel.decoded_rows`` on ``recorder``, if given."""
        self._target = None
        self._pending = (store, frozenset(source_relations), recorder)
        return self

    def encoded_target(
        self, keep: Callable[[str], bool] = lambda relation: True
    ) -> ColumnarInstance:
        """The target relations passing ``keep``, copied encoded out of
        the run's columnar store.  Read it before ``target``: decoding
        drops the store."""
        store, source_relations, _recorder = self._pending
        return store.restricted_to(
            relation
            for relation in store.relations()
            if relation not in source_relations and keep(relation)
        )

    def _decode_target(self) -> Instance:
        store, source_relations, recorder = self._pending
        relations = [r for r in store.relations() if r not in source_relations]
        before = store.kernel_stats.decoded_rows
        target = store.to_instance(relations=relations)
        if recorder is not None:
            recorder.count(
                "kernel.decoded_rows", store.kernel_stats.decoded_rows - before
            )
        self._target = target
        self._pending = None
        return target

    def __getstate__(self):
        # Crossing a process boundary: ship decoded rows, never the store
        # (its codes are only meaningful against this process's pool).
        state = dict(self.__dict__)
        state["_target"] = self.target
        state["_pending"] = None
        return state

    def __str__(self) -> str:
        if self.ok:
            return (
                f"chase: success in {self.stats.rounds} rounds, "
                f"{len(self.target)} target facts, "
                f"{self.stats.nulls_created} nulls"
            )
        return f"chase: {self.status} ({self.failure_reason})"


def _get_target(self: ChaseResult) -> Instance:
    if self._pending is not None:
        return self._decode_target()
    return self._target


def _set_target(self: ChaseResult, value: Instance) -> None:
    self._target = value
    self._pending = None


# Installed after the dataclass decorator ran, so ``target`` stays an
# ordinary constructor field whose assignment goes through the setter.
ChaseResult.target = property(  # type: ignore[assignment]
    _get_target,
    _set_target,
    doc="The produced target instance, decoded on first read.",
)

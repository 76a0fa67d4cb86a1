"""The standard chase: tgds, egds, mixed dependencies and denials.

A Llunatic-style restricted chase over the in-memory substrate:

* **tgd step** — for every premise match with no satisfied conclusion
  (the *restricted* condition), instantiate the conclusion, inventing a
  fresh labeled null per existential variable;
* **egd step** — for every premise match whose equalities do not hold,
  unify: null/term unions go through a union-find; equating two distinct
  constants is a hard :class:`ChaseFailure`;
* **denial step** — any premise match is a hard failure;
* **disjunct comparisons** — a conclusion whose comparison checks fail
  under the match cannot be satisfied, which is also a failure (the
  greedy ded driver relies on this to discard bad branches).

Rounds are delta-driven: after the first full round, premises are only
re-evaluated against matches involving newly created facts.  Egd
rewrites invalidate the delta bookkeeping, so a round that performed
null rewriting forces a full re-evaluation round — simple and sound.

Each dependency's round is an explicit two-phase pipeline:

* **enumerate** — find every premise match: a read-only join over the
  working :class:`~repro.relational.kernel.ColumnarInstance` through the
  dependency's compiled premise plans
  (:meth:`~repro.chase.compiled.CompiledDependency.premise_matches_encoded`),
  as code rows.
* **enforce** — sort the matches into canonical order, then probe
  satisfaction and fire tgd/egd steps one match at a time.  Because
  enforcement order is canonical, null invention and ``_NullMap`` unions
  do not depend on the order the join produced the matches in — which
  is what lets the set-based oracle under ``tests/`` reproduce every
  null id.

Both phases run in the calling process: the columnar enumerate join is
memory-bound, and forked shards of it did not beat one process on two
cores (see the README's *Why the chase is serial*).

Premise negation is rejected unless it only mentions *source* relations
(which the chase never modifies); that is exactly the shape the rewriter
emits when asked to unfold source premises.

**Checkpoints.**  ``run(capture=True)`` leaves a :class:`ChaseCheckpoint`
on :attr:`StandardChase.checkpoint`, taken the first time any ded
enforces a row, and ``run(resume=checkpoint)`` continues from it with
the new engine's branch choice.  Up to that row nothing the run did can
depend on a ded's branch (satisfaction checks see every disjunct), so
the greedy ded sweep chases that prefix once per search.  At that
moment the store equals the store at the start of the ded's step —
enumeration and satisfaction checks only read, and every earlier row of
the step was satisfied — and the step's null map is still empty, so no
rewrite is in flight.  The checkpoint holds:

* a :meth:`~repro.relational.kernel.ColumnarInstance.copy` of the store
  (row ids survive the copy, so the round's delta masks stay valid);
* the :class:`~repro.logic.terms.NullFactory` position, a copy of the
  :class:`ChaseStats` and the enforced positions;
* the round state: the dead set computed from the *seeded* base, the
  oblivious trigger memory (exact set and Bloom bytes, copied), the
  round's delta, generation mark and null rewrites so far;
* the step: the ded's position, its sorted matches and the row that
  enforces, taken before that row's oblivious trigger is recorded.

Nothing is copied per round or per step: a run that never enforces a
ded, or was not asked to capture, pays nothing.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ChaseError, ChaseFailure, ChaseNonTermination
from repro.analysis.firing import dead_dependency_indices
from repro.analysis.termination import TerminationReport
from repro.chase.compiled import CompiledDependency, compile_dependencies
from repro.chase.result import ChaseResult, ChaseStats, ChaseStatus
from repro.obs.recorder import TraceConfig, resolve_recorder
from repro.logic.dependencies import Dependency
from repro.logic.terms import Null, NullFactory, Term, Variable
from repro.relational.delta import group_rows, mask_rows
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, RowMask

__all__ = ["ChaseCheckpoint", "ChaseConfig", "StandardChase", "chase"]


@dataclass
class ChaseConfig:
    """Tunables for a chase run."""

    max_rounds: int = 10_000
    max_facts: Optional[int] = 5_000_000
    policy: str = "restricted"
    """``restricted`` (skip satisfied premises) or ``oblivious``
    (fire every premise match once, regardless of satisfaction)."""

    keep_working: bool = False
    """Retain the full working instance on the result (debugging)."""

    oblivious_trigger_limit: int = 100_000
    """How many oblivious-policy triggers are remembered *exactly*.
    Past the limit, fired triggers spill into a fixed-size Bloom filter,
    bounding the memory of long oblivious runs (see
    :class:`_TriggerMemory`)."""

    trace: Optional[TraceConfig] = None
    """Flight-recorder knobs (:class:`repro.obs.TraceConfig`).  ``None``
    or a disabled config means the chase runs uninstrumented — every
    probe degrades to a no-op on the shared null recorder."""

    guards: str = "auto"
    """``auto`` (default): when a static termination proof covering
    this run's policy is supplied, drop the round/fact budgets and keep
    trigger memory exact and unbounded — the proof, not the budget, is
    what guarantees the run ends.  ``on``: always enforce budgets and
    bounded trigger memory, proof or not (the differential suite uses
    this to assert guarded and unguarded runs are bit-identical)."""


class _NullMap:
    """Union-find over encoded terms, with constants as sinks.

    Codes are ints: nulls negative (``-(id + 1)``), constants positive.
    A null/null union keeps the null with the *smaller id* as the root.
    Because a null's code is ``-(id + 1)``, the smaller id is the
    *larger* code.  Failure messages decode the clashing constants
    through the working instance.
    """

    __slots__ = ("_parent", "_decode")

    def __init__(self, working: ColumnarInstance) -> None:
        self._parent: Dict[int, int] = {}
        self._decode = working.decode_term

    def find(self, code: int) -> int:
        parent = self._parent
        seen: List[int] = []
        while code < 0 and code in parent:
            seen.append(code)
            code = parent[code]
        for c in seen[:-1]:  # path compression
            parent[c] = code
        return code

    def union(self, left: int, right: int, context: str) -> bool:
        """Merge the classes of two codes; returns True when a change happened.

        Raises :class:`ChaseFailure` when both resolve to distinct
        constants — the classical hard egd failure.
        """
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return False
        left_null = left_root < 0
        right_null = right_root < 0
        if not left_null and not right_null:
            raise ChaseFailure(
                f"{context}: cannot equate distinct constants "
                f"{self._decode(left_root)} and {self._decode(right_root)}"
            )
        if left_null and right_null:
            # The smaller null id — the larger code — becomes the root.
            if left_root > right_root:
                self._parent[right_root] = left_root
            else:
                self._parent[left_root] = right_root
        elif left_null:
            self._parent[left_root] = right_root
        else:
            self._parent[right_root] = left_root
        return True

    def resolution(self) -> Dict[int, int]:
        return {code: self.find(code) for code in self._parent}

    def __len__(self) -> int:
        return len(self._parent)


class _TriggerMemory:
    """Bounded memory of fired oblivious-policy triggers.

    The oblivious chase must remember every (dependency, premise
    binding) it ever fired, and on long runs an exact set grows without
    bound — the ROADMAP's "oblivious-policy trigger memory" item.  This
    structure keeps the first ``exact_limit`` triggers exactly; once the
    limit is hit, *new* triggers spill into a fixed-size double-hashed
    Bloom filter (``BLOOM_BITS`` bits, ``HASHES`` probes ≈ 1% false
    positives at 10^5 spilled entries), so memory is bounded by
    ``exact_limit`` tuples plus ``BLOOM_BITS / 8`` bytes regardless of
    run length.

    There are no false negatives — every added trigger is found again,
    so a trigger never fires twice.  A Bloom false positive makes the
    chase skip a trigger it never actually fired: for the oblivious
    policy (a termination/analysis tool, deliberately over-firing) an
    occasional conservative skip is an acceptable trade for bounded
    memory; the default restricted policy never consults this structure
    and stays exact.

    Probe positions come from a *stable* digest of the trigger, not
    Python's per-process-randomized ``hash()``: which triggers collide
    (and are therefore conservatively skipped) must be identical across
    runs, or two oblivious chases of the same input could produce
    different instances once spilling starts.

    ``exact_limit=None`` disables spilling entirely — every trigger is
    remembered exactly.  That mode is only sound when something else
    bounds the run, which is exactly what a static termination proof
    provides (``ChaseConfig.guards``).
    """

    __slots__ = ("_exact", "_limit", "_bits", "_spilled")

    BLOOM_BITS = 1 << 20  # 128 KiB of bytearray once spilling starts
    HASHES = 4

    def __init__(self, exact_limit: Optional[int]) -> None:
        self._exact: Set[Tuple[int, Tuple[Term, ...]]] = set()
        self._limit = None if exact_limit is None else max(0, exact_limit)
        self._bits: Optional[bytearray] = None
        self._spilled = 0

    @staticmethod
    def _stable_digest(trigger) -> Tuple[int, int]:
        """Two 64-bit hashes from a canonical trigger serialization.

        Nulls serialize by id only (their ``hint`` is excluded from
        equality, so it must be excluded here too).
        """
        import hashlib

        parts: List[str] = [str(trigger[0])]
        for term in trigger[1]:
            if isinstance(term, Null):
                parts.append(f"n{term.id}")
            else:
                parts.append(repr(term))
        digest = hashlib.blake2b(
            "\x1f".join(parts).encode("utf-8", "surrogatepass"),
            digest_size=16,
        ).digest()
        return (
            int.from_bytes(digest[:8], "big"),
            int.from_bytes(digest[8:], "big"),
        )

    def _probes(self, trigger) -> List[int]:
        first, second = self._stable_digest(trigger)
        second |= 1  # odd: visits all slots
        mask = self.BLOOM_BITS - 1
        return [(first + i * second) & mask for i in range(self.HASHES)]

    def __contains__(self, trigger) -> bool:
        if trigger in self._exact:
            return True
        bits = self._bits
        if bits is None:
            return False
        return all(bits[p >> 3] & (1 << (p & 7)) for p in self._probes(trigger))

    def add(self, trigger) -> None:
        if self._bits is None:
            if self._limit is None or len(self._exact) < self._limit:
                self._exact.add(trigger)
                return
            self._bits = bytearray(self.BLOOM_BITS // 8)
        for p in self._probes(trigger):
            self._bits[p >> 3] |= 1 << (p & 7)
        self._spilled += 1

    def copy(self) -> "_TriggerMemory":
        clone = _TriggerMemory(self._limit)
        clone._exact = set(self._exact)
        clone._bits = None if self._bits is None else bytearray(self._bits)
        clone._spilled = self._spilled
        return clone

    # -- introspection (memory-growth regression tests) --------------------

    @property
    def exact_size(self) -> int:
        return len(self._exact)

    @property
    def spilled(self) -> int:
        return self._spilled

    @property
    def approximate_bytes(self) -> int:
        """Upper bound on the structure's own storage (test hook)."""
        bloom = len(self._bits) if self._bits is not None else 0
        return bloom + sum(64 + 48 * len(t[1]) for t in self._exact)


class _RoundState:
    """What the round loop carries from one dependency's step to the next."""

    __slots__ = ("dead", "triggers", "delta", "generation", "rewrites")

    def __init__(self, dead: FrozenSet[int], triggers: _TriggerMemory) -> None:
        self.dead = dead
        self.triggers = triggers
        #: relation -> RowMask of the rows the previous round inserted
        #: (no Atom objects on the hot path), or ``None`` for "evaluate
        #: everything".
        self.delta: Optional[Dict[str, RowMask]] = None
        self.generation = 0
        self.rewrites = 0

    def copy(self) -> "_RoundState":
        clone = _RoundState(self.dead, self.triggers.copy())
        clone.delta = self.delta  # masks are never mutated
        clone.generation = self.generation
        clone.rewrites = self.rewrites
        return clone


@dataclass
class ChaseCheckpoint:
    """A run's state at its first ded enforcement (see the module
    docstring).  Resuming never mutates it, so one checkpoint serves
    every later selection of a greedy ded search.  It is valid for any
    engine over the same dependencies and config that differs at most
    in the branches it chooses for deds."""

    store: ColumnarInstance
    next_null: int
    stats: ChaseStats
    enforced: FrozenSet[int]
    round_state: _RoundState
    index: int
    """Position of the ded whose step the checkpoint interrupts."""
    rows: List[Tuple[int, ...]]
    """That step's premise matches, in canonical order."""
    position: int
    """The row of ``rows`` that enforces first."""

    @property
    def label(self) -> str:
        return f"round {self.stats.rounds} dependency {self.index}"


def _seed(working, source_instance, target_instance) -> str:
    """Load the chase's inputs into its fresh working store; returns the
    seeding path (the ``chase.seed`` span's ``path`` attribute).

    ``ingest``: columnar inputs on the working store's pool move as raw
    code rows (the pipeline hands over the semantic database's store —
    no decode/re-encode).  ``bulk``: a decoded input encodes its value
    rows one relation at a time through :meth:`ColumnarInstance.add_all`,
    and a columnar input on another pool re-encodes fact by fact.
    """
    path = "ingest"
    for instance in (source_instance, target_instance):
        if instance is None:
            continue
        if isinstance(instance, ColumnarInstance):
            working.ingest(instance)
            if instance.pool is not working.pool:
                path = "bulk"
        else:
            working.add_all(instance)
            path = "bulk"
    return path


class StandardChase:
    """Chases a set of *standard* dependencies (no deds).

    The engine is reusable: :meth:`run` takes the instances and returns a
    fresh :class:`ChaseResult` each time.
    """

    def __init__(
        self,
        dependencies: Sequence[Dependency],
        source_relations: Iterable[str] = (),
        config: Optional[ChaseConfig] = None,
        branch_choice: Optional[Dict[int, int]] = None,
        compiled: Optional[Sequence[CompiledDependency]] = None,
        termination: Optional[TerminationReport] = None,
    ) -> None:
        """``branch_choice`` maps a dependency's *position* in
        ``dependencies`` to the disjunct index to enforce, turning a ded
        into a standard dependency: satisfaction still checks **all**
        disjuncts (so an already-satisfied ded never fires), but when the
        ded is violated only the chosen branch is enforced.  This is how
        the greedy ded chase derives its standard scenarios.

        ``compiled`` supplies pre-built :class:`CompiledDependency` plans
        aligned with ``dependencies`` — the greedy ded search passes the
        same plans to every derived scenario so nothing is re-planned
        between selections.

        ``termination`` is the static analyzer's verdict for the
        dependency set (or a superset of it — the proof is monotone
        under removing dependencies).  With ``config.guards == "auto"``
        and a proof covering ``config.policy``, the run drops its
        round/fact budgets and keeps trigger memory exact."""
        self.dependencies = list(dependencies)
        self.source_relations = frozenset(source_relations)
        self.config = config or ChaseConfig()
        self.branch_choice = dict(branch_choice or {})
        if compiled is not None and len(compiled) != len(self.dependencies):
            raise ChaseError(
                "compiled plans must align one-to-one with dependencies"
            )
        self.compiled = (
            list(compiled)
            if compiled is not None
            else compile_dependencies(self.dependencies)
        )
        for position, dependency in enumerate(self.dependencies):
            if dependency.is_ded() and position not in self.branch_choice:
                raise ChaseError(
                    f"{dependency.describe()}: the standard chase cannot "
                    f"handle deds without a branch choice; use "
                    f"GreedyDedChase or DisjunctiveChase"
                )
            self._check_premise_negation(dependency)
        self.termination = termination
        self._unguarded = bool(
            termination is not None
            and self.config.guards == "auto"
            and termination.proven_for(self.config.policy)
        )
        self._premise_relations = [
            frozenset(atom.relation for atom in dependency.premise.atoms)
            for dependency in self.dependencies
        ]
        #: The checkpoint of the last ``run(capture=True)``, or ``None``
        #: when that run never enforced a ded.
        self.checkpoint: Optional[ChaseCheckpoint] = None
        self._capture = False

    def _check_premise_negation(self, dependency: Dependency) -> None:
        for negation in dependency.premise.negations:
            outside = negation.inner.relations() - self.source_relations
            if outside:
                raise ChaseError(
                    f"{dependency.describe()}: premise negation over "
                    f"non-source relations {sorted(outside)} is not "
                    f"chaseable (the rewriter should have eliminated it)"
                )

    # -- public API ------------------------------------------------------------

    def run(
        self,
        source_instance: Instance,
        target_instance: Optional[Instance] = None,
        null_factory: Optional[NullFactory] = None,
        recorder=None,
        capture: bool = False,
        resume: Optional[ChaseCheckpoint] = None,
    ) -> ChaseResult:
        """Chase ``source_instance`` (plus optional pre-existing target).

        Returns SUCCESS with the produced target, FAILURE when the
        scenario is unsatisfiable, or NONTERMINATION past the budget.

        ``recorder`` is an externally-owned flight recorder (the caller
        keeps the trace); when omitted, one is built from
        ``config.trace`` and its payload is attached to
        ``ChaseResult.trace`` — or everything no-ops on the shared null
        recorder when tracing is off.

        ``capture`` leaves the run's :class:`ChaseCheckpoint` on
        :attr:`checkpoint`.  ``resume`` continues a checkpoint instead of
        seeding: the instances are not read, the run's nulls continue
        the checkpoint's factory, and ``ChaseResult.stats`` include the
        checkpoint's (the trace counts only the work done after it).
        """
        if resume is not None and (capture or null_factory is not None):
            raise ChaseError(
                "a resumed run neither captures nor takes a null factory"
            )
        start = time.perf_counter()
        rec = resolve_recorder(recorder, self.config.trace)
        owned_rec = recorder is None and rec.enabled
        plan_mark = self._plan_counters() if rec.enabled else (0, 0, 0)
        self.checkpoint = None
        self._capture = capture
        if resume is None:
            working = ColumnarInstance()
            kernel_mark = len(working.pool)
            with rec.span("chase.seed") as seed_span:
                path = _seed(working, source_instance, target_instance)
                if rec.enabled:
                    seed_span.annotate(
                        rows=len(working),
                        relations=len(working.relations()),
                        path=path,
                    )
            factory = null_factory or NullFactory()
            factory.advance_past(working.nulls())
            stats = ChaseStats()
            # Dependency positions that enforced at least once: the
            # greedy ded sweep's nogoods are built from the deds among
            # them.
            self._enforced: Set[int] = set()
            resumed = {}
        else:
            working = resume.store.copy()
            kernel_mark = len(working.pool)
            factory = NullFactory(resume.next_null)
            stats = dataclasses.replace(resume.stats)
            self._enforced = set(resume.enforced)
            resumed = {"resumed_from": resume.label}
        status = ChaseStatus.SUCCESS
        reason = ""
        with rec.span(
            "chase.run",
            dependencies=len(self.dependencies),
            guards="dropped" if self._unguarded else "enforced",
            **resumed,
        ):
            try:
                self._chase_rounds(working, factory, stats, rec, resume)
            except ChaseFailure as failure:
                status = ChaseStatus.FAILURE
                reason = str(failure)
            except ChaseNonTermination as overrun:
                status = ChaseStatus.NONTERMINATION
                reason = str(overrun)
        stats.elapsed_seconds = time.perf_counter() - start
        if rec.enabled:
            work = stats if resume is None else stats.minus(resume.stats)
            self._harvest_metrics(rec, work, working, plan_mark, kernel_mark)
        # The target stays encoded in ``working`` until someone reads it:
        # a failed greedy ded selection is dropped without ever decoding.
        return ChaseResult(
            status=status,
            target=None,
            working=working if self.config.keep_working else None,
            stats=stats,
            failure_reason=reason,
            guards="dropped" if self._unguarded else "enforced",
            trace=rec.to_payload() if owned_rec else None,
            enforced=frozenset(self._enforced),
        ).defer_target(
            working,
            self.source_relations,
            rec if rec.enabled and not owned_rec else None,
        )

    def _plan_counters(self) -> Tuple[int, int, int]:
        """Summed plan-cache counters across this engine's dependencies."""
        compiles = recompiles = served = 0
        for compiled in self.compiled:
            cache = compiled.plan_cache
            compiles += cache.compiles
            recompiles += cache.recompiles
            served += cache.served
        return compiles, recompiles, served

    def _harvest_metrics(
        self,
        rec,
        stats: ChaseStats,
        working: ColumnarInstance,
        plan_mark: Tuple[int, int, int],
        kernel_mark: int,
    ) -> None:
        """Fold this run's statistics into the recorder.

        ``chase.*`` counters mirror :class:`ChaseStats`; ``plan.*``,
        ``instance.*`` and ``kernel.*`` describe this process's caches
        and the working store.
        Plan counters are *deltas* against the run's start because the
        greedy ded search reuses one compiled plan set across every
        derived scenario.
        """
        rec.count("chase.runs")
        rec.count("chase.rounds", stats.rounds)
        rec.count("chase.tgd_fires", stats.tgd_fires)
        rec.count("chase.egd_unifications", stats.egd_unifications)
        rec.count("chase.facts_created", stats.facts_created)
        rec.count("chase.nulls_created", stats.nulls_created)
        rec.count("chase.premise_matches", stats.premise_matches)
        rec.count("chase.null_rewrites", stats.null_rewrites)
        rec.count("chase.dependencies_pruned", stats.dependencies_pruned)
        rec.count("chase.enumerations_skipped", stats.enumerations_skipped)
        compiles, recompiles, served = self._plan_counters()
        rec.count("plan.compiles", compiles - plan_mark[0])
        rec.count("plan.recompiles", recompiles - plan_mark[1])
        rec.count("plan.served", served - plan_mark[2])
        rec.count("instance.index_builds", working.index_builds)
        kernel_stats = working.kernel_stats
        rec.count("kernel.interned_terms", len(working.pool) - kernel_mark)
        rec.count("kernel.encoded_appends", kernel_stats.encoded_appends)
        rec.count("kernel.probe_rows", kernel_stats.probe_rows)
        rec.count("kernel.probe_survivors", kernel_stats.probe_survivors)
        rec.count("kernel.decoded_rows", kernel_stats.decoded_rows)
        rec.gauge("instance.intern_size", len(working.pool))

    # -- internals ----------------------------------------------------------------

    def _chase_rounds(
        self,
        working: ColumnarInstance,
        factory: NullFactory,
        stats: ChaseStats,
        rec,
        resume: Optional[ChaseCheckpoint] = None,
    ) -> None:
        if resume is None:
            # Dead-dependency pruning: the populatable fixpoint is seeded
            # with the relations that actually hold facts *in this run's*
            # working instance, so the dead set is exact per run (a
            # premise over a never-populatable relation can never match,
            # under any ded branch choice).
            dead = frozenset(
                dead_dependency_indices(self.dependencies, set(working.relations()))
            )
            stats.dependencies_pruned = len(dead)
            state = _RoundState(
                dead,
                _TriggerMemory(
                    None if self._unguarded else self.config.oblivious_trigger_limit
                ),
            )
        else:
            state = resume.round_state.copy()
        # Exposed for memory-growth regression tests.
        self._trigger_memory = state.triggers
        dead = state.dead
        while True:
            first = 0
            if resume is None:
                stats.rounds += 1
                if not self._unguarded and stats.rounds > self.config.max_rounds:
                    raise ChaseNonTermination(
                        f"exceeded {self.config.max_rounds} chase rounds"
                    )
                state.generation = working.bump_generation()
                state.rewrites = 0
            else:
                first = resume.index
            delta = state.delta
            delta_relations = None if delta is None else set(delta)
            with rec.span(
                "chase.round", round=stats.rounds, full=delta is None
            ) as round_span:
                for index in range(first, len(self.dependencies)):
                    if resume is None and (
                        index in dead
                        # Delta rounds anchor enumeration on the new
                        # facts: when none of them touch this premise,
                        # the join would return zero matches — skip it.
                        or (
                            delta_relations is not None
                            and self._premise_relations[index]
                            and not (
                                self._premise_relations[index] & delta_relations
                            )
                        )
                    ):
                        stats.enumerations_skipped += 1
                        continue
                    state.rewrites += self._chase_dependency(
                        index, working, factory, stats, state, rec, resume
                    )
                    resume = None
                new_rows = working.rows_since(state.generation)
                if rec.enabled:
                    round_span.annotate(new_facts=len(new_rows))
            if (
                not self._unguarded
                and self.config.max_facts is not None
                and len(working) > self.config.max_facts
            ):
                raise ChaseNonTermination(
                    f"exceeded {self.config.max_facts} facts"
                )
            if not new_rows and state.rewrites == 0:
                return
            # Null rewrites change fact identity, so the delta bookkeeping
            # is unreliable: fall back to a full round.  Masks are built
            # once here and shared by every dependency's anchored probes
            # this round (span/contiguity precomputed once per relation).
            if state.rewrites:
                state.delta = None
            else:
                state.delta = mask_rows(group_rows(new_rows))

    def _chase_dependency(
        self,
        index: int,
        working: ColumnarInstance,
        factory: NullFactory,
        stats: ChaseStats,
        state: _RoundState,
        rec,
        resume: Optional[ChaseCheckpoint] = None,
    ) -> int:
        """Process one dependency for one round; returns #null-rewrites.

        Phase 1 (*enumerate*) finds every premise match, restricted to
        the round's delta (``None``: a full round).  Matches are code
        tuples aligned to the dependency's ``premise_varlist``
        (name-sorted).  Phase 2 (*enforce*) replays them sorted by the
        pool's cached per-code order keys (:func:`_row_order`) — so null
        invention and unions do not depend on the join's output order.
        A resumed step skips phase 1 and continues the checkpoint's rows
        from the row that enforced.
        """
        dependency = self.dependencies[index]
        compiled = self.compiled[index]
        decode = working.decode_term
        if resume is None:
            with rec.span("chase.enumerate", dependency=index) as enum_span:
                matches = compiled.premise_matches_encoded(working, state.delta)
                if rec.enabled:
                    enum_span.annotate(matches=len(matches))
            if not matches:
                return 0
            stats.premise_matches += len(matches)
            row_order = _row_order(working.pool)
            if not dependency.disjuncts:  # denial
                # A denial match is final: the premise is positive, and
                # facts are never retracted, so the violation cannot
                # disappear.  Report the canonically-first match.
                row = min(matches, key=row_order)
                varlist = compiled.premise_varlist
                binding = {v: decode(code) for v, code in zip(varlist, row)}
                raise ChaseFailure(
                    f"denial {dependency.describe()} fired at "
                    f"{_render_binding(binding)}",
                    culprit=dependency,
                )
            rows, first = matches, 0
        else:
            rows, first = resume.rows, resume.position
        chosen_index = self.branch_choice.get(index, 0)
        null_map = _NullMap(working)
        find = null_map.find
        parent = null_map._parent
        oblivious = self.config.policy == "oblivious"
        fired_triggers = state.triggers
        capture = self._capture and dependency.is_ded()
        rewrites = 0
        with rec.span("chase.enforce", dependency=index, matches=len(rows)):
            if resume is None:
                rows = sorted(rows, key=row_order)
            for position in range(first, len(rows)):
                row = rows[position]
                resolved = (
                    tuple(find(code) if code < 0 else code for code in row)
                    if parent
                    else row
                )
                if oblivious:
                    # Triggers are remembered decoded: the Bloom tier's
                    # stable digests are defined on terms (hint
                    # differences don't matter: triggers hash nulls by
                    # id, and tuples compare by term equality).
                    trigger = (
                        index,
                        tuple(decode(code) for code in resolved),
                    )
                    if trigger in fired_triggers:
                        continue
                elif compiled.satisfied_encoded(resolved, working):
                    continue
                if capture:
                    capture = self._capture = False
                    self.checkpoint = ChaseCheckpoint(
                        store=working.copy(),
                        next_null=factory.next_id,
                        stats=dataclasses.replace(stats),
                        enforced=frozenset(self._enforced),
                        round_state=state.copy(),
                        index=index,
                        rows=rows,
                        position=position,
                    )
                if oblivious:
                    fired_triggers.add(trigger)
                self._enforce_row(
                    index, dependency, chosen_index, resolved, working,
                    factory, stats, null_map,
                )
            if len(null_map):
                rewrites = working.apply_null_map_encoded(null_map.resolution())
                stats.null_rewrites += rewrites
        return rewrites

    def _enforce_row(
        self,
        index: int,
        dependency: Dependency,
        chosen_index: int,
        row: Tuple[int, ...],
        working: ColumnarInstance,
        factory: NullFactory,
        stats: ChaseStats,
        null_map: _NullMap,
    ) -> None:
        """Enforce the chosen disjunct of ``dependency`` for one premise
        row: check its comparisons, unify its equalities, add its atoms
        with fresh nulls for the existentials."""
        self._enforced.add(index)
        kernel = self.compiled[index].disjunct_kernel(chosen_index, working.pool)
        # 1. Comparisons are checks: failing means this (only) branch is
        #    impossible, i.e. the scenario fails here.
        for comparison, check in kernel.comparisons:
            if not check(row):
                decode = working.decode_term
                binding = {
                    v: decode(code)
                    for v, code in zip(
                        self.compiled[index].premise_varlist, row
                    )
                }
                raise ChaseFailure(
                    f"{dependency.describe()}: required comparison "
                    f"{comparison} fails at {_render_binding(binding)}",
                    culprit=dependency,
                )
        # 2. Equalities unify.
        for left_get, right_get in kernel.equalities:
            if null_map.union(
                left_get(row), right_get(row), dependency.describe()
            ):
                stats.egd_unifications += 1
        # 3. Atoms instantiate with fresh nulls for existentials.
        if kernel.atom_templates:
            fresh: List[int] = []
            for hint in kernel.existential_hints:
                null = factory.fresh(hint=hint)
                fresh.append(working.note_null(null))
                stats.nulls_created += 1
            add_encoded = working.add_encoded
            for relation, template in kernel.atom_templates:
                values = tuple(
                    row[value]
                    if kind == 0
                    else (fresh[value] if kind == 1 else value)
                    for kind, value in template
                )
                if add_encoded(relation, values):
                    stats.facts_created += 1
            stats.tgd_fires += 1


def _row_order(pool):
    """Canonical sort key of premise rows on ``pool``: per variable, in
    name order, :func:`~repro.relational.types.term_order_key` of its
    term (nulls by numeric id, constants by representation)."""
    order_key = pool.order_key
    return lambda row: tuple(map(order_key, row))


def _render_binding(binding: Dict[Variable, Term]) -> str:
    inside = ", ".join(f"{v}={t}" for v, t in sorted(binding.items()))
    return f"[{inside}]"


def chase(
    dependencies: Sequence[Dependency],
    source_instance: Instance,
    source_relations: Iterable[str] = (),
    target_instance: Optional[Instance] = None,
    config: Optional[ChaseConfig] = None,
) -> ChaseResult:
    """One-shot convenience wrapper around :class:`StandardChase`."""
    engine = StandardChase(dependencies, source_relations, config)
    return engine.run(source_instance, target_instance)

"""The greedy ded chase (Section 3, "Handling Complexity").

Chasing disjunctive embedded dependencies is fundamentally harder than
chasing tgds/egds: the right notion of result is a *universal model
set*, which may be exponentially large (Deutsch–Nash–Remmel, the
paper's [3]).  GROM's answer is a **greedy** strategy:

    "searching for solutions to a set of deds by running multiple
     standard scenarios made of tgds and egds derived from the given
     deds [...] that capture specific branches in the deds."

Concretely: for every ded with ``k`` disjuncts, selecting one branch
yields a standard dependency; a *selection* (one branch per ded) yields
a standard scenario, which the classical chase can run.  Any solution of
a derived scenario satisfies the original deds, so the strategy is sound
(but not complete — a solvable ded set can have all uniform-selection
scenarios fail).

Selections are enumerated in a cost-heuristic order — branches that only
equate values come before branches that invent facts, smaller branches
before larger ones — and the first scenario that chases to success wins.
The paper's Section 4 observation that "many of the generated scenarios
fail and new ones need to be executed" on intricate constraints is
directly observable through :attr:`ChaseResult.scenarios_tried`.

**Nogood pruning.**  Most of those failures repeat an earlier one
exactly, and the sweep skips them.  A derived scenario's run is
deterministic, and a ded's branch choice can only change the run at the
moment that ded *enforces*: satisfaction checks see every disjunct.
Let ``F(S)`` be the (ded, branch) pairs of the deds that enforced at
least once while selection ``S`` ran.  A selection that agrees with
``S`` on ``F(S)`` replays ``S`` step by step — by induction, every ded
that enforces in it enforces in ``S`` at the same step, on the same
branch — so when ``S`` failed, it fails with the same status,
statistics, target and failure reason.  The sweep keeps one *nogood*
per failed run and answers a matching selection from it instead of
chasing: the selection still counts in ``scenarios_tried``, its
statistics still join the aggregate, and its ``branch_timings`` entry
says ``pruned``.  Every result is therefore bit-identical to the
unpruned sweep, which survives only as the test oracle.

**Resume.**  The same argument says where the selections part ways.
Until the first ded enforces, every derived scenario runs the same
steps on the same store: the choice map is only read when a ded
enforces.  So the first chased selection asks the engine for a
checkpoint at that moment (see :mod:`repro.chase.engine`), and every
later selection that is not pruned resumes from that one checkpoint —
no re-seeding, no re-chasing of the shared prefix.  A resumed run
carries the prefix's statistics, so its result is the from-scratch
run's; its ``branch_timings`` entry says ``resumed``.  Nogoods cut the
number of runs; resume cuts what each run costs.  A run that never
enforces a ded captures nothing, and its failure's nogood is empty, so
it covers every later selection.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chase.compiled import compile_dependencies
from repro.chase.engine import ChaseCheckpoint, ChaseConfig, StandardChase
from repro.analysis.termination import TerminationReport
from repro.chase.result import ChaseResult, ChaseStats, ChaseStatus
from repro.obs.recorder import resolve_recorder
from repro.logic.dependencies import Dependency, Disjunct
from repro.relational.instance import Instance

__all__ = ["GreedyDedChase", "branch_cost", "greedy_ded_chase"]


def branch_cost(disjunct: Disjunct) -> Tuple[int, int, int]:
    """Heuristic cost of enforcing a disjunct; lower chases first.

    Equality-only branches are cheapest (they merge values instead of
    inventing facts); then fewer atoms, then fewer equalities.  This is
    the "greedy" part: cheap branches tend to keep instances small and
    succeed fast, matching the paper's observation that the greedy chase
    is "often surprisingly quick in returning some solution".
    """
    return (1 if disjunct.atoms else 0, len(disjunct.atoms), len(disjunct.equalities))


@dataclass
class _DedInfo:
    dependency: Dependency
    branch_order: List[int]


@dataclass
class _Nogood:
    """What one failed selection proves about later ones.

    ``pairs`` are the (ded, branch) pairs that enforced in the failed
    run; any selection agreeing with them fails with ``status`` and
    ``stats``.  ``result`` keeps the failed run itself only when it
    covers the sweep's final selection — the one repeat whose target
    and reason an exhausted sweep returns — so the nogoods of a long
    sweep do not keep one working store alive per failure.
    """

    pairs: Tuple[Tuple[int, int], ...]
    status: ChaseStatus
    stats: ChaseStats
    result: Optional[ChaseResult] = None

    def covers(self, selection: Tuple[int, ...]) -> bool:
        return all(selection[ded] == branch for ded, branch in self.pairs)


def _branch_timing(
    index: int,
    selection: Tuple[int, ...],
    status: ChaseStatus,
    seconds: float,
    pruned: bool = False,
    resumed: bool = False,
) -> Dict[str, object]:
    """One derived scenario's entry in ``ChaseResult.branch_timings``."""
    return {
        "index": index,
        "selection": list(selection),
        "status": str(status),
        "seconds": seconds,
        "pruned": pruned,
        "resumed": resumed,
    }


class GreedyDedChase:
    """Greedy branch-selection search over derived standard scenarios."""

    def __init__(
        self,
        dependencies: Sequence[Dependency],
        source_relations: Iterable[str] = (),
        config: Optional[ChaseConfig] = None,
        max_scenarios: int = 256,
        termination: Optional["TerminationReport"] = None,
    ) -> None:
        """``termination`` is the analyzer's verdict for the *whole* ded
        set (disjuncts union-edged), so it is sound for every derived
        scenario regardless of branch selection and is forwarded to each
        :class:`StandardChase` the sweep runs."""
        self.standard = [d for d in dependencies if not d.is_ded()]
        self.deds = [d for d in dependencies if d.is_ded()]
        self.source_relations = frozenset(source_relations)
        self.config = config or ChaseConfig()
        self.max_scenarios = max_scenarios
        self.termination = termination
        self._infos = [
            _DedInfo(
                dependency=ded,
                branch_order=sorted(
                    range(len(ded.disjuncts)),
                    key=lambda i: branch_cost(ded.disjuncts[i]),
                ),
            )
            for ded in self.deds
        ]
        # Every derived scenario shares one dependency list (standard part
        # followed by the whole deds); compile its plans once so the
        # selection sweep never re-plans a join between scenarios.
        self._compiled = compile_dependencies(
            self.standard + [info.dependency for info in self._infos]
        )

    # -- selection enumeration ----------------------------------------------

    def selections(self) -> Iterator[Tuple[int, ...]]:
        """Branch selections in heuristic order.

        The cartesian product of per-ded branch orders, enumerated so
        that globally cheaper selections come first: the sort key is the
        tuple of per-ded *ranks*, i.e. the first selection takes every
        ded's best branch, then single deviations, and so on.

        The enumeration is lazy up to the product construction;
        :attr:`max_scenarios` bounds how many the caller will consume.
        """
        if not self._infos:
            yield ()
            return
        ranked = [list(enumerate(info.branch_order)) for info in self._infos]
        # itertools.product of (rank, branch) pairs, sorted by total rank.
        product = itertools.product(*ranked)
        for combination in sorted(
            itertools.islice(product, self.max_scenarios * 4),
            key=lambda pairs: (sum(rank for rank, _ in pairs),
                               tuple(rank for rank, _ in pairs)),
        ):
            yield tuple(branch for _rank, branch in combination)

    def scenario_for(
        self, selection: Tuple[int, ...]
    ) -> Tuple[List[Dependency], Dict[int, int]]:
        """The dependency list and branch-choice map for a selection.

        The deds are kept whole (so the chase's satisfaction check sees
        every disjunct) and the choice map directs enforcement to the
        selected branch — the "standard scenario derived from the deds"
        of the paper.
        """
        dependencies = self.standard + [info.dependency for info in self._infos]
        offset = len(self.standard)
        choice = {
            offset + position: branch
            for position, branch in enumerate(selection)
        }
        return dependencies, choice

    # -- search ------------------------------------------------------------------

    def run(
        self,
        source_instance: Instance,
        target_instance: Optional[Instance] = None,
        recorder=None,
    ) -> ChaseResult:
        """Try derived scenarios until one chases to success.

        Returns the first successful result (annotated with the winning
        selection and the number of scenarios tried), or the FAILURE
        result of the last attempt when all scenarios fail or the budget
        is exhausted.  Selections that repeat an earlier failure are
        answered from its nogood, and the others resume from the first
        run's checkpoint (see the module docstring), so the result is
        bit-identical to chasing every selection from scratch.

        ``recorder`` follows the engine convention: an external recorder
        keeps the trace; otherwise one is built from ``config.trace``
        and its payload lands on ``ChaseResult.trace``.
        """
        rec = resolve_recorder(recorder, self.config.trace)
        owned_rec = recorder is None and rec.enabled
        selections = list(
            itertools.islice(self.selections(), self.max_scenarios)
        )
        with rec.span("chase.search", selections=len(selections)) as span:
            result = self._sweep(
                selections, source_instance, target_instance, rec
            )
            if rec.enabled:
                span.annotate(
                    pruned=result.scenarios_pruned,
                    resumed=result.scenarios_resumed,
                )
                rec.count("search.pruned", result.scenarios_pruned)
                rec.count("search.resumed", result.scenarios_resumed)
        result.trace = rec.to_payload() if owned_rec else None
        return result

    def _sweep(
        self,
        selections: List[Tuple[int, ...]],
        source_instance: Instance,
        target_instance: Optional[Instance],
        rec,
    ) -> ChaseResult:
        start = time.perf_counter()
        aggregate = ChaseStats()
        last: Optional[ChaseResult] = None
        timings: List[Dict[str, object]] = []
        nogoods: List[_Nogood] = []
        final_covered = False
        offset = len(self.standard)
        tried = pruned = resumed = 0
        checkpoint: Optional[ChaseCheckpoint] = None
        for selection in selections:
            tried += 1
            step = time.perf_counter()
            nogood = next((n for n in nogoods if n.covers(selection)), None)
            if nogood is not None:
                pruned += 1
                timings.append(
                    _branch_timing(
                        tried - 1, selection, nogood.status,
                        time.perf_counter() - step, pruned=True,
                    )
                )
                aggregate = aggregate.merge(nogood.stats)
                last = nogood.result
                continue
            dependencies, choice = self.scenario_for(selection)
            engine = StandardChase(
                dependencies,
                self.source_relations,
                self.config,
                branch_choice=choice,
                compiled=self._compiled,
                termination=self.termination,
            )
            result = engine.run(
                source_instance,
                target_instance,
                recorder=rec,
                capture=checkpoint is None and tried < len(selections),
                resume=checkpoint,
            )
            seconds = time.perf_counter() - step
            timings.append(
                _branch_timing(
                    tried - 1, selection, result.status, seconds,
                    resumed=checkpoint is not None,
                )
            )
            if checkpoint is None:
                checkpoint = engine.checkpoint
            else:
                resumed += 1
            rec.observe("search.branch_seconds", seconds)
            aggregate = aggregate.merge(result.stats)
            if result.ok:
                result.stats = aggregate
                result.stats.elapsed_seconds = time.perf_counter() - start
                result.scenarios_tried = tried
                result.scenarios_pruned = pruned
                result.scenarios_resumed = resumed
                result.branch_selection = {
                    info.dependency.describe(): branch
                    for info, branch in zip(self._infos, selection)
                }
                result.branch_timings = timings
                return result
            pairs = tuple(
                (position - offset, selection[position - offset])
                for position in sorted(result.enforced)
                if position >= offset
            )
            nogood = _Nogood(pairs, result.status, result.stats)
            if not final_covered and nogood.covers(selections[-1]):
                nogood.result = result
                final_covered = True
            nogoods.append(nogood)
            last = result
        if not selections:  # no scenario budget: chase the standard part
            engine = StandardChase(
                self.standard,
                self.source_relations,
                self.config,
                compiled=self._compiled[: len(self.standard)],
                termination=self.termination,
            )
            step = time.perf_counter()
            last = engine.run(source_instance, target_instance, recorder=rec)
            timings.append(
                _branch_timing(0, (), last.status, time.perf_counter() - step)
            )
            tried = 1
        return self._finish_failure(
            last, aggregate, tried, pruned, resumed, start, timings
        )

    def _finish_failure(
        self,
        last: ChaseResult,
        aggregate: ChaseStats,
        tried: int,
        pruned: int,
        resumed: int,
        start: float,
        timings: List[Dict[str, object]],
    ) -> ChaseResult:
        last.stats = aggregate.merge(ChaseStats())
        last.stats.elapsed_seconds = time.perf_counter() - start
        last.scenarios_tried = tried
        last.scenarios_pruned = pruned
        last.scenarios_resumed = resumed
        last.branch_timings = timings
        if last.status is ChaseStatus.SUCCESS:
            return last
        last.failure_reason = (
            f"all {tried} derived scenarios failed "
            f"(last: {last.failure_reason})"
        )
        return last


def greedy_ded_chase(
    dependencies: Sequence[Dependency],
    source_instance: Instance,
    source_relations: Iterable[str] = (),
    config: Optional[ChaseConfig] = None,
    max_scenarios: int = 256,
) -> ChaseResult:
    """One-shot convenience wrapper around :class:`GreedyDedChase`."""
    return GreedyDedChase(
        dependencies, source_relations, config, max_scenarios
    ).run(source_instance)

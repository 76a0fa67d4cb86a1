"""Shared scenario-corpus registry for the differential test suites.

The evaluator-equivalence, materialization, parallel-chase and
branch-race suites all sweep "every scenario we have" through two
engine configurations and compare.  This module is their single source
of scenarios, in two tiers:

* **Pipeline specs** — :class:`repro.runtime.corpus.ScenarioSpec`s from
  the batch runtime's registered corpora, annotated with feature flags
  derived from their family and parameters.  ``pipeline_specs()``
  returns the default ``mixed`` corpus; ``require``/``exclude`` filter
  by flag (e.g. only the scenarios whose rewriting produces deds).
* **Chase cases** — raw ``(dependencies, source_relations, config,
  instance)`` setups that exercise engine paths the pipeline families
  do not reach deterministically: hard failures (denials, egd constant
  clashes), recursion across delta rounds, Bloom-spilled trigger
  memory, and disjunctive sweeps with failure pressure.

Flags (used by ``require``/``exclude`` in both tiers):

``disjunctive``
    The scenario rewrites to (or directly contains) deds — the greedy
    branch search runs, so branch racing has something to race.
``failing``
    The chase ends in FAILURE (a denial fires or an egd equates
    distinct constants); differential suites must compare failure
    reasons, not just targets.
``recursive``
    Facts enforced in one round feed premises in later delta rounds.
``bloom-spill``
    The oblivious-policy trigger memory exceeds its exact limit and
    spills into the Bloom filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from repro.chase.engine import ChaseConfig
from repro.logic.atoms import Atom, Conjunction, Equality
from repro.logic.dependencies import Dependency, ded, denial, egd, tgd, Disjunct
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.runtime.corpus import DEFAULT_CORPUS, ScenarioSpec, get_corpus

DISJUNCTIVE = "disjunctive"
FAILING = "failing"
RECURSIVE = "recursive"
BLOOM_SPILL = "bloom-spill"

x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def dense_pair_instance(rows: int = 60) -> Instance:
    """A source dense enough that joins over it fan out."""
    instance = Instance()
    for i in range(rows):
        instance.add(Atom("S", (Constant(i), Constant(i % 7))))
        instance.add(Atom("R", (Constant(i % 7), Constant(i % 5))))
    return instance


# ---------------------------------------------------------------------------
# Pipeline tier: batch-runtime specs + feature flags
# ---------------------------------------------------------------------------


def spec_flags(spec: ScenarioSpec) -> FrozenSet[str]:
    """Feature flags of a batch-runtime spec, derived from its family.

    The ``flagged`` family's name keys always rewrite to deds; the
    ``partition`` family does when the default-class key is requested
    (its key egd sits on the negation-defined default view; per-class
    keys land on plain conjunctive views and stay standard).
    """
    flags = set()
    params = spec.params_dict()
    if spec.family == "flagged":
        flags.add(DISJUNCTIVE)
    if spec.family == "partition" and params.get("default_key"):
        flags.add(DISJUNCTIVE)
    return frozenset(flags)


def pipeline_specs(
    require: Iterable[str] = (),
    exclude: Iterable[str] = (),
    corpus: str = DEFAULT_CORPUS,
) -> List[ScenarioSpec]:
    """The named corpus's specs, filtered by feature flags."""
    wanted = frozenset(require)
    unwanted = frozenset(exclude)
    out = []
    for spec in get_corpus(corpus):
        flags = spec_flags(spec)
        if wanted <= flags and not (unwanted & flags):
            out.append(spec)
    return out


# ---------------------------------------------------------------------------
# Chase tier: raw dependency/instance setups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaseSetup:
    """One buildable chase scenario: everything an engine run needs."""

    dependencies: Tuple[Dependency, ...]
    source_relations: Tuple[str, ...]
    instance: Instance
    config: Optional[ChaseConfig] = None


@dataclass(frozen=True)
class ChaseCase:
    """A registered chase scenario plus its feature flags.

    ``validate`` asserts the case still exercises what it was written
    for (a failure actually fails, a recursive case actually runs
    multiple rounds, a null case actually invents nulls) — differential
    suites call it on their *serial* baseline so a drifted case cannot
    silently degrade into comparing two trivial runs.
    """

    label: str
    flags: FrozenSet[str]
    build: Callable[[], ChaseSetup]
    validate: Optional[Callable[[object], None]] = None

    def check_baseline(self, result) -> None:
        if self.validate is not None:
            self.validate(result)


def _join_copy() -> ChaseSetup:
    deps = (
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)), Atom("R", (y, z)))),
            (Atom("T", (x, z)),),
            name="copy",
        ),
    )
    return ChaseSetup(deps, ("S", "R"), dense_pair_instance())


def _denial_failure() -> ChaseSetup:
    deps = (
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)), Atom("R", (y, z)))),
            (Atom("T", (x, z)),),
            name="copy",
        ),
        denial(Conjunction(atoms=(Atom("T", (x, x)),)), name="no_loop"),
    )
    return ChaseSetup(deps, ("S", "R"), dense_pair_instance())


def _egd_constant_clash() -> ChaseSetup:
    deps = (
        egd(
            Conjunction(atoms=(Atom("S", (x, y)), Atom("S", (x, z)))),
            (Equality(y, z),),
            name="key",
        ),
    )
    # Two constant values under one key: the egd must hard-fail.
    instance = dense_pair_instance()
    instance.add(Atom("S", (Constant(3), Constant(998))))
    instance.add(Atom("S", (Constant(7), Constant(999))))
    return ChaseSetup(deps, (), instance)


def _cross_round_feed() -> ChaseSetup:
    # Dep 0 enforces facts that feed dep 1's premise *within* later
    # delta rounds (regression guard for delta bookkeeping).
    deps = (
        tgd(
            Conjunction(atoms=(Atom("P", (x, y)), Atom("Q", (y, z)))),
            (Atom("P", (x, z)),),
            name="close",
        ),
        tgd(
            Conjunction(atoms=(Atom("P", (x, y)),)),
            (Atom("R", (x, y, z)),),  # z existential
            name="tag",
        ),
    )
    instance = Instance()
    for chain in range(40):  # chains long enough for several rounds
        base = chain * 10
        for hop in range(4):
            instance.add(
                Atom("Q", (Constant(base + hop), Constant(base + hop + 1)))
            )
        instance.add(Atom("P", (Constant(base - 1), Constant(base))))
    return ChaseSetup(deps, ("Q",), instance)


def _null_unification() -> ChaseSetup:
    # Two tgds invent a null each per x, an egd then unifies the pair:
    # every union is null/null, so the canonical-order merge must
    # reproduce the exact same null ids and the same root of each union.
    deps = (
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Atom("T", (x, z)),),  # z existential -> fresh null per x
            name="invent",
        ),
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Atom("U", (x, z)),),  # a second fresh null per x
            name="invent_again",
        ),
        egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("U", (x, z)))),
            (Equality(y, z),),
            name="unify",
        ),
    )
    return ChaseSetup(deps, ("S", "R"), dense_pair_instance())


def _transitive_closure() -> ChaseSetup:
    # Recursion through the target relation itself: each round's output
    # re-enters the same premise until the closure fixpoint.
    deps = (
        tgd(
            Conjunction(atoms=(Atom("E", (x, y)),)),
            (Atom("P", (x, y)),),
            name="base",
        ),
        tgd(
            Conjunction(atoms=(Atom("P", (x, y)), Atom("E", (y, z)))),
            (Atom("P", (x, z)),),
            name="step",
        ),
    )
    instance = Instance()
    for chain in range(12):
        base = chain * 100
        for hop in range(6):
            instance.add(Atom("E", (Constant(base + hop), Constant(base + hop + 1))))
    return ChaseSetup(deps, ("E",), instance)


def _joint_acyclic_feed() -> ChaseSetup:
    # Terminating, but only provably so by *joint* acyclicity: the
    # position graph has a cycle through the special edge P.0 ⇒ Q.1
    # (P.0 → Q.1 ⇒ S.0 → P.0), yet the invented nulls in Q.1 can never
    # flow back into `invent`'s premise because `close` joins S against
    # the constants-only T.  Weak acyclicity cannot see that.
    deps = (
        tgd(
            Conjunction(atoms=(Atom("P", (x,)),)),
            (Atom("Q", (x, y)),),  # y existential
            name="invent",
        ),
        tgd(
            Conjunction(atoms=(Atom("Q", (x, y)),)),
            (Atom("S", (y,)),),
            name="project",
        ),
        tgd(
            Conjunction(atoms=(Atom("S", (x,)), Atom("T", (x,)))),
            (Atom("P", (x,)),),
            name="close",
        ),
    )
    instance = Instance()
    for i in range(30):
        instance.add(Atom("P", (Constant(i),)))
        instance.add(Atom("T", (Constant(1000 + i),)))
    return ChaseSetup(deps, ("P", "T"), instance)


def _super_weak_constant_guard() -> ChaseSetup:
    # Terminating, but only provably so by *super-weak* acyclicity: the
    # per-variable Mov sets of joint acyclicity collapse B's positions,
    # while Marnette's place-level unification sees that the 'done'
    # stamp written by `stamp` can never unify with the 'todo' guard in
    # `requeue`'s body.
    deps = (
        tgd(
            Conjunction(atoms=(Atom("A", (x,)),)),
            (Atom("B", (z, x, Constant("done"))),),  # z existential
            name="stamp",
        ),
        tgd(
            Conjunction(atoms=(Atom("B", (x, y, Constant("todo"))),)),
            (Atom("A", (x,)),),
            name="requeue",
        ),
    )
    instance = Instance()
    for i in range(25):
        instance.add(Atom("A", (Constant(i),)))
    instance.add(Atom("B", (Constant(500), Constant(501), Constant("todo"))))
    return ChaseSetup(deps, ("A", "B"), instance)


def _bloom_spill() -> ChaseSetup:
    deps = (
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Atom("T", (x, y)),),
            name="copy",
        ),
    )
    config = ChaseConfig(policy="oblivious", oblivious_trigger_limit=5)
    return ChaseSetup(deps, ("S", "R"), dense_pair_instance(), config)


def ded_sweep_dependencies(
    deds: int = 2, insert_branches: int = 1
) -> Tuple[Dependency, ...]:
    """Deds whose cheap equality branch fails under duplicate keys.

    Each ded's branch order puts the equality branch first (it has no
    atoms), so a greedy sweep must walk past every selection containing
    one before reaching the all-insert selection that succeeds — the
    disjunct-heavy shape the branch racer is for.
    """
    out: List[Dependency] = [
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Atom("T", (x, y)),),
            name="copy",
        ),
    ]
    for i in range(deds):
        disjuncts = [Disjunct(equalities=(Equality(y, z),))]
        for j in range(insert_branches):
            disjuncts.append(
                Disjunct(atoms=(Atom(f"W{i}_{j}", (x, y, z, w)),))
            )
        out.append(
            ded(
                Conjunction(atoms=(Atom(f"K{i}", (x, y)), Atom(f"K{i}", (x, z)))),
                tuple(disjuncts),
                name=f"d{i}",
            )
        )
    return tuple(out)


def ded_sweep_instance(deds: int = 2, rows: int = 40) -> Instance:
    instance = Instance()
    for i in range(rows):
        instance.add(Atom("S", (Constant(i), Constant(i % 7))))
    for i in range(deds):
        instance.add(Atom(f"K{i}", (Constant(1), Constant(10))))
        instance.add(Atom(f"K{i}", (Constant(1), Constant(20))))
    return instance


def ded_sweep_relations(deds: int = 2) -> Tuple[str, ...]:
    return ("S",) + tuple(f"K{i}" for i in range(deds))


def _ded_sweep() -> ChaseSetup:
    return ChaseSetup(
        ded_sweep_dependencies(deds=2),
        ded_sweep_relations(deds=2),
        ded_sweep_instance(deds=2),
    )


def _ded_all_fail() -> ChaseSetup:
    # Every disjunct of the ded is an equality over distinct constants:
    # all derived scenarios fail, exercising the sweep-exhausted path.
    deps = (
        ded(
            Conjunction(atoms=(Atom("K0", (x, y)), Atom("K0", (x, z)))),
            (
                Disjunct(equalities=(Equality(y, z),)),
                Disjunct(equalities=(Equality(y, x),)),
            ),
            name="impossible",
        ),
    )
    instance = Instance()
    instance.add(Atom("K0", (Constant(1), Constant(10))))
    instance.add(Atom("K0", (Constant(1), Constant(20))))
    return ChaseSetup(deps, ("K0",), instance)


def _expect_ok(result) -> None:
    assert result.ok, result.failure_reason


def _expect_denial(result) -> None:
    assert not result.ok and "denial" in result.failure_reason


def _expect_constant_clash(result) -> None:
    assert not result.ok
    assert "cannot equate distinct constants" in result.failure_reason


def _expect_multi_round(result) -> None:
    # The recursion must actually feed later delta rounds, or the case
    # no longer guards delta bookkeeping.
    assert result.ok and result.stats.rounds > 3, result.stats.rounds


def _expect_null_unification(result) -> None:
    assert result.ok
    assert result.stats.nulls_created > 0


def _expect_null_null_unions(result) -> None:
    _expect_null_unification(result)
    assert result.stats.egd_unifications > 0, result.stats


def _expect_sweep_winner(result) -> None:
    # 2 two-branch deds with failing equality branches: the winner is
    # the all-insert selection, the last of the 4.
    assert result.ok and result.scenarios_tried == 4


def _expect_sweep_exhausted(result) -> None:
    assert not result.ok
    assert "derived scenarios failed" in result.failure_reason


CHASE_CASES: Tuple[ChaseCase, ...] = (
    ChaseCase("join-copy", frozenset(), _join_copy, _expect_ok),
    ChaseCase(
        "denial-failure", frozenset({FAILING}), _denial_failure,
        _expect_denial,
    ),
    ChaseCase(
        "egd-constant-clash", frozenset({FAILING}), _egd_constant_clash,
        _expect_constant_clash,
    ),
    ChaseCase(
        "cross-round-feed", frozenset({RECURSIVE}), _cross_round_feed,
        _expect_multi_round,
    ),
    ChaseCase(
        "null-unification", frozenset(), _null_unification,
        _expect_null_null_unions,
    ),
    ChaseCase(
        "transitive-closure", frozenset({RECURSIVE}), _transitive_closure,
        _expect_multi_round,
    ),
    ChaseCase(
        "joint-acyclic-feed", frozenset(), _joint_acyclic_feed,
        _expect_null_unification,
    ),
    ChaseCase(
        "super-weak-constant-guard", frozenset(), _super_weak_constant_guard,
        _expect_null_unification,
    ),
    ChaseCase("bloom-spill", frozenset({BLOOM_SPILL}), _bloom_spill, _expect_ok),
    ChaseCase(
        "ded-sweep", frozenset({DISJUNCTIVE}), _ded_sweep,
        _expect_sweep_winner,
    ),
    ChaseCase(
        "ded-all-fail", frozenset({DISJUNCTIVE, FAILING}), _ded_all_fail,
        _expect_sweep_exhausted,
    ),
)


def chase_cases(
    require: Iterable[str] = (), exclude: Iterable[str] = ()
) -> List[ChaseCase]:
    """Registered chase cases, filtered by feature flags."""
    wanted = frozenset(require)
    unwanted = frozenset(exclude)
    return [
        case
        for case in CHASE_CASES
        if wanted <= case.flags and not (unwanted & case.flags)
    ]

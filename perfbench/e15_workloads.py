"""The four e15 workloads: inputs, the timed call, the traced
decomposition and the output checks.

Every workload turns ``(seed, index)`` into one request input, outside
the timed interval, with :meth:`Workload.request`.  ``serve`` is the
call a user makes (the public pipeline entry points, untraced);
``serve_traced`` runs the same program one public layer call at a time
under a flight recorder, so the traced run attributes request time to
layers.  ``tasks`` turns an outcome into checked :class:`Task` records.
A run checks that the traced and untraced digests are equal, so the
decomposition provably runs the same program.

Inputs are stratified: requests come in blocks of ``Workload.block``,
and every block holds the same mix of input sizes, shuffled by the
seed.  A run measures whole blocks, so runs with different seeds see
the same size mix and differ only in content.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, NamedTuple, Optional

from repro.analysis import analyze_dependencies
from repro.chase.ded import GreedyDedChase
from repro.chase.engine import StandardChase
from repro.core.compose import extend_source
from repro.core.rewriter import rewrite
from repro.core.verify import verify_solution
from repro.dsl import parse_scenario, serialize_scenario
from repro.logic.atoms import Atom, Comparison, Conjunction
from repro.logic.dependencies import tgd
from repro.logic.terms import Variable
from repro.pipeline import PipelineResult, run_scenario, strip_auxiliary
from repro.relational.instance import Instance
from repro.runtime.cache import RewriteCache
from repro.runtime.corpus import Corpus, ScenarioSpec, get_corpus
from repro.runtime.executor import BatchOptions, run_batch
from repro.runtime.fingerprint import fingerprint_scenario, fingerprint_task
from repro.scenarios.generators import flagged_case, partition_case
from repro.scenarios.running_example import build_scenario, generate_source_instance

__all__ = ["Task", "Workload", "WORKLOADS", "get_workload"]

SUCCESS, FAILURE = "success", "failure"


class Task(NamedTuple):
    """One checked unit of work: a request, or one corpus task."""

    seconds: Optional[float]
    """Latency sample (``None`` where the traced run takes none)."""
    digest: str
    problem: str = ""
    """Empty when every output check passed."""


def _sha(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _facts_digest(status: str, target: Instance) -> str:
    return _sha(status, sorted(str(fact) for fact in target))


def _stratified(name: str, seed: int, index: int, block: int, low: int, high: int) -> int:
    """A value in ``[low, high)``: each block of ``block`` requests draws
    once from each of ``block`` equal strata, in a seed-shuffled order.
    The untimed warm-up request (index -1), which is also the cold
    request ``setup_s`` times, takes the middle value for every seed."""
    if index < 0:
        return (low + high) // 2
    number, position = divmod(index, block)
    order = list(range(block))
    random.Random(f"{name}:{seed}:block:{number}").shuffle(order)
    jitter = random.Random(f"{name}:{seed}:jitter:{index}").random()
    return low + int((high - low) * (order[position] + jitter) / block)


def _pipeline_task(
    seconds: float, result: PipelineResult, expected: str, label: str
) -> Task:
    status = str(result.chase.status)
    problem = ""
    if status != expected:
        problem = f"{label}: chase {status}, expected {expected}"
    elif status == SUCCESS and not (result.verification and result.verification.ok):
        problem = f"{label}: target fails verification against the semantic scenario"
    return Task(seconds, _facts_digest(status, result.target), problem)


def traced_pipeline(rec, scenario, rewritten, source: Instance) -> PipelineResult:
    """:func:`repro.pipeline.run_rewritten` one public layer call at a
    time, each under its own span; chase and compose record their own
    ``chase.*``/``datalog.*`` spans and counters into ``rec``."""
    with rec.span("core.compose.extend_source"):
        chase_input = extend_source(scenario, source, recorder=rec)
    with rec.span("analysis.analyze"):
        analysis = analyze_dependencies(
            rewritten.dependencies,
            rewritten.source_relations(),
            rewritten.target_relations(),
        )
    rec.count("analysis.proven", 1 if analysis.termination.proven else 0)
    with rec.span("chase"):
        engine = GreedyDedChase if rewritten.has_deds else StandardChase
        chase = engine(
            rewritten.dependencies,
            rewritten.source_relations(),
            termination=analysis.termination,
        ).run(chase_input, recorder=rec)
    _count_chase(rec, chase)
    with rec.span("pipeline.strip_auxiliary"):
        target = strip_auxiliary(chase.target, scenario.target_schema)
    verification = None
    if chase.ok:
        with rec.span("core.verify.verify_solution"):
            verification = verify_solution(
                scenario, source, target, source_side=chase_input
            )
        rec.count("verify.premise_matches", verification.premise_matches)
    return PipelineResult(
        rewrite=rewritten,
        chase=chase,
        target=target,
        verification=verification,
        analysis=analysis,
    )


def _count_chase(rec, chase) -> None:
    rec.count("chase.scenarios_tried", max(1, chase.scenarios_tried))
    rec.count("chase.successes", 1 if chase.ok else 0)


def _traced_rewrite(rec, scenario):
    with rec.span("core.rewriter.rewrite"):
        rewritten = rewrite(scenario)
    rec.count("core.rewriter.dependencies", len(rewritten.dependencies))
    return rewritten


class Workload:
    """One workload: a named request stream with checks."""

    name = ""
    block = 1
    """Requests per stratification block; runs measure whole blocks."""

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick

    def start(self) -> None:
        """Reset per-run state (a fresh phase of the run starts)."""

    def request(self, seed: int, index: int):
        raise NotImplementedError

    def serve(self, request):
        raise NotImplementedError

    def serve_traced(self, request, rec, index: int):
        raise NotImplementedError

    def tasks(self, request, outcome, seconds: float) -> List[Task]:
        raise NotImplementedError


class RunningDsl(Workload):
    """Parse a Section 2 document (100-500 products, 10 stores), then
    :func:`run_scenario`: rewrite, compose, analyze, chase, verify."""

    name = "running-dsl"
    block = 16

    def __init__(self, quick: bool = False) -> None:
        super().__init__(quick)
        self._scenario = build_scenario()

    def request(self, seed: int, index: int) -> str:
        low, high = (20, 60) if self.quick else (100, 500)
        products = _stratified(self.name, seed, index, self.block, low, high)
        source = generate_source_instance(
            products=products,
            stores=10,
            seed=random.Random(f"{self.name}:{seed}:{index}").randrange(2**31),
        )
        return serialize_scenario(self._scenario, source)

    def serve(self, text: str) -> PipelineResult:
        document = parse_scenario(text)
        return run_scenario(document.scenario, document.source_instance)

    def serve_traced(self, text: str, rec, index: int) -> PipelineResult:
        with rec.span("request", request=index):
            with rec.span("dsl.parse"):
                document = parse_scenario(text)
            rec.count("dsl.parse.bytes", len(text.encode()))
            rewritten = _traced_rewrite(rec, document.scenario)
            return traced_pipeline(
                rec, document.scenario, rewritten, document.source_instance
            )

    def tasks(self, text, outcome, seconds):
        return [_pipeline_task(seconds, outcome, SUCCESS, self.name)]


class DedSearch(Workload):
    """:func:`run_scenario` on flagged cases, whose greedy search tries
    14-41 selections, and partition cases, whose search must fail."""

    name = "ded-search"
    block = 8
    # Flag count per block position; None is a partition case.  Two in
    # three flagged cases search 14 selections (flags=3), one in three
    # 41 (flags=4), so the median request sits inside the flags=3 mass
    # rather than in the gap between the two.
    FLAGS = (3, 3, 4, None, 3, 3, 4, None)

    def request(self, seed: int, index: int):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        number, position = divmod(index, self.block)
        flags = self.FLAGS[position]
        if flags is None:
            built = partition_case(
                width=rng.randint(4, 6),
                default_key=True,
                duplicate_names=1,
                items=rng.randint(8, 16) if self.quick else rng.randint(20, 40),
                seed=rng.randrange(2**31),
            )
            return built.scenario, built.instance, FAILURE
        # Products are stratified per flag count, so each block holds the
        # same sizes for both kinds of search.
        per_block = self.FLAGS.count(flags)
        low, high = (8, 16) if self.quick else (20, 60)
        products = _stratified(
            f"{self.name}:{flags}",
            seed,
            number * per_block + self.FLAGS[:position].count(flags),
            per_block,
            low,
            high,
        )
        built = flagged_case(
            flags=3 if self.quick else flags,
            products=products,
            name_pairs=rng.randint(1, 2),
            seed=rng.randrange(2**31),
        )
        return built.scenario, built.instance, SUCCESS

    def serve(self, request) -> PipelineResult:
        scenario, instance, _ = request
        return run_scenario(scenario, instance)

    def serve_traced(self, request, rec, index: int) -> PipelineResult:
        scenario, instance, _ = request
        with rec.span("request", request=index):
            rewritten = _traced_rewrite(rec, scenario)
            return traced_pipeline(rec, scenario, rewritten, instance)

    def tasks(self, request, outcome, seconds):
        scenario, _, expected = request
        return [_pipeline_task(seconds, outcome, expected, scenario.name)]


def _triangle_dependencies():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    premise = Conjunction(
        atoms=(Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x))),
        # Only the rotation that starts at the smallest node: each
        # triangle is enforced once while the join still enumerates all.
        comparisons=(Comparison("<", x, y), Comparison("<", x, z)),
    )
    return [tgd(premise, (Atom("Tri", (x, y, z)),), name="triangles")]


def _count_triangles(edges) -> int:
    """Brute-force count of the triangles the tgd reports."""
    successors: Dict[int, set] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    count = 0
    for x, y in edges:
        if x < y:
            for z in successors.get(y, ()):
                if z > x and x in successors.get(z, ()):
                    count += 1
    return count


class JoinTriangles(Workload):
    """Load 6000-10000 random edges over 800 nodes into an instance and
    chase the triangle tgd: a read-heavy join, about one write per 25
    edges.  Edge counts vary (8000 on average) so that the latency tail
    follows the join's cost on the larger graphs, not host noise."""

    name = "join-triangles"
    block = 8

    def __init__(self, quick: bool = False) -> None:
        super().__init__(quick)
        self._dependencies = _triangle_dependencies()

    def request(self, seed: int, index: int):
        nodes, low, high = (200, 800, 1200) if self.quick else (800, 6000, 10000)
        edges = _stratified(self.name, seed, index, self.block, low, high)
        rng = random.Random(f"{self.name}:{seed}:{index}")
        seen = set()
        while len(seen) < edges:
            a, b = rng.randrange(nodes), rng.randrange(nodes)
            if a != b:
                seen.add((a, b))
        return sorted(seen)

    def _load(self, edges) -> Instance:
        instance = Instance()
        for a, b in edges:
            instance.add_row("E", a, b)
        return instance

    def serve(self, edges):
        source = self._load(edges)
        return StandardChase(self._dependencies, ("E",)).run(source)

    def serve_traced(self, edges, rec, index: int):
        with rec.span("request", request=index):
            with rec.span("relational.instance.load"):
                source = self._load(edges)
            with rec.span("chase"):
                chase = StandardChase(self._dependencies, ("E",)).run(
                    source, recorder=rec
                )
        _count_chase(rec, chase)
        return chase

    def tasks(self, edges, chase, seconds):
        status = str(chase.status)
        found, expected = chase.target.size("Tri"), _count_triangles(edges)
        problem = ""
        if status != SUCCESS or found != expected:
            problem = f"{self.name}: chase {status} with {found} triangles, brute force counts {expected}"
        return [Task(seconds, _facts_digest(status, chase.target), problem)]


def _expected_status(spec: ScenarioSpec) -> Optional[str]:
    """What a corpus task's chase must end in, fixed by its generator
    (``None``: random scenarios may legitimately end either way)."""
    params = spec.params_dict()
    if spec.family == "random":
        return None
    if spec.family == "partition" and params.get("default_key") and params.get("duplicate_names"):
        return FAILURE
    return SUCCESS


class CorpusMixed(Workload):
    """One serial :func:`run_batch` pass over the 52-spec ``mixed``
    corpus per request, with one rewrite cache shared by the run."""

    name = "corpus-mixed"
    block = 1

    def __init__(self, quick: bool = False) -> None:
        super().__init__(quick)
        self._corpus = get_corpus("smoke" if quick else "mixed")
        self.start()

    def start(self) -> None:
        self.cache = RewriteCache(capacity=BatchOptions().cache_capacity)

    def request(self, seed: int, index: int) -> Corpus:
        # Random scenarios change every pass (cache misses); every other
        # family keeps its scenario and changes only its data (cache
        # hits).  The random family's seeds follow the pass alone: which
        # scenarios it draws sets most of a pass's cost (a few take 30x
        # the median task), and runs with different seeds must compare.
        specs = []
        for spec in self._corpus:
            params = spec.params_dict()
            shift = index + 1 if spec.family == "random" else seed * 10_000 + index + 1
            params["seed"] = params.get("seed", 0) + 100 * shift
            specs.append(ScenarioSpec(spec.family, tuple(sorted(params.items()))))
        return Corpus(self._corpus.name, self._corpus.description, tuple(specs))

    def serve(self, corpus: Corpus):
        return run_batch(corpus, BatchOptions(jobs=1), cache=self.cache)

    def serve_traced(self, corpus: Corpus, rec, index: int):
        """The serial path of :func:`run_batch`, task by task."""
        return [self._traced_task(spec, rec, index) for spec in corpus]

    def _traced_task(self, spec: ScenarioSpec, rec, index: int):
        with rec.span("request", request=index, task=spec.label):
            with rec.span("runtime.build"):
                built = spec.build()
            scenario, instance = built.scenario, built.instance
            with rec.span("runtime.fingerprint"):
                fingerprint = fingerprint_scenario(scenario)
                fingerprint_task(
                    scenario,
                    instance,
                    scenario_fingerprint=fingerprint,
                    verify=True,
                    max_scenarios=BatchOptions().max_scenarios,
                )
            with rec.span("runtime.cache"):
                rewritten, _ = self.cache.fetch(scenario, fingerprint)
            rec.count("cache.lookups")
            if rewritten is None:
                rewritten = _traced_rewrite(rec, scenario)
                with rec.span("runtime.cache"):
                    self.cache.store(fingerprint, rewritten)
            else:
                rec.count("cache.hits")
                rec.count("core.rewriter.dependencies", len(rewritten.dependencies))
            return traced_pipeline(rec, scenario, rewritten, instance)

    def tasks(self, corpus, outcome, seconds):
        if isinstance(outcome, list):  # the traced decomposition
            rows = [
                (
                    str(result.chase.status),
                    len(result.target),
                    result.chase.scenarios_tried,
                    result.chase.stats.nulls_created,
                    result.chase.stats.rounds,
                    result.verification.ok if result.verification else None,
                    None,
                )
                for result in outcome
            ]
        else:
            rows = [
                (
                    record.status,
                    record.target_facts,
                    record.scenarios_tried,
                    record.nulls_created,
                    record.rounds,
                    record.verified,
                    record.total_seconds,
                )
                for record in outcome.records
            ]
        tasks = []
        for spec, (status, facts, tried, nulls, rounds, verified, task_seconds) in zip(corpus, rows):
            expected = _expected_status(spec)
            problem = ""
            if status not in (SUCCESS, FAILURE) or (expected and status != expected):
                problem = f"{spec.label}: {status}, expected {expected or 'success or failure'}"
            elif status == SUCCESS and verified is not True:
                problem = f"{spec.label}: target fails verification"
            digest = _sha(spec.label, status, facts, tried, nulls, rounds, verified)
            tasks.append(Task(task_seconds, digest, problem))
        if len(tasks) != len(corpus):
            tasks.append(Task(None, "", f"{len(rows)} task records for {len(corpus)} specs"))
        return tasks


WORKLOADS = {
    workload.name: workload
    for workload in (RunningDsl, CorpusMixed, JoinTriangles, DedSearch)
}


def get_workload(name: str, quick: bool = False) -> Workload:
    return WORKLOADS[name](quick)

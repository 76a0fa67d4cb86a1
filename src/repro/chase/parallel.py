"""Sharded premise-match enumeration for the parallel chase.

The chase round loop is a two-phase pipeline: **enumerate** finds every
premise match of a dependency (a read-only join over the working
instance) and **enforce** replays the matches through the satisfaction
probe and the tgd/egd steps in a canonical order.  Only the enumerate
phase touches enough independent work to parallelize — premise matches
of one dependency in one round are independent until enforcement — so
this module shards exactly that phase behind one interface:

:class:`MatchSharder`
    The serial base: enumerate delegates straight to
    :meth:`~repro.chase.compiled.CompiledDependency.premise_matches`.

:class:`ProcessSharder`
    Forks replica workers at ``begin_run`` (copy-on-write: the child
    inherits the working instance and compiled plans for free) and keeps
    each replica in lockstep by replaying the enforce phase's events —
    generation bumps, inserted facts, applied null maps — so each round's
    delta can be recomputed worker-side instead of shipped.

There is no thread tier: the joins are CPU-bound Python, so threads
sharing one interpreter measured no faster than serial.  Wherever a
process fan-out is impossible (no ``fork``, or a daemonic caller that
may not spawn children) the sharder is serial.

Sharding is deterministic by construction, not by scheduling: shard
``k`` is the anchor facts whose ``hash(fact) % workers`` (row id, over
the columnar kernel) equals ``k`` (a partition, so every match is found
exactly once per anchor); the shards are dealt round-robin to at most
``os.cpu_count()`` forked processes — more processes than CPUs only
time-slice a memory-bound join, which measured slower — and the merge
deduplicates across anchors exactly like the serial delta join, and the
engine sorts the merged matches into canonical order before enforcement
— so null invention and ``_NullMap`` unions are bit-identical to the
serial chase.

The module also owns the **shared pool budget**: scenario-level batch
workers and intra-chase shards draw from one ``os.cpu_count()`` budget
(:func:`chase_worker_budget`), so turning both on never oversubscribes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.obs.recorder import NULL_RECORDER
from repro.relational.delta import group_rows
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import Binding

__all__ = [
    "MatchSharder",
    "ProcessSharder",
    "create_sharder",
    "parse_parallelism",
    "chase_worker_budget",
    "effective_parallelism",
    "compose_parallelism",
]

_MODE_ALIASES = {
    "process": "process",
    "processes": "process",
    "fork": "process",
}

#: Below this many anchor facts a shard is not worth the fan-out.
MIN_SHARD_FACTS = 32


def default_workers() -> int:
    """Worker count when a mode is requested without an explicit count."""
    return max(1, min(8, os.cpu_count() or 1))


def parse_parallelism(spec, default: Optional[int] = None) -> Tuple[str, int]:
    """``spec`` → ``(mode, workers)`` with mode ``serial`` or ``process``.

    Accepted forms: ``None``/``"serial"`` (serial), ``"process"`` (worker
    count defaulting to ``default`` or this machine's
    :func:`default_workers`), ``"process:4"`` (explicit count), or a
    bare integer (process mode).  Anything that resolves to one worker
    is serial; anything else raises :class:`ChaseError` naming the
    accepted forms.
    """
    if spec is None:
        return ("serial", 1)
    if isinstance(spec, int):
        return ("process", spec) if spec > 1 else ("serial", 1)
    text = str(spec).strip().lower()
    if text in ("", "serial", "none", "off", "1"):
        return ("serial", 1)
    if text.isdigit():
        count = int(text)
        return ("process", count) if count > 1 else ("serial", 1)
    mode, _, count_text = text.partition(":")
    if mode not in _MODE_ALIASES:
        known = "serial, process[:N], N"
        raise ChaseError(f"unknown parallelism {spec!r} (expected {known})")
    if count_text:
        try:
            workers = int(count_text)
        except ValueError:
            raise ChaseError(
                f"bad worker count in parallelism {spec!r}"
            ) from None
    else:
        workers = default if default is not None else default_workers()
    if workers <= 1:
        return ("serial", 1)
    return (_MODE_ALIASES[mode], workers)


def chase_worker_budget(
    jobs: int, requested: int, cpu_count: Optional[int] = None
) -> int:
    """Intra-chase workers one of ``jobs`` concurrent tasks may use.

    Scenario-level batch workers and chase shards share one CPU budget:
    ``jobs × chase_workers`` must not exceed ``cpu_count``, so each task
    gets ``cpu_count // jobs`` shards (at least one — serial — and never
    more than it asked for).
    """
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    budget = max(1, cpu // max(1, jobs))
    return max(1, min(requested, budget))


def effective_parallelism(
    spec, jobs: int = 1, cpu_count: Optional[int] = None
) -> str:
    """Canonical parallelism string after applying the shared budget.

    A mode without an explicit worker count (``"process"``) asks for the
    whole per-task share of the budget.
    """
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    mode, workers = parse_parallelism(spec, default=max(1, cpu // max(1, jobs)))
    if mode == "serial":
        return "serial"
    workers = chase_worker_budget(jobs, workers, cpu)
    if workers <= 1:
        return "serial"
    return f"{mode}:{workers}"


def compose_parallelism(
    jobs: int, branch_spec, chase_spec, cpu_count: Optional[int] = None
) -> Tuple[str, str]:
    """Canonical (branch, chase) parallelism under one shared CPU budget.

    Three tiers draw from the same ``cpu_count``: concurrent batch tasks
    (``jobs``), branch racers inside each task's disjunctive search, and
    match shards inside each raced chase.  The invariant is
    ``jobs × branch workers × chase workers ≤ cpu_count`` — branch
    workers get the per-job share first (racing whole scenarios
    dominates sharding single joins), and chase shards divide whatever
    remains.
    """
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    branch = effective_parallelism(branch_spec, jobs, cpu)
    _mode, branch_workers = parse_parallelism(branch)
    chase = effective_parallelism(
        chase_spec, max(1, jobs) * max(1, branch_workers), cpu
    )
    return branch, chase


def can_fork() -> bool:
    """Whether this process may fork workers: the ``fork`` start method
    exists and the caller is not a daemonic pool worker (which may not
    spawn children)."""
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
    )


def create_sharder(spec) -> "MatchSharder":
    """Build the sharder a parallelism spec asks for.

    Process mode falls back to the serial :class:`MatchSharder` when the
    caller cannot fork (see :func:`can_fork`) — the results are
    identical either way, only the speedup differs, and the result's
    ``sharding`` says ``serial``.
    """
    mode, workers = parse_parallelism(spec)
    if mode == "process" and can_fork():
        return ProcessSharder(workers)
    return MatchSharder()


def _delta_size(delta) -> int:
    """Fact count of a round delta in either kernel's shape (a set of
    atoms, or a relation -> row-id-set dict)."""
    if isinstance(delta, dict):
        return sum(len(rows) for rows in delta.values())
    return len(delta)


def _dedup_merge(shards: Sequence[List[Binding]]) -> List[Binding]:
    """Union shard results, deduplicating bindings across anchors.

    Mirrors the serial delta join's dedup (a match touching two delta
    facts is found once per anchor); output order is irrelevant because
    the engine sorts matches into canonical order before enforcement.
    """
    out: List[Binding] = []
    seen: Set[tuple] = set()
    for shard in shards:
        for binding in shard:
            key = tuple(sorted(binding.items()))
            if key not in seen:
                seen.add(key)
                out.append(binding)
    return out


def _dedup_merge_rows(shards) -> List[Tuple[int, ...]]:
    """Encoded twin of :func:`_dedup_merge`: a code row *is* its own
    binding key (varlist order), so tuple identity is binding identity."""
    out: List[Tuple[int, ...]] = []
    seen: Set[Tuple[int, ...]] = set()
    for shard in shards:
        for row in shard:
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out


class MatchSharder:
    """Serial match enumeration — the base of the sharder interface.

    Lifecycle: ``begin_run(working, compiled)`` once per chase run, then
    per round ``begin_round(delta, since)`` followed by one
    ``enumerate_matches(index)`` per dependency, with the engine
    reporting its mutations through the ``record_*`` hooks (used by the
    replica-keeping process sharder; no-ops otherwise), then
    ``end_run()``.  ``close()`` releases anything that outlives runs.
    """

    mode = "serial"
    workers = 1

    #: Whether the engine must report enforcement events (generation
    #: bumps, new facts, null maps) so remote replicas can stay in sync.
    wants_replica_events = False

    #: The run's flight recorder (the shared null recorder when the
    #: chase is untraced).  Worker-side enumeration timings are shipped
    #: home as ``enumerate.worker`` spans and merged in a fixed worker
    #: order, keeping the parent trace deterministic.
    _recorder = NULL_RECORDER

    def set_recorder(self, recorder) -> None:
        """Attach the run's flight recorder (``None`` detaches).  Must be
        called before ``begin_run``: the process sharder decides at fork
        time whether replicas time their enumerations."""
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    def describe(self) -> str:
        if self.workers <= 1:
            return self.mode
        return f"{self.mode}:{self.workers}"

    # -- lifecycle ---------------------------------------------------------

    def begin_run(self, working, compiled: Sequence) -> None:
        self._working = working
        self._compiled = compiled
        #: Which kernel the run speaks: over the columnar kernel the
        #: engine hands row-id deltas and expects encoded code rows back
        #: (and replica events carry encoded payloads).
        self._encoded = isinstance(working, ColumnarInstance)

    def end_run(self) -> None:
        pass

    def close(self) -> None:
        pass

    # -- per round ---------------------------------------------------------

    def begin_round(self, delta, since: Optional[int]) -> None:
        """``delta`` carries the kernel's round shape: ``Set[Atom]``
        (reference), :data:`~repro.relational.delta.RowDelta`
        (columnar), or ``None`` for a full round in either."""
        self._delta = delta
        self._since = since

    def enumerate_matches(self, index: int):
        """Phase 1 of a dependency's round: every premise match —
        bindings over the reference kernel, code rows over columnar."""
        if self._encoded:
            return self._compiled[index].premise_matches_encoded(
                self._working, self._delta
            )
        return self._compiled[index].premise_matches(self._working, self._delta)

    # -- enforce-phase event hooks (replica maintenance) -------------------

    def record_generation(self) -> None:
        pass

    def record_new_facts(self, facts: Sequence[Atom]) -> None:
        pass

    def record_null_map(self, resolution: Dict) -> None:
        pass

    # -- shared shard planning ---------------------------------------------

    def _full_anchor(self, index: int) -> Optional[int]:
        """Anchor atom for a full (non-delta) round: the largest relation
        carries the most shardable scan work; ties break on position."""
        atoms = self._compiled[index].premise_atoms
        if not atoms:
            return None
        size = self._working.size
        return min(
            range(len(atoms)), key=lambda i: (-size(atoms[i].relation), i)
        )


# ---------------------------------------------------------------------------
# Forked replica workers
# ---------------------------------------------------------------------------


def _replica_worker(
    conn, worker_id: int, worker_count: int, shards, replica, compiled,
    traced=False,
):
    """Loop of one forked enumeration worker.

    The worker owns the anchor facts of the shard ids in ``shards``
    (shard ``k`` of ``worker_count``: row id, or fact hash, ``% worker_count
    == k``).

    ``replica``/``compiled`` are copy-on-write images of the engine's
    working instance and plans at ``begin_run`` time.  The parent keeps
    the replica in lockstep by streaming the enforce phase's events
    (generation bumps, fact inserts, null-map applications — all
    deterministic operations), so each round's delta is recomputed here
    from the mirrored generation window instead of being shipped.

    Over the columnar kernel the same loop runs on encoded payloads:
    ``facts`` events carry ``(relation, code row)`` pairs replayed in
    per-relation batches via the bulk ``extend_encoded`` path, ``map``
    events carry code-level null resolutions,
    ``pool`` events append the parent's post-fork term-pool growth (rare
    — warm-up interns every dependency literal pre-fork), the frozen
    delta is a relation -> row-id-set dict, and replies are lists of
    code tuples instead of bindings — integers, not pickled atoms.

    When ``traced``, each enumeration is timed and the reply grows a
    third element — ``{"spans": [...]}`` with one ``enumerate.worker``
    span per request.  ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux
    and forked children share the parent's clock, so the parent can
    splice these spans into its own timeline unadjusted.
    """
    view = replica.probe_view()
    encoded = isinstance(replica, ColumnarInstance)
    # The round's delta, frozen at the round's first enumeration (keyed
    # by the generation it was taken from).  It must NOT be recomputed
    # after same-round event replays: the parent chases every dependency
    # of a round against the delta frozen at round start, so facts that
    # earlier dependencies enforced this round belong to the *next*
    # round's delta, not this one's.
    delta_since: Optional[int] = None
    delta_frozen = {} if encoded else set()

    def freeze_delta(since: int) -> None:
        nonlocal delta_since, delta_frozen
        if encoded:
            delta_frozen = group_rows(replica.rows_since(since))
        else:
            delta_frozen = set(replica.facts_since(since))
        delta_since = since

    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "stop":
                return
            if op == "events":
                for event in message[1]:
                    kind = event[0]
                    if kind == "bump":
                        replica.bump_generation()
                    elif kind == "facts":
                        if encoded:
                            # Batch per relation: row ids are assigned
                            # per table, so grouping keeps them in
                            # lockstep with the coordinator while the
                            # bulk path skips per-row overhead.
                            batches: Dict[str, list] = {}
                            for relation, values in event[1]:
                                batches.setdefault(relation, []).append(
                                    tuple(values)
                                )
                            for relation, batch in batches.items():
                                replica.extend_encoded(relation, batch)
                        else:
                            for fact in event[1]:
                                replica.add(fact)
                    elif kind == "pool":
                        replica.pool.adopt_entries(event[1], event[2])
                    else:  # "map"
                        if encoded:
                            replica.apply_null_map_encoded(event[1])
                        else:
                            replica.apply_null_map(event[1])
                continue
            if op == "round":
                # Freeze this round's delta *now*, before any of the
                # round's enforcement events arrive: the parent sends
                # this right after flushing the previous round's tail.
                since = message[1]
                if since != delta_since:
                    freeze_delta(since)
                continue
            _, dep_index, spec = message
            dependency = compiled[dep_index]
            try:
                begin = time.perf_counter() if traced else 0.0
                out: list = []
                if spec[0] == "full":
                    anchor = spec[1]
                    relation = dependency.premise_atoms[anchor].relation
                    if encoded:
                        chunk = {
                            row_id
                            for row_id in replica.live_row_ids(relation)
                            if row_id % worker_count in shards
                        }
                        if chunk:
                            out = dependency.anchor_matches_encoded(
                                view, anchor, chunk
                            )
                    else:
                        chunk = {
                            fact
                            for fact in replica.facts(relation)
                            if hash(fact) % worker_count in shards
                        }
                        if chunk:
                            out = dependency.anchor_matches(view, anchor, chunk)
                else:  # ("delta", since, anchors)
                    _, since, anchors = spec
                    if since != delta_since:
                        # First enumeration of a new round: all of the
                        # previous round's events have been replayed and
                        # none of this round's, so the generation window
                        # matches the parent's frozen delta exactly.
                        freeze_delta(since)
                    delta = delta_frozen
                    for anchor in anchors:
                        relation = dependency.premise_atoms[anchor].relation
                        if encoded:
                            chunk = {
                                row_id
                                for row_id in delta.get(relation, ())
                                if row_id % worker_count in shards
                            }
                            if chunk:
                                out.extend(
                                    dependency.anchor_matches_encoded(
                                        view, anchor, chunk
                                    )
                                )
                        else:
                            chunk = {
                                fact
                                for fact in delta
                                if fact.relation == relation
                                and hash(fact) % worker_count in shards
                            }
                            if chunk:
                                out.extend(
                                    dependency.anchor_matches(
                                        view, anchor, chunk
                                    )
                                )
                if traced:
                    span = {
                        "id": 0,
                        "parent": None,
                        "name": "enumerate.worker",
                        "start": begin,
                        "end": time.perf_counter(),
                        "worker": f"fork-{worker_id}",
                        "attrs": {"dependency": dep_index, "matches": len(out)},
                    }
                    conn.send(("ok", out, {"spans": [span]}))
                else:
                    conn.send(("ok", out))
            except Exception as exc:  # report, keep serving
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ProcessSharder(MatchSharder):
    """Shards enumeration across forked replica processes.

    ``workers`` is the shard count; ``begin_run`` forks at most
    ``os.cpu_count()`` processes and deals the shards round-robin.
    Forking at ``begin_run`` makes replica setup O(1) (copy-on-write
    pages), and replaying enforcement events keeps per-round traffic at
    O(|new facts|) down and O(|matches|) up — the joins themselves, the
    expensive part, run with real CPU parallelism.  Any worker failure
    degrades the rest of the run to serial enumeration; results are
    unaffected because sharding only changes who finds a match.
    """

    mode = "process"

    def __init__(self, workers: int) -> None:
        self.workers = max(2, int(workers))
        self._connections: List = []
        self._processes: List = []
        self._pending: List[tuple] = []
        self._broken = False

    @property
    def wants_replica_events(self) -> bool:
        return not self._broken

    def describe(self) -> str:
        if self._broken:
            # The rest of the run enumerated serially — don't let the
            # result claim a fan-out that never happened.
            return f"serial (degraded from process:{self.workers})"
        return super().describe()

    # -- lifecycle ---------------------------------------------------------

    def begin_run(self, working, compiled: Sequence) -> None:
        super().begin_run(working, compiled)
        self._pending = []
        self._broken = False
        self._connections = []
        self._processes = []
        # Warm anchored plans and their hash indexes in the parent:
        # forked replicas inherit them copy-on-write instead of each
        # rebuilding the same indexes the serial chase builds once.
        # Over the columnar kernel warm-up also interns every literal
        # the dependencies mention, so the term-pool snapshot the fork
        # ships is complete for almost every run — the mark records
        # where post-fork growth (shipped as "pool" events) begins.
        for dependency in compiled:
            dependency.warm_enumeration_plans(working)
        self._pool_mark = len(working.pool) if self._encoded else 0
        context = multiprocessing.get_context("fork")
        traced = self._recorder.enabled
        processes = min(self.workers, max(2, os.cpu_count() or 1))
        try:
            for worker_id in range(processes):
                parent_end, child_end = context.Pipe()
                shards = frozenset(range(worker_id, self.workers, processes))
                process = context.Process(
                    target=_replica_worker,
                    args=(
                        child_end, worker_id, self.workers, shards, working,
                        compiled, traced,
                    ),
                    daemon=True,
                    name=f"chase-replica-{worker_id}",
                )
                process.start()
                child_end.close()
                self._connections.append(parent_end)
                self._processes.append(process)
        except OSError:
            self._teardown()
            self._broken = True  # degrade: serial enumeration, same results

    def end_run(self) -> None:
        self._teardown()
        self._pending = []

    def close(self) -> None:
        self._teardown()

    def _teardown(self) -> None:
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._connections = []
        self._processes = []

    def _degrade(self) -> None:
        self._teardown()
        self._broken = True

    # -- enforce-phase events ----------------------------------------------

    def record_generation(self) -> None:
        if not self._broken:
            self._pending.append(("bump",))

    def record_new_facts(self, facts: Sequence[Atom]) -> None:
        if not self._broken and facts:
            self._pending.append(("facts", list(facts)))

    def record_null_map(self, resolution: Dict) -> None:
        if not self._broken and resolution:
            self._pending.append(("map", dict(resolution)))

    def _drain_events(self) -> List[tuple]:
        """The queued replica events, prefixed with any post-fork term
        pool growth (new codes must exist replica-side before the facts
        or maps that mention them replay)."""
        events = self._pending
        self._pending = []
        if self._encoded:
            pool = self._working.pool
            if len(pool) > self._pool_mark:
                events.insert(
                    0,
                    ("pool", self._pool_mark,
                     pool.entries_since(self._pool_mark)),
                )
                self._pool_mark = len(pool)
        return events

    # -- per round ---------------------------------------------------------

    def begin_round(self, delta, since: Optional[int]) -> None:
        super().begin_round(delta, since)
        if (
            self._broken
            or not self._connections
            or delta is None
            or since is None
            or _delta_size(delta) < MIN_SHARD_FACTS
        ):
            return
        # Tell the workers to freeze the round's delta before any of
        # this round's enforcement events reach them — a dependency
        # handled serially in the parent (tiny or atom-less premise)
        # may enforce facts before the first sharded enumeration, and
        # those belong to the *next* round's delta.
        try:
            events = self._drain_events()
            if events:
                for conn in self._connections:
                    conn.send(("events", events))
            for conn in self._connections:
                conn.send(("round", since))
        except (BrokenPipeError, OSError):
            self._degrade()

    # -- enumeration -------------------------------------------------------

    def enumerate_matches(self, index: int):
        if self._broken or not self._connections:
            return MatchSharder.enumerate_matches(self, index)
        compiled = self._compiled[index]
        atoms = compiled.premise_atoms
        if not atoms:
            return MatchSharder.enumerate_matches(self, index)
        if self._delta is None:
            if len(self._working) < MIN_SHARD_FACTS:
                return MatchSharder.enumerate_matches(self, index)
            spec = ("full", self._full_anchor(index))
        else:
            if (
                _delta_size(self._delta) < MIN_SHARD_FACTS
                or self._since is None
            ):
                return MatchSharder.enumerate_matches(self, index)
            if self._encoded:
                relations = set(self._delta)
            else:
                relations = {fact.relation for fact in self._delta}
            anchors = compiled.anchor_indices(relations)
            if not anchors:
                return []
            spec = ("delta", self._since, anchors)
        try:
            events = self._drain_events()
            if events:
                for conn in self._connections:
                    conn.send(("events", events))
            for conn in self._connections:
                conn.send(("enum", index, spec))
            shards: List[list] = []
            rec = self._recorder
            # Replies are collected in connection order — worker spans
            # merge into the parent trace deterministically.
            for conn in self._connections:
                reply = conn.recv()
                status, payload = reply[0], reply[1]
                if status != "ok":
                    raise ChaseError(
                        f"parallel chase worker failed during enumeration: "
                        f"{payload}"
                    )
                shards.append(payload)
                if len(reply) > 2 and rec.enabled:
                    rec.tracer.merge_records(reply[2].get("spans", ()))
        except (BrokenPipeError, EOFError, OSError):
            # A worker died: replicas are unrecoverable for this run, so
            # finish with serial enumeration (identical results).
            self._degrade()
            return MatchSharder.enumerate_matches(self, index)
        if spec[0] == "full":
            # Chunks of one anchor partition the anchor facts, and a full
            # plan yields each binding exactly once — no dedup needed.
            return [match for shard in shards for match in shard]
        if self._encoded:
            return _dedup_merge_rows(shards)
        return _dedup_merge(shards)

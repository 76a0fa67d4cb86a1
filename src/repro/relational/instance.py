"""Database instances: sets of facts with labeled nulls and hash indexes.

An :class:`Instance` stores ground atoms (facts) per relation.  It is the
in-memory substrate that replaces the PostgreSQL backend of Llunatic in
the original system: the chase and the query evaluator only need

* fast insertion with duplicate elimination,
* hash indexes on arbitrary column subsets (built lazily, invalidated on
  write),
* *generation* tracking, so the chase can restrict premise evaluation to
  matches involving recently-added facts (the delta trick), and
* bulk null replacement, the mutation performed by egd chase steps.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SchemaError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null, Term
from repro.relational.schema import Schema

__all__ = ["Instance"]

_IndexKey = Tuple[str, Tuple[int, ...]]


class Instance:
    """A set of ground facts, organised per relation.

    Facts are :class:`~repro.logic.atoms.Atom` objects whose terms are
    constants or labeled nulls (never variables).  The instance optionally
    validates facts against a :class:`~repro.relational.schema.Schema`.
    """

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self.schema = schema
        self._facts: Dict[str, Set[Atom]] = defaultdict(set)
        # Generation at which each fact was inserted (for delta evaluation).
        self._generation: Dict[Atom, int] = {}
        self._current_generation = 0
        # Per-generation insertion lists: generation -> facts recorded at
        # that generation.  Entries are never removed eagerly (removal is
        # rare); readers filter through ``_generation``, which is the
        # source of truth for liveness and current generation of a fact.
        self._insertion_log: Dict[int, List[Atom]] = defaultdict(list)
        self._indexes: Dict[_IndexKey, Dict[Tuple[Term, ...], List[Atom]]] = {}
        self._version = 0
        self._index_versions: Dict[_IndexKey, int] = {}
        # Relation -> index keys kept incrementally up to date by add().
        self._live_index_keys: Dict[str, List[_IndexKey]] = {}
        # Per-relation write counters: index validity is per relation, so
        # writes to one relation never invalidate another's indexes.
        self._relation_versions: Dict[str, int] = defaultdict(int)
        # Scan-derived distinct-key counts, stamped with the relation
        # version they were computed at.  Live indexes supersede this
        # cache (their key count is just len(index), maintained on every
        # insert); the cache only serves key-sets nobody probes.
        self._key_count_cache: Dict[_IndexKey, Tuple[int, int]] = {}
        # Guards lazy index construction only.  Reads of a built index
        # are lock-free; callers may share an instance across their own
        # threads, and two threads lazily building the same index must
        # not both register it as live (add() would then append new
        # facts to it twice).
        self._index_lock = threading.Lock()
        #: Lazy index constructions performed by this instance — the
        #: ``instance.index_builds`` metric (rebuild churn is one of the
        #: costs the columnar-kernel work needs visibility into).
        self.index_builds = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_index_lock"]  # locks do not pickle
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._index_lock = threading.Lock()

    # -- mutation ----------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Insert a fact; returns True when it was new."""
        if not fact.is_ground():
            raise SchemaError(f"cannot insert non-ground atom {fact}")
        if self.schema is not None and fact.relation in self.schema:
            self.schema.relation(fact.relation).check_fact(fact.terms)
        elif self.schema is not None:
            raise SchemaError(
                f"fact {fact} does not belong to schema {self.schema.name!r}"
            )
        bucket = self._facts[fact.relation]
        if fact in bucket:
            return False
        bucket.add(fact)
        self._generation[fact] = self._current_generation
        self._insertion_log[self._current_generation].append(fact)
        self._version += 1
        self._relation_versions[fact.relation] += 1
        # Maintain live indexes incrementally: a full rebuild per write
        # would make the chase quadratic (one satisfaction probe per
        # inserted fact, each rebuilding O(relation) indexes).
        for key in self._live_index_keys.get(fact.relation, ()):  # type: ignore[union-attr]
            index = self._indexes[key]
            index[tuple(fact.terms[i] for i in key[1])].append(fact)
            self._index_versions[key] = self._relation_versions[fact.relation]
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; returns how many were new."""
        added = 0
        for fact in facts:
            if self.add(fact):
                added += 1
        return added

    def add_row(self, relation: str, *values) -> bool:
        """Convenience: insert a fact from raw Python values / terms."""
        terms = tuple(
            v if isinstance(v, (Constant, Null)) else Constant(v) for v in values
        )
        return self.add(Atom(relation, terms))

    def remove(self, fact: Atom) -> bool:
        """Delete a fact; returns True when it was present."""
        bucket = self._facts.get(fact.relation)
        if bucket is None or fact not in bucket:
            return False
        bucket.remove(fact)
        self._generation.pop(fact, None)
        self._version += 1
        self._relation_versions[fact.relation] += 1
        self._drop_indexes(fact.relation)
        return True

    def _drop_indexes(self, relation: str) -> None:
        """Invalidate cached indexes of one relation (removals are rare;
        insertions are maintained incrementally instead)."""
        for key in self._live_index_keys.pop(relation, ()):
            self._indexes.pop(key, None)
            self._index_versions.pop(key, None)

    def bump_generation(self) -> int:
        """Start a new insertion generation; returns the new generation id.

        Facts inserted from now on are "newer than" the returned id minus
        one; :meth:`facts_since` retrieves them.
        """
        self._current_generation += 1
        return self._current_generation

    # -- inspection -----------------------------------------------------------

    def relations(self) -> List[str]:
        """Relation names with at least one fact."""
        return [name for name, bucket in self._facts.items() if bucket]

    def facts(self, relation: str) -> FrozenSet[Atom]:
        return frozenset(self._facts.get(relation, ()))

    def _log_entries(self, generation: int) -> Iterable[Atom]:
        """Facts recorded at exactly ``generation`` (may contain stale or
        duplicate entries; :meth:`facts_since` filters).  Kept as a hook so
        tests can instrument how much work a delta scan performs."""
        return self._insertion_log.get(generation, ())

    def facts_since(self, generation: int, relation: Optional[str] = None) -> List[Atom]:
        """Facts inserted at or after ``generation``.

        O(|delta|): reads the per-generation insertion lists instead of
        scanning the whole instance, so chase rounds pay for what the
        previous round created, not for everything ever inserted.
        """
        current_generation = self._generation.get
        out: List[Atom] = []
        seen: Set[Atom] = set()
        for gen in range(max(generation, 0), self._current_generation + 1):
            for fact in self._log_entries(gen):
                if current_generation(fact) != gen or fact in seen:
                    continue
                if relation is not None and fact.relation != relation:
                    continue
                seen.add(fact)
                out.append(fact)
        return out

    def generation_of(self, fact: Atom) -> int:
        return self._generation.get(fact, 0)

    @property
    def current_generation(self) -> int:
        return self._current_generation

    @property
    def version(self) -> int:
        """Monotone write counter (used for index invalidation)."""
        return self._version

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts.get(fact.relation, ())

    def __iter__(self) -> Iterator[Atom]:
        for bucket in self._facts.values():
            yield from bucket

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._facts.values())

    def size(self, relation: Optional[str] = None) -> int:
        if relation is None:
            return len(self)
        return len(self._facts.get(relation, ()))

    def nulls(self) -> Set[Null]:
        """All labeled nulls occurring anywhere in the instance."""
        out: Set[Null] = set()
        for fact in self:
            for term in fact.terms:
                if isinstance(term, Null):
                    out.add(term)
        return out

    def is_ground_complete(self) -> bool:
        """True when the instance contains no labeled nulls."""
        return not any(
            isinstance(t, Null) for fact in self for t in fact.terms
        )

    # -- indexes -----------------------------------------------------------------

    def index(
        self, relation: str, positions: Sequence[int]
    ) -> Mapping[Tuple[Term, ...], List[Atom]]:
        """A hash index mapping value-tuples at ``positions`` to facts.

        Indexes are cached and rebuilt lazily when the instance changed
        since the index was built.
        """
        key: _IndexKey = (relation, tuple(positions))
        if self._index_versions.get(key) == self._relation_versions[relation]:
            return self._indexes[key]
        with self._index_lock:
            # Re-check under the lock: another thread may have built the
            # index while this one waited.
            if self._index_versions.get(key) == self._relation_versions[relation]:
                return self._indexes[key]
            built: Dict[Tuple[Term, ...], List[Atom]] = defaultdict(list)
            for fact in self._facts.get(relation, ()):
                built[tuple(fact.terms[i] for i in key[1])].append(fact)
            self.index_builds += 1
            self._indexes[key] = built
            self._index_versions[key] = self._relation_versions[relation]
            live = self._live_index_keys.setdefault(relation, [])
            if key not in live:
                live.append(key)
            return built

    def key_count(self, relation: str, positions: Sequence[int]) -> int:
        """Distinct value-tuples at ``positions`` — a selectivity estimate.

        ``size(relation) / key_count`` approximates the bucket a probe on
        those positions will scan; the query planner uses it to prefer
        near-key probes over low-cardinality ones, and the shared
        recompile policy (:class:`repro.relational.delta.PlanCache`)
        watches it for selectivity drift.

        Reuses a cached index when one is current, but never *builds*
        one: planning scores many candidate position sets that will never
        be probed, and a full index per candidate would be registered as
        live and then maintained on every future insert.  Scan results
        are memoized against the relation's write version, so repeated
        planner calls between writes cost O(1).
        """
        key: _IndexKey = (relation, tuple(positions))
        version = self._relation_versions[relation]
        if self._index_versions.get(key) == version:
            return len(self._indexes[key])
        cached = self._key_count_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        seen: Set[Tuple[Term, ...]] = set()
        for fact in self._facts.get(relation, ()):
            seen.add(tuple(fact.terms[i] for i in key[1]))
        self._key_count_cache[key] = (version, len(seen))
        return len(seen)

    def cached_key_count(
        self, relation: str, positions: Sequence[int]
    ) -> Optional[int]:
        """Distinct-key count if it is O(1) to read, else ``None``.

        A live hash index *is* an incrementally-maintained distinct-key
        count (``len(index)`` — :meth:`add` appends to it on every
        insert), and a version-fresh scan memo is equally free.  Callers
        on hot paths — the plan cache's per-fetch drift check — use this
        so statistics reads never degenerate into relation scans.
        """
        key: _IndexKey = (relation, tuple(positions))
        version = self._relation_versions[relation]
        if self._index_versions.get(key) == version:
            return len(self._indexes[key])
        cached = self._key_count_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        return None

    # -- null handling -------------------------------------------------------------

    def apply_null_map(self, mapping: Mapping[Null, Term]) -> int:
        """Replace nulls throughout the instance; returns #facts rewritten.

        This is the bulk mutation behind egd chase steps: when an egd
        equates a null with another term, every occurrence of the null is
        replaced.  Facts that become duplicates collapse (set semantics).
        """
        if not mapping:
            return 0
        rewritten = 0
        for relation, bucket in list(self._facts.items()):
            replacements: List[Tuple[Atom, Atom, int]] = []
            for fact in bucket:
                new_terms = tuple(
                    mapping.get(t, t) if isinstance(t, Null) else t
                    for t in fact.terms
                )
                if new_terms != fact.terms:
                    generation = self._generation.get(fact, self._current_generation)
                    replacements.append((fact, Atom(relation, new_terms), generation))
            for old, _new, _generation in replacements:
                bucket.remove(old)
                self._generation.pop(old, None)
            for _old, new, generation in replacements:
                if new not in bucket:
                    bucket.add(new)
                    self._generation[new] = generation
                    self._insertion_log[generation].append(new)
                else:
                    # Collapsed onto an existing fact; keep the earliest
                    # generation so delta evaluation never misses it.
                    kept = min(self._generation.get(new, generation), generation)
                    if kept != self._generation.get(new):
                        self._insertion_log[kept].append(new)
                    self._generation[new] = kept
                rewritten += 1
            if replacements:
                self._version += 1
                self._relation_versions[relation] += 1
                self._drop_indexes(relation)
        return rewritten

    # -- copies / conversion -------------------------------------------------------

    def copy(self) -> "Instance":
        """An independent copy sharing the (immutable) facts."""
        clone = Instance(self.schema)
        for relation, bucket in self._facts.items():
            clone._facts[relation] = set(bucket)
        clone._generation = dict(self._generation)
        for generation, inserted in self._insertion_log.items():
            clone._insertion_log[generation] = list(inserted)
        clone._current_generation = self._current_generation
        clone._version = self._version
        return clone

    def restricted_to(self, relations: Iterable[str]) -> "Instance":
        """A copy containing only the given relations (schema dropped)."""
        keep = set(relations)
        clone = Instance()
        for relation in keep:
            for fact in self._facts.get(relation, ()):
                clone.add(fact)
        return clone

    def to_atoms(self) -> List[Atom]:
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        mine = {r: b for r, b in self._facts.items() if b}
        theirs = {r: b for r, b in other._facts.items() if b}
        return mine == theirs

    def __str__(self) -> str:
        lines = []
        for relation in sorted(self._facts):
            bucket = self._facts[relation]
            if not bucket:
                continue
            lines.append(f"{relation} ({len(bucket)} facts)")
            for fact in sorted(bucket, key=str)[:20]:
                lines.append(f"  {fact}")
            if len(bucket) > 20:
                lines.append(f"  ... {len(bucket) - 20} more")
        return "\n".join(lines) if lines else "(empty instance)"

    def __repr__(self) -> str:
        return f"Instance({len(self)} facts, {len(self.relations())} relations)"

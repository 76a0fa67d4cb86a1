"""Database instances: sets of facts with labeled nulls and hash indexes.

An :class:`Instance` stores ground atoms (facts) per relation.  It is the
in-memory substrate that replaces the PostgreSQL backend of Llunatic in
the original system: the chase and the query evaluator only need

* fast insertion with duplicate elimination,
* hash indexes on arbitrary column subsets (built lazily, maintained on
  insert, invalidated on removal), and
* bulk null replacement, the mutation performed by egd chase steps.

It is the decoded boundary value: inputs arrive as ``Instance`` objects
and results leave as them.  The chase and the view fixpoint work on the
columnar kernel (:class:`~repro.relational.kernel.ColumnarInstance`),
which keeps its own insertion generations for delta rounds.
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
        self._indexes: Dict[_IndexKey, Dict[Tuple[Term, ...], List[Atom]]] = {}
        self._version = 0
        self._index_versions: Dict[_IndexKey, int] = {}
        # Relation -> index keys kept incrementally up to date by add().
        self._live_index_keys: Dict[str, List[_IndexKey]] = {}
        # Per-relation write counters: index validity is per relation, so
        # writes to one relation never invalidate another's indexes.
        self._relation_versions: Dict[str, int] = defaultdict(int)
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

    # -- inspection -----------------------------------------------------------

    def relations(self) -> List[str]:
        """Relation names with at least one fact."""
        return [name for name, bucket in self._facts.items() if bucket]

    def facts(self, relation: str) -> FrozenSet[Atom]:
        return frozenset(self._facts.get(relation, ()))

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
        live and then maintained on every future insert.  Otherwise it
        scans; compiled plans are cached
        (:func:`~repro.relational.query.compile_query`), so a body is
        scored once, not per evaluation.
        """
        key: _IndexKey = (relation, tuple(positions))
        if self._index_versions.get(key) == self._relation_versions[relation]:
            return len(self._indexes[key])
        facts = self._facts.get(relation, ())
        return len({tuple(fact.terms[i] for i in key[1]) for fact in facts})

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
            replacements: List[Tuple[Atom, Atom]] = []
            for fact in bucket:
                new_terms = tuple(
                    mapping.get(t, t) if isinstance(t, Null) else t
                    for t in fact.terms
                )
                if new_terms != fact.terms:
                    replacements.append((fact, Atom(relation, new_terms)))
            # Remove every old fact before adding any new one: a rewrite
            # may land on another rewritten fact's old terms.
            for old, _new in replacements:
                bucket.remove(old)
            for _old, new in replacements:
                bucket.add(new)
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

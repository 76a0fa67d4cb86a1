"""A frozen atom-object fact store: e13's append reference.

``AtomSetStore`` is the insert path ``repro.relational.instance.Instance``
had while it stored one ``Atom`` per fact: a ground check, an optional
schema check, a per-relation ``set[Atom]`` probe and insert, write
counters and live-index upkeep.  ``Instance`` now stores value rows, so
timing it would no longer measure what e13's append section claims
(encoded rows against atom-object inserts).  This copy does not move
with ``Instance``; it is benchmark code, not a store anything else uses.
"""

from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import SchemaError
from repro.logic.atoms import Atom

_IndexKey = Tuple[str, Tuple[int, ...]]


class AtomSetStore:
    """Per-relation sets of ``Atom`` facts, insert path only."""

    def __init__(self, schema=None) -> None:
        self.schema = schema
        self._facts: Dict[str, Set[Atom]] = defaultdict(set)
        self._indexes: Dict[_IndexKey, Dict[tuple, List[Atom]]] = {}
        self._version = 0
        self._index_versions: Dict[_IndexKey, int] = {}
        self._live_index_keys: Dict[str, List[_IndexKey]] = {}
        self._relation_versions: Dict[str, int] = defaultdict(int)

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
        for key in self._live_index_keys.get(fact.relation, ()):
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

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._facts.values())

"""Database instances: per-relation sets of value rows.

An :class:`Instance` is the decoded boundary value of the system: inputs
arrive as ``Instance`` objects and results leave as them.  The chase and
the view fixpoint work on the columnar kernel
(:class:`~repro.relational.kernel.ColumnarInstance`), which interns the
values into code rows; an ``Instance`` is what is loaded into it and
decoded out of it.  It replaces the bulk load and read-back of the
PostgreSQL backend Llunatic runs on.

**Storage.**  Each relation holds one ``set`` of *value rows*: tuples of
raw ``int``/``float``/``bool``/``str`` values, with labeled
:class:`~repro.logic.terms.Null` objects kept as they are.  A value row
dedups exactly as the fact it stands for does: ``1``, ``1.0`` and
``True`` are equal values just as they are equal constants, and the row
inserted first is the one kept.  Inserting a row builds no term objects,
and the kernel encodes rows straight from their values
(:meth:`rows`).

**The decoded read surface.**  :class:`~repro.logic.atoms.Atom` facts
are built only where a caller reads facts: iteration, :meth:`facts`,
:meth:`index` (the reference evaluator and the disjunctive chase probe
it), :meth:`__str__`.  Every write still validates: ``add`` rejects a
non-ground atom, ``add_row`` rejects a value that is not a constant
value or a null, and a schema checks arity and types on every row.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import (
    AbstractSet,
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

__all__ = ["Instance", "row_fact"]

_IndexKey = Tuple[str, Tuple[int, ...]]
#: One fact's values: raw constant values and ``Null`` objects.
Row = Tuple[object, ...]

#: The Python types a row stores as raw constant values.
VALUE_TYPES = (int, float, bool, str)
#: Exact classes a row value takes without conversion (``add_row``'s
#: fast path; subclasses and terms go through :func:`_row_value`).
_PLAIN_VALUES = frozenset(VALUE_TYPES)


def _row_value(value):
    """A term or raw value as it is stored in a row."""
    if isinstance(value, Constant):
        return value.value
    if isinstance(value, (Null, *VALUE_TYPES)):
        return value
    raise TypeError(
        f"constant values must be int/float/bool/str, got {type(value).__name__}"
    )


def _term(value) -> Term:
    """The term a stored value stands for (anything that is not a raw
    value is already a term)."""
    return Constant(value) if isinstance(value, VALUE_TYPES) else value


def row_fact(relation: str, row: Row) -> Atom:
    """The fact a value row of ``relation`` stands for."""
    return Atom(relation, tuple(map(_term, row)))


def _fact_row(fact: Atom) -> Row:
    return tuple(t.value if isinstance(t, Constant) else t for t in fact.terms)


class Instance:
    """A set of ground facts, stored per relation as value rows.

    The instance optionally validates rows against a
    :class:`~repro.relational.schema.Schema`.
    """

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self.schema = schema
        self._rows: Dict[str, Set[Row]] = defaultdict(set)
        self._version = 0
        # Decoded indexes, (relation, positions) -> key terms -> facts.
        # An index present here is current: add() maintains it, and
        # removals and null rewrites drop it.
        self._indexes: Dict[_IndexKey, Dict[Tuple[Term, ...], List[Atom]]] = {}
        self._live_index_keys: Dict[str, List[_IndexKey]] = {}
        # Guards lazy index construction only.  Reads of a built index
        # are lock-free; callers may share an instance across their own
        # threads, and two threads lazily building the same index must
        # not both register it (add() would then append new facts to it
        # twice).
        self._index_lock = threading.Lock()
        #: Lazy index constructions performed by this instance — the
        #: ``instance.index_builds`` metric.
        self.index_builds = 0

    def __getstate__(self):
        # Rows only: indexes are caches and the lock does not pickle.
        return {"schema": self.schema, "rows": self._rows, "version": self._version}

    def __setstate__(self, state) -> None:
        self.__init__(state["schema"])
        self._rows.update(state["rows"])
        self._version = state["version"]

    # -- mutation ----------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Insert a fact; returns True when it was new."""
        if not fact.is_ground():
            raise SchemaError(f"cannot insert non-ground atom {fact}")
        row = _fact_row(fact)
        if self.schema is not None:
            self._check(fact.relation, row)
        return self._insert(fact.relation, row)

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; returns how many were new."""
        added = 0
        for fact in facts:
            if self.add(fact):
                added += 1
        return added

    def add_row(self, relation: str, *values) -> bool:
        """Insert a fact from raw Python values (or terms); returns True
        when it was new.  A value that is neither a constant value nor a
        null raises ``TypeError``."""
        if not _PLAIN_VALUES.issuperset(map(type, values)):
            values = tuple(map(_row_value, values))
        if self.schema is not None:
            self._check(relation, values)
        return self._insert(relation, values)

    def add_rows(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert value rows of one relation in bulk; returns how many
        were new.  The rows must hold stored values (raw constant values
        and nulls, as :meth:`rows` yields them); a schema validates each
        one.  The relation's decoded indexes are dropped, not maintained."""
        bucket = self._rows[relation]
        before = len(bucket)
        try:
            if self.schema is None:
                bucket.update(rows)
            else:
                check = self._check
                for row in rows:
                    check(relation, row)
                    bucket.add(row)
        finally:
            # Rows added before a failed check stay; keep the caches honest.
            if len(bucket) != before:
                self._version += 1
                self._drop_indexes(relation)
        return len(bucket) - before

    def _check(self, relation: str, row: Row) -> None:
        if relation not in self.schema:  # type: ignore[operator]
            raise SchemaError(
                f"fact {row_fact(relation, row)} does not belong to schema "
                f"{self.schema.name!r}"  # type: ignore[union-attr]
            )
        self.schema.relation(relation).check_row(row)  # type: ignore[union-attr]

    def _insert(self, relation: str, row: Row) -> bool:
        bucket = self._rows[relation]
        size = len(bucket)
        bucket.add(row)
        if len(bucket) == size:
            return False
        self._version += 1
        # Maintain live indexes incrementally: a full rebuild per write
        # would make a decoded chase quadratic (one satisfaction probe
        # per inserted fact, each rebuilding the relation's indexes).
        live = self._live_index_keys.get(relation)
        if live:
            fact = row_fact(relation, row)
            for key in live:
                self._indexes[key].setdefault(
                    tuple(fact.terms[i] for i in key[1]), []
                ).append(fact)
        return True

    def remove(self, fact: Atom) -> bool:
        """Delete a fact; returns True when it was present."""
        bucket = self._rows.get(fact.relation)
        row = _fact_row(fact)
        if bucket is None or row not in bucket:
            return False
        bucket.remove(row)
        self._version += 1
        self._drop_indexes(fact.relation)
        return True

    def _drop_indexes(self, relation: str) -> None:
        """Invalidate cached indexes of one relation (removals are rare;
        insertions are maintained incrementally instead)."""
        for key in self._live_index_keys.pop(relation, ()):
            self._indexes.pop(key, None)

    # -- inspection -----------------------------------------------------------

    def relations(self) -> List[str]:
        """Relation names with at least one fact."""
        return [name for name, bucket in self._rows.items() if bucket]

    def rows(self, relation: str) -> AbstractSet[Row]:
        """The relation's value rows: raw constant values and ``Null``
        objects.  The live set, not a copy — read it, never mutate it."""
        return self._rows.get(relation, frozenset())

    def facts(self, relation: str) -> FrozenSet[Atom]:
        return frozenset(
            row_fact(relation, row) for row in self._rows.get(relation, ())
        )

    @property
    def version(self) -> int:
        """Monotone write counter."""
        return self._version

    def __contains__(self, fact: Atom) -> bool:
        return _fact_row(fact) in self._rows.get(fact.relation, ())

    def __iter__(self) -> Iterator[Atom]:
        for relation, bucket in self._rows.items():
            for row in bucket:
                yield row_fact(relation, row)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._rows.values())

    def size(self, relation: Optional[str] = None) -> int:
        if relation is None:
            return len(self)
        return len(self._rows.get(relation, ()))

    def _values(self) -> Iterator[object]:
        return chain.from_iterable(chain.from_iterable(self._rows.values()))

    def nulls(self) -> Set[Null]:
        """All labeled nulls occurring anywhere in the instance."""
        return {value for value in self._values() if isinstance(value, Null)}

    def is_ground_complete(self) -> bool:
        """True when the instance contains no labeled nulls."""
        return not any(isinstance(value, Null) for value in self._values())

    # -- indexes -----------------------------------------------------------------

    def index(
        self, relation: str, positions: Sequence[int]
    ) -> Mapping[Tuple[Term, ...], List[Atom]]:
        """A hash index mapping term tuples at ``positions`` to facts.

        Built lazily on first use, then maintained by :meth:`add` until
        a removal or null rewrite in the relation drops it.
        """
        key: _IndexKey = (relation, tuple(positions))
        built = self._indexes.get(key)
        if built is not None:
            return built
        with self._index_lock:
            # Re-check under the lock: another thread may have built the
            # index while this one waited.
            built = self._indexes.get(key)
            if built is not None:
                return built
            built = {}
            for row in self._rows.get(relation, ()):
                fact = row_fact(relation, row)
                built.setdefault(tuple(fact.terms[i] for i in key[1]), []).append(
                    fact
                )
            self.index_builds += 1
            self._indexes[key] = built
            self._live_index_keys.setdefault(relation, []).append(key)
            return built

    def key_count(self, relation: str, positions: Sequence[int]) -> int:
        """Distinct value-tuples at ``positions`` — a selectivity estimate.

        ``size(relation) / key_count`` approximates the bucket a probe on
        those positions will scan; the query planner uses it to prefer
        near-key probes over low-cardinality ones.  Reuses a cached index
        but never builds one: planning scores many candidate position
        sets that will never be probed.  Raw values count as their terms
        do (``1``, ``1.0`` and ``True`` are one key either way).
        """
        built = self._indexes.get((relation, tuple(positions)))
        if built is not None:
            return len(built)
        rows = self._rows.get(relation, ())
        if not positions:
            return min(len(rows), 1)
        return len(set(map(itemgetter(*positions), rows)))

    # -- null handling -------------------------------------------------------------

    def apply_null_map(self, mapping: Mapping[Null, Term]) -> int:
        """Replace nulls throughout the instance; returns #facts rewritten.

        This is the bulk mutation behind egd chase steps: when an egd
        equates a null with another term, every occurrence of the null is
        replaced.  Facts that become duplicates collapse (set semantics).
        """
        if not mapping:
            return 0
        # Keys are nulls, which equal no raw value, so ``get(v, v)``
        # over every value rewrites exactly the mapped nulls.
        get = {null: _row_value(term) for null, term in mapping.items()}.get
        rewritten = 0
        for relation, bucket in self._rows.items():
            replacements: List[Tuple[Row, Row]] = []
            for row in bucket:
                new_row = tuple(map(get, row, row))
                if new_row != row:
                    replacements.append((row, new_row))
            # Remove every old row before adding any new one: a rewrite
            # may land on another rewritten row's old values.
            for old, _new in replacements:
                bucket.remove(old)
            for _old, new in replacements:
                bucket.add(new)
            if replacements:
                rewritten += len(replacements)
                self._version += 1
                self._drop_indexes(relation)
        return rewritten

    # -- copies / conversion -------------------------------------------------------

    def copy(self) -> "Instance":
        """An independent copy (rows are immutable and shared)."""
        clone = Instance(self.schema)
        for relation, bucket in self._rows.items():
            clone._rows[relation] = set(bucket)
        clone._version = self._version
        return clone

    def restricted_to(self, relations: Iterable[str]) -> "Instance":
        """A copy containing only the given relations (schema dropped)."""
        clone = Instance()
        for relation in set(relations):
            bucket = self._rows.get(relation)
            if bucket:
                clone._rows[relation] = set(bucket)
        clone._version = len(clone)
        return clone

    def to_atoms(self) -> List[Atom]:
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        mine = {r: b for r, b in self._rows.items() if b}
        theirs = {r: b for r, b in other._rows.items() if b}
        return mine == theirs

    def __str__(self) -> str:
        lines = []
        for relation in sorted(self._rows):
            bucket = self.facts(relation)
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

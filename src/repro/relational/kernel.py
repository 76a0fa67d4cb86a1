"""The columnar instance kernel: interned terms over struct-of-arrays rows.

The boundary :class:`~repro.relational.instance.Instance` stores value
rows and builds ``Atom`` objects on reads; a join over it would hash
tuples of term objects.  This module is the columnar store the chase
and the compiled query plans run on:

:class:`TermPool`
    A process-wide interning pool mapping constants to dense positive
    integer ids.  Labeled nulls do not intern at all — a null encodes as
    ``-(id + 1)``, so its code *carries* the numeric component of the
    canonical :func:`~repro.relational.types.term_order_key` and fresh
    chase nulls never touch the pool's dict.  The pool precomputes each constant's order key
    (``(0, 0, repr(term))``) at intern time, so sorting encoded rows
    reproduces the engine's canonical enforcement order exactly.  The
    pool is append-only, so a code never changes meaning once issued.

:class:`ColumnarInstance`
    Facts as struct-of-arrays ``array('q')`` columns per relation, with
    a row-dedup dict (encoded row tuple -> row id), per-generation row
    logs (the encoded ``facts_since`` window), incrementally maintained
    encoded hash indexes, and O(rows) bulk null replacement.  It speaks
    the Atom-level :class:`Instance` surface (decode at the edges),
    plus the encoded fast path the compiled query plans and the chase
    engine ride: ``add_encoded`` / ``encoded_index`` / ``columns`` /
    ``rows_since``.

The class is deliberately *not* an ``Instance`` subclass: the two are
independent stores behind one duck-typed surface, and
``Instance.__eq__`` returns ``NotImplemented`` for non-instances so
cross-store equality lands in :meth:`ColumnarInstance.__eq__` (which
decodes and compares fact sets) — the differential suites rely on it.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import (
    Collection,
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
from repro.logic.atoms import Atom, Comparison
from repro.logic.terms import Constant, Null, Term, Variable
from repro.relational.instance import VALUE_TYPES, Instance, row_fact
from repro.relational.types import term_order_key

__all__ = [
    "TermPool",
    "ColumnarInstance",
    "CodeComparison",
    "RowMask",
    "global_pool",
    "encode_null",
    "null_id_of",
]

_IndexKey = Tuple[str, Tuple[int, ...]]


def encode_null(null_id: int) -> int:
    """A null's code: ``-(id + 1)`` so even ``Null(0)`` stays negative."""
    return -(null_id + 1)


def null_id_of(code: int) -> int:
    """Inverse of :func:`encode_null` (``code`` must be negative)."""
    return -code - 1


class TermPool:
    """Append-only interning pool: constants <-> dense positive int ids.

    Code 0 is never issued; constants get codes ``1..n`` in intern
    order, nulls encode arithmetically (negative) without touching the
    pool.  Interning is thread-safe; decode/order-key reads are
    lock-free (entries are published before their id is).
    """

    __slots__ = ("_lock", "_ids", "_terms", "_orders", "values", "is_str")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: Dict[Constant, int] = {}
        # Slot 0 is a sentinel so code == list index.
        self._terms: List[Optional[Term]] = [None]
        self._orders: List[Optional[Tuple[int, int, str]]] = [None]
        #: Code -> raw Python value, and code -> "the value is a str":
        #: the arrays order comparisons on codes read (see
        #: :class:`CodeComparison`).  Kept in step with ``_terms``;
        #: readers index them and never rebind or mutate them.
        self.values: List[object] = [None]
        self.is_str: List[bool] = [False]

    def __len__(self) -> int:
        """Interned constants (the ``instance.intern_size`` gauge)."""
        return len(self._terms) - 1

    def encode(self, term: Term) -> int:
        """Intern (or look up) a ground term; returns its code."""
        if isinstance(term, Null):
            return -(term.id + 1)
        code = self._ids.get(term)
        if code is not None:
            return code
        with self._lock:
            code = self._ids.get(term)
            if code is None:
                code = len(self._terms)
                self._append(term)
                # Publish the id last: lock-free readers that obtain a
                # code always find its entry populated.
                self._ids[term] = code
        return code

    def _append(self, term: Term) -> None:
        """Populate every per-code array for the next code (lock held)."""
        self._terms.append(term)
        self._orders.append(term_order_key(term))
        value = term.value  # type: ignore[union-attr]
        self.values.append(value)
        self.is_str.append(isinstance(value, str))

    def try_encode(self, term: Term) -> Optional[int]:
        """The code of a term *without* interning; None when unknown.

        Membership probes use this so looking up an absent fact never
        grows the pool.
        """
        if isinstance(term, Null):
            return -(term.id + 1)
        return self._ids.get(term)

    def decode(self, code: int) -> Term:
        """The term behind a code (nulls decode hint-less; instances
        overlay their per-run hints — see
        :meth:`ColumnarInstance.decode_term`)."""
        if code < 0:
            return Null(-code - 1)
        return self._terms[code]  # type: ignore[return-value]

    def order_key(self, code: int) -> Tuple[int, int, str]:
        """The canonical :func:`term_order_key` of an encoded term."""
        if code < 0:
            return (1, -code - 1, "")
        return self._orders[code]  # type: ignore[return-value]


_GLOBAL_POOL = TermPool()


def global_pool() -> TermPool:
    """The process-wide pool every :class:`ColumnarInstance` defaults to.

    One shared id space is what lets plans and instances exchange
    encoded rows without translation."""
    return _GLOBAL_POOL


#: Compiled ``lambda _row: ...`` code objects keyed by source text; the
#: pool's arrays bind as globals per :class:`CodeComparison`.
_CHECK_CODE: Dict[str, object] = {}


class CodeComparison:
    """A comparison atom compiled to a boolean expression over codes.

    The one place comparisons are lowered onto the kernel: the query
    plans' seed and per-step filters, the block drivers and the chase's
    disjunct checks all come through here.  Operands are ``(is_slot,
    value)`` pairs like join-key parts: a slot of the row, or a literal
    code interned when the plan compiles.  Semantics on codes, matching ``Comparison.evaluate`` with a
    ``TypingError`` read as False:

    * ``=`` / ``!=`` compare codes — the pool interns by term equality
      (``1``, ``1.0`` and ``True`` share a code) and a null's code is
      its identity;
    * order operators are False when either side is a null (code < 0)
      or exactly one side is a str, and otherwise compare the raw values
      the pool keeps in :attr:`TermPool.values`.

    ``tests/test_encoded_comparisons.py`` pins this against
    ``Comparison.evaluate`` over mixed value domains.
    :meth:`expression` renders the test for the generated block drivers
    (which apply it as a comprehension filter over column locals);
    :attr:`check` is the same expression as a function of one row.
    """

    __slots__ = ("op", "left", "right", "check")

    def __init__(
        self, comparison: Comparison, slot_of: Mapping[Variable, int], pool: TermPool
    ) -> None:
        self.op: str = comparison.op
        self.left = self._operand(comparison.left, slot_of, pool)
        self.right = self._operand(comparison.right, slot_of, pool)
        source = f"lambda _row: {self.expression('_row[{}]'.format)}"
        code = _CHECK_CODE.get(source)
        if code is None:
            code = compile(source, "<comparison>", "eval")
            _CHECK_CODE[source] = code
        self.check = eval(code, {"_vals": pool.values, "_isstr": pool.is_str})  # noqa: S307

    @staticmethod
    def _operand(term: Term, slot_of, pool: TermPool) -> Tuple[bool, int]:
        if isinstance(term, Variable):
            return True, slot_of[term]
        return False, pool.encode(term)

    def expression(self, slot_expr) -> str:
        """The test as Python source over codes; ``slot_expr(i)`` renders
        slot ``i``.  Order tests read the globals ``_vals`` and ``_isstr``
        (the pool's :attr:`~TermPool.values` / :attr:`~TermPool.is_str`)."""
        a, b = (
            slot_expr(value) if is_slot else str(value)
            for is_slot, value in (self.left, self.right)
        )
        if self.op == "=":
            return f"({a} == {b})"
        if self.op == "!=":
            return f"({a} != {b})"
        tests = []
        for expr, (is_slot, value) in zip((a, b), (self.left, self.right)):
            if is_slot:
                tests.append(f"{expr} > 0")  # nulls never order
            elif value < 0:
                return "False"
        tests.append(f"_isstr[{a}] is _isstr[{b}]")
        tests.append(f"_vals[{a}] {self.op} _vals[{b}]")
        return "(" + " and ".join(tests) + ")"


class RowMask:
    """A delta window over row ids, shaped for *block* restriction.

    The innermost operation of an anchored delta probe is restricting an
    index bucket (a sorted list of row ids) to the round's delta window.
    Doing that per row (``[r for r in bucket if r in delta]``) allocates
    a fresh list per probe key even when the window covers the whole
    bucket — the e2 hot path, where a delta round probes exactly the
    rows it just inserted.  A mask precomputes the window's span and
    contiguity once per probe plan so each bucket restriction is:

    * the **bucket itself** (no copy, no scan) when a contiguous window
      covers it entirely;
    * a single **bisect slice** when a contiguous window covers part of
      it (fresh rows are appended in row-id order, so a generation
      window without resurrections is always one integer range);
    * one span-bounded membership pass for sparse windows (resurrected
      rows).

    Requires the sorted-bucket invariant :meth:`ColumnarInstance.
    encoded_index` maintains.  Masks iterate and size like the row-id
    set they wrap.
    """

    __slots__ = ("lo", "hi", "contiguous", "_members")

    def __init__(self, row_ids) -> None:
        members = row_ids if isinstance(row_ids, (set, frozenset)) else set(row_ids)
        self._members = members
        if not members:
            self.lo, self.hi = 0, -1
            self.contiguous = True
            return
        self.lo = min(members)
        self.hi = max(members)
        self.contiguous = (self.hi - self.lo + 1) == len(members)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def restrict(self, bucket: Sequence[int]) -> Sequence[int]:
        """The sub-sequence of a sorted ``bucket`` inside the window.

        Returns ``bucket`` itself (same object — callers must not
        mutate) when the window covers it entirely, an empty tuple when
        they are disjoint, and a fresh list otherwise.
        """
        if not bucket:
            return ()
        lo, hi = self.lo, self.hi
        if bucket[-1] < lo or bucket[0] > hi:
            return ()
        start = bisect_left(bucket, lo) if bucket[0] < lo else 0
        stop = bisect_right(bucket, hi) if bucket[-1] > hi else len(bucket)
        if self.contiguous:
            if start == 0 and stop == len(bucket):
                return bucket
            return bucket[start:stop] if stop > start else ()
        members = self._members
        window = bucket if start == 0 and stop == len(bucket) else bucket[start:stop]
        filtered = [r for r in window if r in members]
        if len(filtered) == len(bucket):
            return bucket
        return filtered


class _KernelStats:
    """Mutable per-instance kernel counters (flight-recorder harvest).

    ``probe_rows`` counts candidate rows a join probe touched (index
    bucket survivors of the delta restriction); ``probe_survivors``
    counts the rows that passed the step's equality checks and
    comparison filters and were actually materialized downstream.  The
    two diverge on self-joins and filtered probes — splitting them is
    what lets ``grom profile`` show probe selectivity honestly.
    ``decoded_rows`` counts rows turned back into ``Atom`` objects — the
    boundary decodes (:meth:`ColumnarInstance.to_instance`, iteration,
    pickling) an encoded pipeline should pay once, for its output.
    """

    __slots__ = ("encoded_appends", "probe_rows", "probe_survivors", "decoded_rows")

    def __init__(self) -> None:
        self.encoded_appends = 0
        self.probe_rows = 0
        self.probe_survivors = 0
        self.decoded_rows = 0


class _Table:
    """One relation's struct-of-arrays storage."""

    __slots__ = ("arity", "columns", "generations", "row_ids", "live_count")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.columns: List[array] = [array("q") for _ in range(arity)]
        #: Insertion generation per row; -1 marks a tombstoned row.
        self.generations: array = array("q")
        #: Encoded row tuple -> row id (kept for dead rows too, so a
        #: re-add resurrects the existing row id).
        self.row_ids: Dict[Tuple[int, ...], int] = {}
        self.live_count = 0

    def row_values(self, row_id: int) -> Tuple[int, ...]:
        return tuple(column[row_id] for column in self.columns)

    def copy(self) -> "_Table":
        clone = _Table.__new__(_Table)
        clone.arity = self.arity
        clone.columns = [array("q", column) for column in self.columns]
        clone.generations = array("q", self.generations)
        clone.row_ids = dict(self.row_ids)
        clone.live_count = self.live_count
        return clone


def _live_keys(table: _Table, positions: Tuple[int, ...]) -> Iterator:
    """The code tuple at ``positions`` of every live row, in row-id
    order, scanned by ``zip`` at C level.  Positions ``()`` key every
    live row ``()``; tombstoned rows are skipped (by ``compress`` over
    the generations, also at C level)."""
    generations = table.generations
    if positions:
        keys: Iterator = zip(*[table.columns[i] for i in positions])
    else:
        keys = repeat((), len(generations))
    if table.live_count == len(generations):
        return keys
    return compress(keys, map((0).__le__, generations))


def _live_rows(table: _Table) -> Iterator:
    """Every live row's full code tuple, in row-id order."""
    return _live_keys(table, tuple(range(table.arity)))


def _live_row_ids(table: _Table) -> Iterable[int]:
    """Every live row's id, in order."""
    generations = table.generations
    if table.live_count == len(generations):
        return range(len(generations))
    return compress(count(), map((0).__le__, generations))


class ColumnarInstance:
    """A fact store with the :class:`Instance` surface over int columns.

    Terms encode through a shared :class:`TermPool`; rows are tuples of
    codes.  Fact-level mutations (add, remove, null-map collapse) agree
    with ``Instance`` fact for fact, which the kernel mutation suite
    asserts; on top, every row carries its insertion generation, which
    the chase's delta rounds and the view fixpoint read.
    """

    def __init__(self, schema=None, pool: Optional[TermPool] = None) -> None:
        self.schema = schema
        self.pool = pool if pool is not None else _GLOBAL_POOL
        self._tables: Dict[str, _Table] = {}
        self._current_generation = 0
        # generation -> [(relation, row id)]; entries go stale when a
        # row dies or changes generation — readers filter through the
        # row's generation.
        self._insertion_log: Dict[int, List[Tuple[str, int]]] = defaultdict(list)
        #: The current generation's log list, cached so the append hot
        #: path skips a dict probe; rebound on every generation change.
        self._log_tail: List[Tuple[str, int]] = self._insertion_log[0]
        self._version = 0
        self._relation_versions: Dict[str, int] = defaultdict(int)
        # Encoded hash indexes: (relation, positions) -> key -> [row id].
        self._indexes: Dict[_IndexKey, Dict[Tuple[int, ...], List[int]]] = {}
        self._index_versions: Dict[_IndexKey, int] = {}
        self._live_index_keys: Dict[str, List[_IndexKey]] = {}
        self._key_count_cache: Dict[_IndexKey, Tuple[int, int]] = {}
        self._index_lock = threading.Lock()
        #: Null id -> hint for this instance's nulls (hints are per-run
        #: presentation state, so they live here and not in the pool).
        self._null_hints: Dict[int, str] = {}
        self.index_builds = 0
        self.kernel_stats = _KernelStats()

    # -- pickling (decode, ship values, re-intern on arrival) --------------

    def __getstate__(self):
        """Portable state: decoded rows, not pool-relative codes.

        Encoded codes are only meaningful against the originating
        process's pool, so crossing a pickle boundary (spawned workers,
        result shipping) serializes decoded term rows and re-interns
        against the local pool on arrival.
        """
        tables = {}
        for relation, table in self._tables.items():
            rows = []
            for row_id in range(len(table.generations)):
                generation = table.generations[row_id]
                if generation < 0:
                    continue
                rows.append(
                    (
                        tuple(
                            self.decode_term(column[row_id])
                            for column in table.columns
                        ),
                        generation,
                    )
                )
            tables[relation] = (table.arity, rows)
            self.kernel_stats.decoded_rows += len(rows)
        return {
            "schema": self.schema,
            "current_generation": self._current_generation,
            "version": self._version,
            "null_hints": dict(self._null_hints),
            "tables": tables,
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["schema"])
        self._null_hints = dict(state["null_hints"])
        encode = self.pool.encode
        for relation, (arity, rows) in state["tables"].items():
            table = self._table(relation, arity)
            for terms, generation in rows:
                row = tuple(encode(term) for term in terms)
                row_id = len(table.generations)
                for column, code in zip(table.columns, row):
                    column.append(code)
                table.generations.append(generation)
                table.row_ids[row] = row_id
                table.live_count += 1
                self._insertion_log[generation].append((relation, row_id))
        self._current_generation = state["current_generation"]
        self._log_tail = self._insertion_log[self._current_generation]
        self._version = state["version"]

    # -- encode / decode edges ---------------------------------------------

    def encode_term(self, term: Term) -> int:
        """Intern a term, recording a null's hint on this instance."""
        if isinstance(term, Null):
            if term.hint and term.id not in self._null_hints:
                self._null_hints[term.id] = term.hint
            return -(term.id + 1)
        return self.pool.encode(term)

    def decode_term(self, code: int) -> Term:
        """Decode a code, overlaying this instance's null hints."""
        if code < 0:
            null_id = -code - 1
            return Null(null_id, self._null_hints.get(null_id, ""))
        return self.pool.decode(code)

    def note_null(self, null: Null) -> int:
        """Record a freshly invented null's hint; returns its code."""
        if null.hint and null.id not in self._null_hints:
            self._null_hints[null.id] = null.hint
        return -(null.id + 1)

    def encode_row(self, terms: Sequence[Term]) -> Tuple[int, ...]:
        return tuple(self.encode_term(term) for term in terms)

    def decode_row(self, relation: str, row_id: int) -> Atom:
        table = self._tables[relation]
        self.kernel_stats.decoded_rows += 1
        return Atom(
            relation,
            tuple(self.decode_term(column[row_id]) for column in table.columns),
        )

    def row_id_of(self, fact: Atom) -> Optional[int]:
        """The live row id holding this fact, or None."""
        found = self._try_row_id(fact)
        return found[1] if found is not None else None

    def _try_row_id(self, fact: Atom) -> Optional[Tuple[_Table, int]]:
        """The live row id of a fact, without interning anything."""
        table = self._tables.get(fact.relation)
        if table is None or table.arity != len(fact.terms):
            return None
        try_encode = self.pool.try_encode
        row: List[int] = []
        for term in fact.terms:
            code = try_encode(term)
            if code is None:
                return None
            row.append(code)
        row_id = table.row_ids.get(tuple(row))
        if row_id is None or table.generations[row_id] < 0:
            return None
        return table, row_id

    # -- mutation ----------------------------------------------------------

    def _table(self, relation: str, arity: int) -> _Table:
        table = self._tables.get(relation)
        if table is None:
            table = _Table(arity)
            self._tables[relation] = table
        elif table.arity != arity:
            raise SchemaError(
                f"relation {relation!r} holds arity-{table.arity} rows; "
                f"cannot add an arity-{arity} row (the columnar kernel "
                f"stores one column layout per relation)"
            )
        return table

    def add_encoded(self, relation: str, row: Tuple[int, ...]) -> bool:
        """Insert an encoded row; returns True when it was new.

        The hot path of the chase's enforce phase: no Atom objects, no
        term hashing — a tuple-of-ints dict probe and O(arity) appends.
        Per-call overhead is pared down deliberately (inlined table
        fetch, one ``setdefault`` probe instead of get-then-set, the
        cached insertion-log tail): the e13 micro-bench pins the bulk
        path to a multiple of atom-object inserts.
        """
        table = self._tables.get(relation)
        if table is None or table.arity != len(row):
            table = self._table(relation, len(row))
        generations = table.generations
        row_id = len(generations)
        found = table.row_ids.setdefault(row, row_id)
        if found != row_id:
            if generations[found] >= 0:
                return False
            # Resurrect a tombstoned row: same id, new generation.
            row_id = found
            generations[row_id] = self._current_generation
        else:
            for column, code in zip(table.columns, row):
                column.append(code)
            generations.append(self._current_generation)
        table.live_count += 1
        self._log_tail.append((relation, row_id))
        self._version += 1
        self._relation_versions[relation] += 1
        live = self._live_index_keys.get(relation)
        if live:
            version = self._relation_versions[relation]
            for key in live:
                index = self._indexes[key]
                index_key = tuple(row[i] for i in key[1])
                bucket = index.get(index_key)
                if bucket is None:
                    index[index_key] = [row_id]
                elif row_id > bucket[-1]:
                    bucket.append(row_id)
                else:
                    # Resurrected rows carry their original (smaller)
                    # id; insort keeps the bucket sorted — RowMask's
                    # bisect-slice restriction depends on it.
                    insort(bucket, row_id)
                self._index_versions[key] = version
        self.kernel_stats.encoded_appends += 1
        return True

    def extend_encoded(
        self, relation: str, rows: Sequence[Tuple[int, ...]]
    ) -> int:
        """Bulk-insert encoded rows; returns how many were new.

        The batch counterpart of :meth:`add_encoded`, and the path every
        bulk movement rides (engine seeding via :meth:`ingest`, pickle
        rehydration).  One dedup pass assigns row ids — a single
        ``dict(zip(rows, count()))`` into an empty table, a ``setdefault``
        loop otherwise; the column stores then fill through C-level
        ``array.extend`` over ``map(itemgetter(i), ...)``, so the per-row
        interpreter cost is at most one dict probe instead of the whole
        ``add_encoded`` body.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if not rows:
            return 0
        arity = len(rows[0])
        table = self._tables.get(relation)
        if table is None or table.arity != arity:
            table = self._table(relation, arity)
        generations = table.generations
        generation = self._current_generation
        start_id = len(generations)
        fresh: List[Tuple[int, ...]] = []
        resurrected: List[int] = []
        if not generations and set(map(len, rows)) == {arity}:
            # Into an empty table (seeding) every id is assigned at C
            # level.  A duplicate would keep its *last* id there, so a
            # batch holding any takes the loop below, which keeps the first.
            row_ids = dict(zip(rows, count()))
            if len(row_ids) == len(rows):
                table.row_ids = row_ids
                fresh = list(rows)
        if not fresh:
            setdefault = table.row_ids.setdefault
            fresh_append = fresh.append
            next_id = start_id
            for row in rows:
                if len(row) != arity:
                    raise SchemaError(
                        f"mixed arities in encoded batch for {relation!r}: "
                        f"expected {arity}, got {len(row)}"
                    )
                row_id = setdefault(row, next_id)
                if row_id == next_id:
                    fresh_append(row)
                    next_id += 1
                elif row_id >= start_id:
                    # A duplicate of a row first seen in this very batch —
                    # its id exists only in ``fresh`` so far.
                    continue
                elif generations[row_id] < 0:
                    # Resurrect a tombstoned row: same id, new generation.
                    generations[row_id] = generation
                    resurrected.append(row_id)
        next_id = start_id + len(fresh)
        added = len(fresh) + len(resurrected)
        if not added:
            return 0
        if fresh:
            columns = table.columns
            for position in range(arity):
                columns[position].extend(map(itemgetter(position), fresh))
            generations.extend([generation] * len(fresh))
        table.live_count += added
        log = self._log_tail
        if resurrected:
            log.extend(zip([relation] * len(resurrected), resurrected))
        log.extend(zip([relation] * len(fresh), range(start_id, next_id)))
        self._version += 1
        self._relation_versions[relation] += 1
        live = self._live_index_keys.get(relation)
        if live:
            version = self._relation_versions[relation]
            entries = list(zip(range(start_id, next_id), fresh))
            entries.extend(
                (row_id, table.row_values(row_id)) for row_id in resurrected
            )
            for key in live:
                index = self._indexes[key]
                positions = key[1]
                for row_id, row in entries:
                    index_key = tuple(row[i] for i in positions)
                    bucket = index.get(index_key)
                    if bucket is None:
                        index[index_key] = [row_id]
                    elif row_id > bucket[-1]:
                        bucket.append(row_id)
                    else:
                        # Resurrections re-enter with their old id —
                        # keep the bucket sorted for RowMask slicing.
                        insort(bucket, row_id)
                self._index_versions[key] = version
        self.kernel_stats.encoded_appends += added
        return added

    def add(self, fact: Atom) -> bool:
        """Insert a fact (Atom surface); returns True when it was new."""
        if not fact.is_ground():
            raise SchemaError(f"cannot insert non-ground atom {fact}")
        if self.schema is not None and fact.relation in self.schema:
            self.schema.relation(fact.relation).check_fact(fact.terms)
        elif self.schema is not None:
            raise SchemaError(
                f"fact {fact} does not belong to schema {self.schema.name!r}"
            )
        return self.add_encoded(fact.relation, self.encode_row(fact.terms))

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; returns how many were new.

        A decoded :class:`Instance` seeds in bulk: each relation's value
        rows encode in one pass (in the instance's row order) and land
        through one :meth:`extend_encoded` call, giving the same row ids
        as per-fact :meth:`add`.  A schema-carrying store, and any
        relation whose rows are not plain same-arity value rows
        appendable to a tombstone-free table, take the per-fact path —
        which raises the usual ``SchemaError`` at the offending fact.
        """
        added = 0
        if isinstance(facts, Instance) and self.schema is None:
            for relation in facts.relations():
                rows = facts.rows(relation)
                encoded = self._encode_rows(relation, rows)
                if encoded is None:
                    added += self._add_each(row_fact(relation, row) for row in rows)
                else:
                    added += self.extend_encoded(relation, encoded)
            return added
        return self._add_each(facts)

    def _add_each(self, facts: Iterable[Atom]) -> int:
        added = 0
        for fact in facts:
            if self.add(fact):
                added += 1
        return added

    def _encode_rows(
        self, relation: str, rows: Collection[Tuple[object, ...]]
    ) -> Optional[List[Tuple[int, ...]]]:
        """One relation's value rows as code rows, or None when any of
        them needs the per-fact path (a value that is neither a constant
        value nor a null, mixed arities, a table of another arity or
        with tombstones to resurrect)."""
        arities = set(map(len, rows))
        if len(arities) != 1:
            return None
        (arity,) = arities
        table = self._tables.get(relation)
        if table is not None and (
            table.arity != arity or table.live_count != len(table.generations)
        ):
            return None
        # Distinct values intern once each; hashing a raw value is
        # C-level.  Equal values (1, 1.0, True) share one entry, as they
        # share one pool code.
        encode = self.pool.encode
        codes: Dict[object, int] = {}
        has_nulls = False
        for value in set(chain.from_iterable(rows)):
            if isinstance(value, VALUE_TYPES):
                codes[value] = encode(Constant(value))
            elif isinstance(value, Null):
                codes[value] = -(value.id + 1)
                has_nulls = True
            else:
                return None
        if has_nulls:
            # The first hinted occurrence of a null, in row order, names
            # it (the distinct set above may have kept a hint-less one).
            known = self._null_hints
            for value in chain.from_iterable(rows):
                if isinstance(value, Null) and value.hint and value.id not in known:
                    known[value.id] = value.hint
        if not arity:
            return [()]
        return list(zip(*[map(codes.__getitem__, column) for column in zip(*rows)]))

    def ingest(self, other: "ColumnarInstance") -> int:
        """Bulk-copy another columnar instance's live rows.

        When both instances speak the same pool the rows move as raw
        code tuples — no decode/re-encode round trip — which is how the
        chase seeds its working instance from a materialized semantic
        database.  Null render hints carry over; a foreign-pool instance
        falls back to the Atom surface.  Returns how many rows were new.
        """
        if other.pool is not self.pool:
            return self.add_all(other)
        self._null_hints.update(other._null_hints)
        added = 0
        for relation, table in other._tables.items():
            if table.live_count:
                added += self.extend_encoded(relation, list(_live_rows(table)))
        return added

    def add_row(self, relation: str, *values) -> bool:
        terms = tuple(
            v if isinstance(v, (Constant, Null)) else Constant(v) for v in values
        )
        return self.add(Atom(relation, terms))

    def remove(self, fact: Atom) -> bool:
        """Delete a fact; returns True when it was present."""
        found = self._try_row_id(fact)
        if found is None:
            return False
        table, row_id = found
        table.generations[row_id] = -1
        table.live_count -= 1
        self._version += 1
        self._relation_versions[fact.relation] += 1
        self._drop_indexes(fact.relation)
        return True

    def _drop_indexes(self, relation: str) -> None:
        for key in self._live_index_keys.pop(relation, ()):
            self._indexes.pop(key, None)
            self._index_versions.pop(key, None)

    def bump_generation(self) -> int:
        self._current_generation += 1
        self._log_tail = self._insertion_log[self._current_generation]
        return self._current_generation

    # -- inspection --------------------------------------------------------

    def relations(self) -> List[str]:
        return [
            name for name, table in self._tables.items() if table.live_count
        ]

    def live_row_ids(self, relation: str) -> List[int]:
        """Row ids of the relation's live rows, in row-id order."""
        table = self._tables.get(relation)
        if table is None:
            return []
        return list(_live_row_ids(table))

    def columns(self, relation: str) -> Sequence[array]:
        table = self._tables.get(relation)
        return table.columns if table is not None else ()

    def row_values(self, relation: str, row_id: int) -> Tuple[int, ...]:
        return self._tables[relation].row_values(row_id)

    def facts(self, relation: str) -> FrozenSet[Atom]:
        table = self._tables.get(relation)
        if table is None:
            return frozenset()
        return frozenset(
            self.decode_row(relation, row_id)
            for row_id in self.live_row_ids(relation)
        )

    def rows_since(
        self, generation: int, relation: Optional[str] = None
    ) -> List[Tuple[str, int]]:
        """(relation, row id) pairs inserted at or after ``generation``.

        The encoded generation window: O(|delta|) over the insertion
        log, filtering stale entries through each row's current
        generation.
        """
        out: List[Tuple[str, int]] = []
        seen: Set[Tuple[str, int]] = set()
        tables = self._tables
        for gen in range(max(generation, 0), self._current_generation + 1):
            for entry in self._insertion_log.get(gen, ()):
                rel, row_id = entry
                if relation is not None and rel != relation:
                    continue
                if tables[rel].generations[row_id] != gen or entry in seen:
                    continue
                seen.add(entry)
                out.append(entry)
        return out

    def facts_since(
        self, generation: int, relation: Optional[str] = None
    ) -> List[Atom]:
        return [
            self.decode_row(rel, row_id)
            for rel, row_id in self.rows_since(generation, relation)
        ]

    def generation_of(self, fact: Atom) -> int:
        found = self._try_row_id(fact)
        if found is None:
            return 0
        table, row_id = found
        return table.generations[row_id]

    @property
    def current_generation(self) -> int:
        return self._current_generation

    @property
    def version(self) -> int:
        return self._version

    def __contains__(self, fact: Atom) -> bool:
        return self._try_row_id(fact) is not None

    def __iter__(self) -> Iterator[Atom]:
        for relation, table in self._tables.items():
            generations = table.generations
            for row_id in range(len(generations)):
                if generations[row_id] >= 0:
                    yield self.decode_row(relation, row_id)

    def __len__(self) -> int:
        return sum(table.live_count for table in self._tables.values())

    def size(self, relation: Optional[str] = None) -> int:
        if relation is None:
            return len(self)
        table = self._tables.get(relation)
        return table.live_count if table is not None else 0

    def _live_codes(self) -> Set[int]:
        """Every distinct code in a live row (a C-level scan)."""
        codes: Set[int] = set()
        for table in self._tables.values():
            codes.update(chain.from_iterable(_live_rows(table)))
        return codes

    def nulls(self) -> Set[Null]:
        hints = self._null_hints
        return {
            Null(-code - 1, hints.get(-code - 1, ""))
            for code in self._live_codes()
            if code < 0
        }

    def is_ground_complete(self) -> bool:
        return min(self._live_codes(), default=0) >= 0

    # -- encoded indexes ---------------------------------------------------

    def encoded_index(
        self, relation: str, positions: Sequence[int]
    ) -> Mapping[Tuple[int, ...], List[int]]:
        """Hash index: code tuples at ``positions`` -> live row ids.

        Cached, lazily rebuilt on staleness, and maintained
        incrementally by :meth:`add_encoded` once live — the build side
        of the kernel's hash-join and anti-join probes.
        """
        key: _IndexKey = (relation, tuple(positions))
        if self._index_versions.get(key) == self._relation_versions[relation]:
            return self._indexes[key]
        with self._index_lock:
            if self._index_versions.get(key) == self._relation_versions[relation]:
                return self._indexes[key]
            built: Dict[Tuple[int, ...], List[int]] = {}
            table = self._tables.get(relation)
            if table is not None:
                get = built.get
                for row_id, index_key in zip(
                    _live_row_ids(table), _live_keys(table, key[1])
                ):
                    bucket = get(index_key)
                    if bucket is None:
                        built[index_key] = [row_id]
                    else:
                        bucket.append(row_id)
            self.index_builds += 1
            self._indexes[key] = built
            self._index_versions[key] = self._relation_versions[relation]
            live = self._live_index_keys.setdefault(relation, [])
            if key not in live:
                live.append(key)
            return built

    def key_count(self, relation: str, positions: Sequence[int]) -> int:
        """Distinct code-tuples at ``positions`` (planner selectivity)."""
        key: _IndexKey = (relation, tuple(positions))
        version = self._relation_versions[relation]
        if self._index_versions.get(key) == version:
            return len(self._indexes[key])
        cached = self._key_count_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        table = self._tables.get(relation)
        keys = 0
        if table is not None:
            keys = len(set(_live_keys(table, key[1])))
        self._key_count_cache[key] = (version, keys)
        return keys

    def cached_key_count(
        self, relation: str, positions: Sequence[int]
    ) -> Optional[int]:
        key: _IndexKey = (relation, tuple(positions))
        version = self._relation_versions[relation]
        if self._index_versions.get(key) == version:
            return len(self._indexes[key])
        cached = self._key_count_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        return None

    # -- null handling -----------------------------------------------------

    def apply_null_map_encoded(self, mapping: Mapping[int, int]) -> int:
        """Replace null codes throughout; returns #rows rewritten.

        O(rows x arity) integer substitution with in-place column
        writes.  A rewritten row keeps its generation; collapsing onto a
        live row keeps the earliest generation and logs the row at it,
        so a delta window never misses it.
        """
        if not mapping:
            return 0
        rewritten = 0
        get = mapping.get
        for relation, table in self._tables.items():
            columns = table.columns
            generations = table.generations
            hit_columns = [
                column
                for column in columns
                if any(code < 0 and code in mapping for code in column)
            ]
            if not hit_columns:
                continue
            replacements: List[Tuple[int, Tuple[int, ...], int]] = []
            for row_id in range(len(generations)):
                generation = generations[row_id]
                if generation < 0:
                    continue
                row = tuple(column[row_id] for column in columns)
                new_row = tuple(
                    get(code, code) if code < 0 else code for code in row
                )
                if new_row != row:
                    replacements.append((row_id, new_row, generation))
            if not replacements:
                continue
            # Phase 1: unregister every old row before re-adding any, so
            # rewrites landing on another old row's key work.
            for row_id, _new_row, _generation in replacements:
                del table.row_ids[table.row_values(row_id)]
            # Phase 2: rewrite in place, or collapse onto a live row.
            for row_id, new_row, generation in replacements:
                existing = table.row_ids.get(new_row)
                if existing is not None and generations[existing] >= 0:
                    kept = min(generations[existing], generation)
                    if kept != generations[existing]:
                        self._insertion_log[kept].append((relation, existing))
                        generations[existing] = kept
                    generations[row_id] = -1
                    table.live_count -= 1
                else:
                    for column, code in zip(columns, new_row):
                        column[row_id] = code
                    table.row_ids[new_row] = row_id
                rewritten += 1
            self._version += 1
            self._relation_versions[relation] += 1
            self._drop_indexes(relation)
        return rewritten

    # -- copies / conversion -----------------------------------------------

    def copy(self) -> "ColumnarInstance":
        clone = ColumnarInstance(self.schema, self.pool)
        for relation, table in self._tables.items():
            clone._tables[relation] = table.copy()
        for generation, entries in self._insertion_log.items():
            clone._insertion_log[generation] = list(entries)
        clone._current_generation = self._current_generation
        clone._log_tail = clone._insertion_log[clone._current_generation]
        clone._version = self._version
        clone._null_hints = dict(self._null_hints)
        return clone

    def restricted_to(self, relations: Iterable[str]) -> "ColumnarInstance":
        """A fresh, schemaless copy holding only ``relations``' live rows.

        Rows move encoded, one :meth:`extend_encoded` batch per relation
        (the strip step of the pipeline rides this, so no per-row
        ``add_encoded`` bookkeeping); null hints carry over."""
        keep = set(relations)
        clone = ColumnarInstance(pool=self.pool)
        for relation, table in self._tables.items():
            if relation in keep and table.live_count:
                clone.extend_encoded(relation, list(_live_rows(table)))
        clone._null_hints = dict(self._null_hints)
        return clone

    def to_instance(
        self, schema=None, relations: Optional[Iterable[str]] = None
    ) -> Instance:
        """Decode live rows into an :class:`Instance`.

        The boundary decode: encoded pipelines hand their result to
        callers through exactly one of these.  Codes decode straight to
        the pool's raw values, nulls carry this store's hints, and no
        ``Atom`` is built.  ``relations`` limits the decode to those
        relations (default: all); ``schema`` is attached to the result
        and validates every row, as ``Instance.add`` does.  Counted in
        ``kernel_stats.decoded_rows``."""
        out = Instance(schema)
        values = self.pool.values
        hints = self._null_hints

        def decode(code: int):
            if code > 0:
                return values[code]
            return Null(-code - 1, hints.get(-code - 1, ""))

        keep = None if relations is None else set(relations)
        decoded = 0
        for relation, table in self._tables.items():
            if (keep is not None and relation not in keep) or not table.live_count:
                continue
            if table.arity:
                columns = [
                    map(values.__getitem__ if min(column) > 0 else decode, column)
                    for column in table.columns
                ]
                rows: Iterable = zip(*columns)
                if table.live_count != len(table.generations):
                    rows = compress(rows, map((0).__le__, table.generations))
            else:
                rows = [()]
            out.add_rows(relation, rows)
            decoded += table.live_count
        self.kernel_stats.decoded_rows += decoded
        return out

    def to_atoms(self) -> List[Atom]:
        return list(self)

    def _fact_sets(self) -> Dict[str, FrozenSet[Atom]]:
        return {
            relation: self.facts(relation)
            for relation, table in self._tables.items()
            if table.live_count
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarInstance):
            return self._fact_sets() == other._fact_sets()
        # Cross-kernel comparison (Instance.__eq__ returns
        # NotImplemented for us, so Python reflects here).
        if isinstance(other, Instance):
            theirs = {r: other.facts(r) for r in other.relations()}
            return self._fact_sets() == theirs
        return NotImplemented

    def __hash__(self):  # pragma: no cover - instances are mutable
        raise TypeError("ColumnarInstance is unhashable")

    def __str__(self) -> str:
        lines = []
        for relation in sorted(self._tables):
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
        return (
            f"ColumnarInstance({len(self)} facts, "
            f"{len(self.relations())} relations)"
        )

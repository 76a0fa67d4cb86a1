"""Conjunctive-query evaluation with comparisons and safe negation.

One evaluator serves the Datalog engine (view materialization), the
chase (premise matches and satisfaction probes) and the verifier: a
:class:`~repro.logic.atoms.Conjunction` compiles to a join plan that
runs on the columnar kernel
(:class:`~repro.relational.kernel.ColumnarInstance`).

* :func:`compile_query` turns a conjunction (plus the statically-known
  set of seed-bound variables) into a :class:`CompiledQuery` — a join
  order (greedy, smallest estimated bucket first, rescoring only the
  atoms a pick touches), the index key positions of every step, the
  bind/check schedule for fresh variables, and the point at which each
  comparison becomes checkable.  Compiled queries are cached, so
  repeated evaluation of the same body never re-plans.
* A step is one of two kinds.  A *row-id step* probes one atom: its
  key looks up a bucket of row ids in
  :meth:`~repro.relational.kernel.ColumnarInstance.encoded_index`, whose
  columns bind the atom's fresh variables.  An *intersection step*
  binds one fresh variable that is the only unbound term of two or more
  atoms, occurring once in each: each atom's key looks up a set of
  codes in its *posting*
  (:meth:`~repro.relational.kernel.ColumnarInstance.posting`, the codes
  at every position but the variable's mapped to the codes at that
  one), and the C-level intersection of those sets, in ascending code
  order, is the variable's values; the atoms need no further check.
  The planner takes an intersection whenever one is available (cyclic
  premises such as the triangle ``E(x, y), E(y, z), E(z, x)`` then skip
  the wedges a binary join builds), except as step 0 of a
  delta-anchored plan, whose delta restricts row ids.
* :meth:`CompiledQuery.encoded` lowers the plan onto a term pool: join
  keys become code tuples, and each step runs as a generated
  block-probe driver (:func:`_compile_block_join`).  Nothing is
  materialized past one block, so ``evaluate(limit=N)`` and
  :func:`exists` stop early, and a seeded single-atom probe is one hash
  lookup whatever the relation's size.  A step whose atom has another
  arity than the relation's table matches nothing.
* comparison atoms are applied as soon as their variables are bound;
  negated conjunctions (safe, stratified after unfolding) are evaluated
  last as *not-exists* sub-queries, recursing through nested negation.

The public helpers (:func:`evaluate`, :func:`evaluate_iter`,
:func:`evaluate_delta`, :func:`exists`) take either store.  A plain
:class:`~repro.relational.instance.Instance` is loaded into a fresh
store with one bulk ``add_all`` per call, so callers that query one
instance repeatedly should hold a ``ColumnarInstance`` themselves.
Bindings come back decoded as plain ``dict`` objects;
:func:`bindings_to_substitutions` converts them at the API edge.

:func:`evaluate_delta` is the classical delta-join: matches are
restricted to those using at least one fact from a given set of new
facts.

The drivers are the only join loop: homomorphism search
(:mod:`repro.logic.homomorphism`) runs on them too, and the
row-at-a-time loop they replaced survives only as a test oracle and as
the e14 bench's frozen baseline.

A reference implementation (the original materialized evaluator) is kept:
:func:`reference_evaluator` switches the four public helpers to it.  It
decodes each joined relation's facts in the store's row order and builds
the step's hash index within the call.  The chase and the view fixpoint
run encoded plans and never consult it.  It stays in this module because
``perfbench/run.py --kernel reference`` switches to it to cross-check the
benchmark's result digests; the corpus-equivalence tests run the
set-based chase oracle under it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import TypingError, UnsafeDependencyError
from repro.logic.atoms import Atom, Comparison, Conjunction
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Term, Variable
from repro.relational.instance import Instance, row_fact
from repro.relational.kernel import (
    CodeComparison,
    ColumnarInstance,
    RowMask,
    TermPool,
)

__all__ = [
    "CompiledQuery",
    "compile_query",
    "evaluate",
    "evaluate_iter",
    "evaluate_delta",
    "exists",
    "bindings_to_substitutions",
    "reference_evaluator",
]

Binding = Dict[Variable, Term]
#: What the public helpers query: a boundary value or an encoded store.
Store = Union[Instance, ColumnarInstance]


def _resolve(term: Term, binding: Binding) -> Optional[Term]:
    """The value of a term under a binding, or None for an unbound variable."""
    if isinstance(term, Variable):
        return binding.get(term)
    return term


def _comparison_ready(comparison: Comparison, bound: Set[Variable]) -> bool:
    return all(v in bound for v in comparison.variables())


def _check_comparison(comparison: Comparison, binding: Binding) -> bool:
    left = _resolve(comparison.left, binding)
    right = _resolve(comparison.right, binding)
    ground = Comparison(
        comparison.op,
        comparison.left if left is None else left,
        comparison.right if right is None else right,
    )
    try:
        return ground.evaluate()
    except TypingError:
        # An unsatisfiable comparison (e.g. ordering a null) simply does
        # not match -- mirroring SQL's NULL comparison semantics.
        return False


# ---------------------------------------------------------------------------
# Compiled queries
# ---------------------------------------------------------------------------


class _Step:
    """One compiled row-id join step: probe a hash index, extend the binding.

    ``key_terms`` are the terms at the statically-bound positions (the
    hash-index key); ``binds`` are (position, variable) pairs for the
    first occurrence of each fresh variable; ``checks`` are
    (position, first_position) pairs for repeated occurrences of a fresh
    variable within the same atom, which need an equality check instead
    of a bind; ``comparisons`` become checkable once this step's
    variables are bound.  ``arity`` is the atom's: only a table of that
    arity can match.
    """

    __slots__ = ("relation", "arity", "positions", "key_terms", "binds", "checks", "comparisons")

    def __init__(
        self,
        relation: str,
        arity: int,
        positions: Tuple[int, ...],
        key_terms: Tuple[Term, ...],
        binds: Tuple[Tuple[int, Variable], ...],
        checks: Tuple[Tuple[int, int], ...],
        comparisons: Tuple[Comparison, ...],
    ) -> None:
        self.relation = relation
        self.arity = arity
        self.positions = positions
        self.key_terms = key_terms
        self.binds = binds
        self.checks = checks
        self.comparisons = comparisons

    @property
    def probes(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """The (relation, key positions) this step looks up."""
        return ((self.relation, self.positions),)

    @property
    def fresh(self) -> Tuple[Variable, ...]:
        """The variables this step binds."""
        return tuple(v for _p, v in self.binds)


class _IntersectStep:
    """One compiled intersection step: bind ``variable`` from the
    intersection of several atoms' postings.

    ``variable`` is the only unbound term of each atom in ``parts`` and
    occurs once in each.  A part is (relation, arity, positions,
    key_terms): ``positions`` are every position but the variable's
    (the posting key), ``key_terms`` the terms there.  The atoms need no
    further probe or check; ``comparisons`` become checkable once the
    variable is bound.
    """

    __slots__ = ("variable", "parts", "comparisons")

    def __init__(
        self,
        variable: Variable,
        parts: Tuple[Tuple[str, int, Tuple[int, ...], Tuple[Term, ...]], ...],
        comparisons: Tuple[Comparison, ...],
    ) -> None:
        self.variable = variable
        self.parts = parts
        self.comparisons = comparisons

    @property
    def probes(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """The (relation, posting key positions) this step looks up."""
        return tuple((relation, positions) for relation, _a, positions, _k in self.parts)

    @property
    def fresh(self) -> Tuple[Variable, ...]:
        """The variable this step binds."""
        return (self.variable,)


def _key_parts(key_terms: Tuple[Term, ...], slot_of, pool: TermPool):
    """(is_slot, value) pairs: a slot for a bound variable, a code for a literal."""
    return tuple(
        (True, slot_of[t]) if isinstance(t, Variable) else (False, pool.encode(t))
        for t in key_terms
    )


class _EncodedStep:
    """A row-id join step lowered onto the columnar kernel.

    ``key_parts`` are (is_slot, value) pairs: a slot read for bound
    variables, a pre-interned code for literals.  ``binds`` write column
    values into slots; ``checks`` compare two columns of the probed row;
    ``comparisons`` are :class:`CodeComparison` tests on codes, which
    the driver applies as comprehension filters.  ``driver`` is the
    generated block-probe function for this step's shape and
    ``literals`` the literal codes it reads (see
    :func:`_compile_block_join`).
    """

    __slots__ = (
        "relation",
        "arity",
        "positions",
        "key_parts",
        "binds",
        "checks",
        "comparisons",
        "driver",
        "literals",
    )

    def __init__(self, step: _Step, slot_of, pool: TermPool, width: int) -> None:
        self.relation = step.relation
        self.arity = step.arity
        self.positions = step.positions
        self.key_parts = _key_parts(step.key_terms, slot_of, pool)
        self.binds = tuple((p, slot_of[v]) for p, v in step.binds)
        self.checks = step.checks
        self.comparisons = tuple(
            CodeComparison(c, slot_of, pool) for c in step.comparisons
        )
        self.driver, self.literals = _compile_block_join(
            width,
            (self.key_parts,),
            self.binds,
            self.checks,
            self.comparisons,
        )

    def join(self, blocks, store, delta: Optional[RowMask]):
        """Run the driver over a block stream."""
        if store.arity(self.relation) != self.arity:
            # No table for this relation yet, or one of another arity:
            # nothing matches (and the driver, which hoists column
            # locals up front, must not index a missing column).
            return iter(())
        pool = store.pool
        return self.driver(
            blocks,
            store.encoded_index(self.relation, self.positions).get,
            store.columns(self.relation),
            delta,
            store.kernel_stats,
            pool.values,
            pool.is_str,
            self.literals,
        )


class _EncodedIntersectStep:
    """An intersection step lowered onto the columnar kernel.

    ``slot`` is the bound variable's slot; ``parts`` are (relation,
    arity, positions, key_parts) per atom, probing
    :meth:`ColumnarInstance.posting`; ``comparisons``, ``driver`` and
    ``literals`` are as on :class:`_EncodedStep`.
    """

    __slots__ = ("slot", "parts", "comparisons", "driver", "literals")

    def __init__(self, step: _IntersectStep, slot_of, pool: TermPool, width: int) -> None:
        self.slot = slot_of[step.variable]
        self.parts = tuple(
            (relation, arity, positions, _key_parts(key_terms, slot_of, pool))
            for relation, arity, positions, key_terms in step.parts
        )
        self.comparisons = tuple(
            CodeComparison(c, slot_of, pool) for c in step.comparisons
        )
        self.driver, self.literals = _compile_block_join(
            width,
            tuple(key_parts for *_part, key_parts in self.parts),
            ((None, self.slot),),
            (),
            self.comparisons,
        )

    def join(self, blocks, store, delta: Optional[RowMask]):
        """Run the driver over a block stream (``delta`` is always None:
        a delta restricts row ids, and this step reads none)."""
        for relation, arity, _positions, _key_parts in self.parts:
            if store.arity(relation) != arity:
                return iter(())
        pool = store.pool
        return self.driver(
            blocks,
            tuple(
                store.posting(relation, positions).get
                for relation, _arity, positions, _key_parts in self.parts
            ),
            store.kernel_stats,
            pool.values,
            pool.is_str,
            self.literals,
        )


#: Block size for the generated probe drivers: large enough that the
#: comprehension amortizes interpreter dispatch, small enough that
#: ``exists()``/limit consumers never materialize more than one block
#: past their stopping point.
_PROBE_BLOCK = 512

#: Generated drivers keyed by step shape — width, key slots, bind /
#: check layout, comparison operators and operand slots.  Literal codes
#: are not part of the shape (they arrive as the driver's ``_lits``
#: argument), so the cache holds one driver per shape however many
#: constants the queries use, and a lowering that hits it renders no
#: source.
_DRIVER_CACHE: Dict[tuple, object] = {}


def _compile_block_join(
    width: int,
    keys: Tuple[Tuple[Tuple[bool, int], ...], ...],
    binds: Tuple[Tuple[Optional[int], int], ...],
    checks: Tuple[Tuple[int, int], ...],
    comparisons: Tuple[CodeComparison, ...],
) -> Tuple[object, Tuple[int, ...]]:
    """Generate the block-probe driver for one join-step shape.

    Returns the driver and the literal codes to pass it as ``_lits``.
    ``keys`` holds one key (a tuple of ``(is_slot, value)`` parts) per
    index the step reads.  A *row-id step* has one key: the driver
    looks up a bucket of row ids in
    :meth:`~repro.relational.kernel.ColumnarInstance.encoded_index` and
    ``binds`` are (column position, slot) pairs.  An *intersection step*
    has one key per atom and one bind, ``(None, slot)``: the driver
    looks up each atom's set of codes in
    :meth:`~repro.relational.kernel.ColumnarInstance.posting`, and
    ``sorted(a & b ...)`` — a C-level set intersection, emitted in
    ascending code order so the output depends only on the store's
    contents — gives the slot's values.  The atoms need no further
    check.

    The driver is ordinary Python compiled from a per-shape source
    string, and both its input and its output streams carry *blocks*
    (lists of result tuples), so the generator hand-off between join
    steps costs one resume per ~:data:`_PROBE_BLOCK` rows instead of
    one per row.  The hot inner loop is a single list comprehension
    whose element is a *tuple display* over hoisted column locals — a
    bucket of candidate rows (or an intersection's codes) turns into
    output row tuples in one bytecode pass, no per-row function calls,
    no per-row slot stores.  Checks and comparisons become
    comprehension filters over column and slot locals, so a rejected
    row never becomes a tuple; delta restriction happens once per
    bucket through :meth:`RowMask.restrict` (bucket identity / bisect
    slice) instead of a per-row membership scan.  Literal key parts and
    comparison operands are names bound from ``_lits``, so the source —
    and the cache entry — depends only on the shape.  Output blocks
    flush at ``_PROBE_BLOCK`` rows, so lazy ``exists()``/limit consumers
    never materialize more than one block past their stopping point.

    Counters: a row-id step adds to ``probe_rows`` each bucket's rows
    as its chunks are examined, so a consumer that stops early is
    charged only for the chunks it consumed; an intersection step adds
    the length of the smallest posting it read (what the ``&`` scans).
    Both add to ``probe_survivors`` the rows they emit.

    Row-id drivers measured ~2–3× the row-at-a-time loop they replaced
    (a frozen copy is the e14 bench's baseline) across fan-outs of
    4–64, and wider still under delta restriction.
    """
    # Literal codes in the order the source names them: key parts,
    # then each comparison's left and right operand.
    literals = tuple(
        [value for key_parts in keys for is_slot, value in key_parts if not is_slot]
        + [
            value
            for c in comparisons
            for is_slot, value in (c.left, c.right)
            if not is_slot
        ]
    )
    # The shape the source depends on: slots, not literal values (only
    # a literal's sign changes an order comparison's source).
    shape = (
        width,
        tuple(tuple(value if is_slot else None for is_slot, value in kp) for kp in keys),
        binds,
        checks,
        tuple(
            (c.op,) + tuple(
                (is_slot, value if is_slot else value < 0)
                for is_slot, value in (c.left, c.right)
            )
            for c in comparisons
        ),
    )
    driver = _DRIVER_CACHE.get(shape)
    if driver is None:
        driver = _DRIVER_CACHE[shape] = _generate_driver(
            width, keys, binds, checks, comparisons, literals
        )
    return driver, literals


def _generate_driver(
    width: int,
    keys: Tuple[Tuple[Tuple[bool, int], ...], ...],
    binds: Tuple[Tuple[Optional[int], int], ...],
    checks: Tuple[Tuple[int, int], ...],
    comparisons: Tuple[CodeComparison, ...],
    expected_literals: Tuple[int, ...],
) -> object:
    """Render and compile the driver source for one step shape (see
    :func:`_compile_block_join`)."""
    literals: List[int] = []

    def literal(code: int) -> str:
        literals.append(code)
        return f"_k{len(literals) - 1}"

    key_exprs = [
        "("
        + "".join(
            (f"_values[{value}], " if is_slot else f"{literal(value)}, ")
            for is_slot, value in key_parts
        )
        + ")"
        for key_parts in keys
    ]
    intersect = any(position is None for position, _slot in binds)
    bound_slot_columns = {slot: position for position, slot in binds}
    columns_used = sorted(
        {position for position, _slot in binds if position is not None}
        | {position for pair in checks for position in pair}
    )
    hoisted_slots = [
        slot for slot in range(width) if slot not in bound_slot_columns
    ]

    def slot_expr(slot: int) -> str:
        """A slot of the output row: the candidate row's column read (a
        row-id step) or the intersection's code ``_r`` when this step
        binds it, else the input row's value hoisted into a local."""
        if slot in bound_slot_columns:
            position = bound_slot_columns[slot]
            return "_r" if position is None else f"_c{position}[_r]"
        return f"_v{slot}"

    # Rows are *tuple* displays: nothing downstream mutates a built row
    # (each step builds fresh ones), so skipping the list->tuple
    # conversion at the pipeline edge is free.
    row_elems = "(" + "".join(f"{slot_expr(slot)}, " for slot in range(width)) + ")"
    filters = "".join(
        f" if _c{position}[_r] == _c{bound_at}[_r]"
        for position, bound_at in checks
    ) + "".join(f" if {c.expression(slot_expr, literal)}" for c in comparisons)

    def flush(indent: str) -> List[str]:
        """Account a full output block and hand it downstream.  An
        intersection driver counts ``probe_rows`` in a local and moves
        it to the stats here, before each yield, so a consumer that
        stops early has been charged for what it read."""
        moved = (
            [f"{indent}    _stats.probe_rows += _probed", f"{indent}    _probed = 0"]
            if intersect
            else []
        )
        return (
            [f"{indent}if _out:"]
            + moved
            + [
                f"{indent}    _stats.probe_survivors += len(_out)",
                f"{indent}    yield _out",
                f"{indent}    _out = []",
            ]
        )

    lines = [
        "def _drive(_stream, _lookup, _columns, _mask, _stats, _vals, _isstr, _lits):"
        if not intersect
        else "def _drive(_stream, _lookups, _stats, _vals, _isstr, _lits):",
    ]
    if literals:
        lines.append("    " + "".join(f"_k{i}, " for i in range(len(literals))) + "= _lits")
    lines += [f"    _c{p} = _columns[{p}]" for p in columns_used]
    if intersect:
        lines.append(
            "    " + "".join(f"_g{i}, " for i in range(len(keys))) + "= _lookups"
        )
    else:
        lines.append("    _restrict = None if _mask is None else _mask.restrict")
    if intersect:
        lines.append("    _probed = 0")
    lines += [
        "    _out = []",
        "    for _block in _stream:",
        "        for _values in _block:",
    ]
    if intersect:
        for i, key_expr in enumerate(key_exprs):
            lines += [
                f"            _s{i} = _g{i}({key_expr})",
                f"            if not _s{i}:",
                "                continue",
            ]
        sets = [f"_s{i}" for i in range(len(keys))]
        # Most intersections of a selective join are empty: skip the
        # sort and the hoists for them.
        lines += [
            f"            _probed += min({', '.join(f'len({s})' for s in sets)})",
            f"            _rows = {' & '.join(sets)}",
            "            if not _rows:",
            "                continue",
            "            _rows = sorted(_rows)",
        ]
    else:
        lines += [
            f"            _rows = _lookup({key_exprs[0]})",
            "            if not _rows:",
            "                continue",
            "            if _restrict is not None:",
            "                _rows = _restrict(_rows)",
            "                if not _rows:",
            "                    continue",
        ]
    lines += [
        f"            _v{slot} = _values[{slot}]" for slot in hoisted_slots
    ]
    lines += [
        "            _n = len(_rows)",
        f"            if _n <= {_PROBE_BLOCK}:",
    ]
    if not intersect:
        lines.append("                _stats.probe_rows += _n")
    lines += [
        f"                _out += [{row_elems} for _r in _rows{filters}]",
        "            else:",
        "                _i = 0",
        "                while _i < _n:",
        f"                    _chunk = _rows[_i:_i + {_PROBE_BLOCK}]",
        f"                    _i += {_PROBE_BLOCK}",
    ]
    if not intersect:
        lines.append("                    _stats.probe_rows += len(_chunk)")
    lines += [
        f"                    _out += [{row_elems} "
        f"for _r in _chunk{filters}]",
        f"                    if len(_out) >= {_PROBE_BLOCK}:",
    ]
    lines += flush("                        ")
    lines += [
        f"            if len(_out) >= {_PROBE_BLOCK}:",
    ]
    lines += flush("                ")
    lines += [
        "    if _out:",
    ]
    lines += flush("        ")
    if intersect:
        lines.append("    _stats.probe_rows += _probed")
    # The caller passes ``expected_literals`` as ``_lits``: the names
    # rendered here must bind them in the same order.
    assert tuple(literals) == expected_literals
    namespace: Dict[str, object] = {}
    exec(compile("\n".join(lines), "<block-join>", "exec"), namespace)  # noqa: S102
    return namespace["_drive"]


class _EncodedPlan:
    """A :class:`CompiledQuery` lowered onto one term pool.

    Bindings become fixed-width slot arrays over ``varlist`` (the
    query's bound and fresh variables in name order — the same order the
    chase's canonical trigger/varlist sorting uses), join keys become
    tuples of ints probing :meth:`ColumnarInstance.encoded_index`, and
    negations become pre-filled recursive encoded plans.  The join order
    and schedules are the compile's; the reference evaluator is the
    differential check on them.
    """

    __slots__ = (
        "query",
        "pool",
        "varlist",
        "slot_of",
        "width",
        "steps",
        "seed_comparisons",
        "negations",
        "_single_probe",
        "_fill_cache",
    )

    def __init__(self, query: "CompiledQuery", pool: TermPool) -> None:
        self.query = query
        self.pool = pool
        self.varlist: Tuple[Variable, ...] = tuple(
            sorted(query.bound | query._fresh)
        )
        self.slot_of: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.varlist)
        }
        self.width = len(self.varlist)
        self.seed_comparisons = tuple(
            CodeComparison(c, self.slot_of, pool).check
            for c in query.seed_comparisons
        )
        self.steps = tuple(
            (_EncodedStep if isinstance(step, _Step) else _EncodedIntersectStep)(
                step, self.slot_of, pool, self.width
            )
            for step in query.steps
        )
        # Each negation evaluates as not-exists of an encoded sub-plan
        # seeded with every outer variable.
        outer = frozenset(self.varlist)
        negations = []
        for negation in query.negations:
            inner = compile_query(negation.inner, outer).encoded(pool)
            fill = tuple(
                (inner.slot_of[v], slot) for v, slot in self.slot_of.items()
            )
            negations.append((inner, fill))
        self.negations = tuple(negations)
        # Fast-probe eligibility: a single atom with no negation, no
        # repeated fresh variable and no post-seed comparison — then
        # existence is exactly hash-index key membership (the probe side
        # of a hash anti-join), independent of relation size.
        steps = query.steps
        self._single_probe = (
            len(steps) == 1
            and isinstance(steps[0], _Step)
            and not query.negations
            and not query.unscheduled
            and not steps[0].checks
            and not steps[0].comparisons
        )
        # outer-varlist tuple -> ((inner slot, outer row index), ...) for
        # correlated probes from the chase (satisfaction checks).
        self._fill_cache: Dict[Tuple[Variable, ...], Tuple[Tuple[int, int], ...]] = {}

    def fill_for(
        self, outer_varlist: Tuple[Variable, ...]
    ) -> Tuple[Tuple[int, int], ...]:
        """How to seed this plan from a row aligned to ``outer_varlist``."""
        fill = self._fill_cache.get(outer_varlist)
        if fill is None:
            fill = tuple(
                (self.slot_of[v], i)
                for i, v in enumerate(outer_varlist)
                if v in self.slot_of
            )
            self._fill_cache[outer_varlist] = fill
        return fill

    # -- evaluation --------------------------------------------------------

    def rows(
        self,
        store,
        seed_values: Iterable[Tuple[int, int]] = (),
        delta=None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily yield result rows (code tuples aligned to ``varlist``).

        Per-row convenience over :meth:`blocks` — hot materializing
        consumers should drain blocks directly (one generator resume
        per block instead of per row).
        """
        for block in self.blocks(store, seed_values, delta):
            yield from block

    def blocks(
        self,
        store,
        seed_values: Iterable[Tuple[int, int]] = (),
        delta=None,
    ) -> Iterator[List[Tuple[int, ...]]]:
        """Lazily yield result rows in blocks of ~:data:`_PROBE_BLOCK`.

        ``seed_values`` are (slot, code) pairs for the query's bound
        variables; ``delta`` restricts the first join step to the given
        row ids — a :class:`RowMask` or any row-id collection (wrapped
        here, so hot callers should pre-build one mask per pass).
        Consumers that mutate the store while iterating must
        materialize first (the chase does).  A delta needs a plan whose
        first step is a row-id step: compile with ``first_atom``.
        """
        if delta is not None:
            if self.steps and not isinstance(self.steps[0], _EncodedStep):
                raise ValueError(
                    "a delta restricts row ids, but this plan starts with an "
                    "intersection step; compile it with first_atom"
                )
            if not delta:
                return
            if not isinstance(delta, RowMask):
                delta = RowMask(delta)
        values = [0] * self.width
        for slot, code in seed_values:
            values[slot] = code
        for check in self.seed_comparisons:
            if not check(values):
                return
        # Seed the pipeline with the row as a tuple: the drivers only
        # read their input rows, and downstream (negation probes,
        # consumers) then sees tuples uniformly — even on zero-step
        # plans where the seed block reaches _finalize untouched.
        blocks: Iterator[List[Tuple[int, ...]]] = iter(([tuple(values)],))
        # Streams between steps carry *blocks* of slot-array rows, so the
        # per-step generator hand-off costs one resume per block.
        for step_index, step in enumerate(self.steps):
            blocks = step.join(blocks, store, delta if step_index == 0 else None)
        yield from self._finalize(blocks, store)

    def _finalize(
        self, blocks: Iterator[List[Tuple[int, ...]]], store
    ) -> Iterator[List[Tuple[int, ...]]]:
        """Negation filter over the block pipeline, block in, block out.

        The common shape — no negations — passes blocks straight
        through: the drivers already build result tuples, so the only
        per-block cost here is one generator resume.
        """
        unscheduled = self.query.unscheduled
        negations = self.negations
        if unscheduled:
            for block in blocks:
                if block:
                    # Safety should prevent this; raised only when a
                    # row actually reaches the unbound comparisons,
                    # matching the materialized evaluator.
                    raise UnsafeDependencyError(
                        f"comparisons {list(unscheduled)} have unbound "
                        f"variables in {self.query.body}"
                    )
            return
        if not negations:
            yield from blocks
            return
        for block in blocks:
            kept = [
                values
                for values in block
                if not any(
                    inner.exists_filled(store, fill, values)
                    for inner, fill in negations
                )
            ]
            if kept:
                yield kept

    def exists_filled(self, store, fill, outer_values) -> bool:
        """Not-exists probe seeded from an outer slot array via ``fill``
        ((inner slot, outer index) pairs)."""
        values = [0] * self.width
        for inner_slot, outer_index in fill:
            values[inner_slot] = outer_values[outer_index]
        return self.exists_values(store, values)

    def exists_values(self, store, values) -> bool:
        """Whether at least one row extends the pre-filled slot array.

        Short-circuits at the first surviving row: the single-probe
        fast path is one hash lookup, and the block pipeline stops
        after its first flushed block.
        """
        for check in self.seed_comparisons:
            if not check(values):
                return False
        if self._single_probe:
            step = self.steps[0]
            if store.arity(step.relation) != step.arity:
                return False
            key = tuple(values[v] if s else v for s, v in step.key_parts)
            return key in store.encoded_index(step.relation, step.positions)
        blocks: Iterator[List[Tuple[int, ...]]] = iter(([tuple(values)],))
        for step in self.steps:
            blocks = step.join(blocks, store, None)
        for block in self._finalize(blocks, store):
            if block:
                return True
        return False


#: One entry of a join order: an atom index (a row-id step) or an
#: intersection — the variable it binds and the atom indexes it reads.
_OrderEntry = Union[int, Tuple[Variable, Tuple[int, ...]]]


def _atom_score(
    atom: Atom, positions: Tuple[int, ...], instance: Optional[ColumnarInstance]
) -> Tuple[float, int]:
    """The greedy planner's cost of probing ``atom`` next on its bound
    ``positions``: the estimated bucket size, then more bound positions
    first."""
    if instance is None or instance.arity(atom.relation) != len(atom.terms):
        # No statistics, or a table this atom cannot match (missing or
        # of another arity: an empty step).
        return (0.0, -len(positions))
    size = instance.size(atom.relation)
    if positions:
        # Estimated bucket size of a probe on these positions: relation
        # size over distinct keys.  A near-key probe (T_Product on pid:
        # ~1) beats a low-cardinality one (T_Store on (store, location):
        # ~n/stores) even though the latter binds more positions.
        keys = instance.key_count(atom.relation, positions)
        return (size / keys if keys else 0.0, -len(positions))
    return (float(size), -len(positions))


def _greedy_order(
    atoms: Sequence[Atom],
    bound: Iterable[Variable],
    instance: Optional[ColumnarInstance],
    first_atom: Optional[int] = None,
) -> List[_OrderEntry]:
    """The join order: ``first_atom`` (a delta anchor) first if given,
    then greedily either an intersection or the cheapest atom.

    An intersection is taken whenever one is available: a fresh
    variable that is the only unbound term of two or more remaining
    atoms, occurring once in each (with several, the one whose lowest
    atom index is lowest).  Otherwise the pick is the atom with the
    lowest :func:`_atom_score` under the variables bound so far, the
    lower atom index on a tie.  A pick changes the score only of atoms
    sharing a variable it binds, so only those are rescored: scores sit
    in a heap with stale entries skipped, and a body of ``n`` atoms
    costs O(n log n) heap operations and at most one ``key_count`` per
    atom and occurrence of a variable.  Variables are numbered once, so
    the bookkeeping hashes ints, not terms.
    """
    rest = [a for a in range(len(atoms)) if a != first_atom]
    if len(rest) <= 1:
        # No choice to make, and an intersection needs two atoms.
        return ([] if first_atom is None else [first_atom]) + rest
    ids: Dict[Variable, int] = {}
    # Per atom, each term's variable number, or -1 for a constant.
    occurrences = [
        [ids.setdefault(t, len(ids)) if isinstance(t, Variable) else -1 for t in atom.terms]
        for atom in atoms
    ]
    variables = list(ids)
    is_bound = [False] * len(variables)
    for v in bound:
        if v in ids:
            is_bound[ids[v]] = True
    order: List[_OrderEntry] = []
    remaining = set(range(len(atoms)))
    if first_atom is not None:
        remaining.remove(first_atom)
        order.append(first_atom)
        for i in occurrences[first_atom]:
            if i >= 0:
                is_bound[i] = True
    # Per remaining atom, its unbound variables and their occurrences;
    # per variable, the remaining atoms holding it.
    unbound: Dict[int, Dict[int, int]] = {}
    holders: List[List[int]] = [[] for _ in variables]
    for a in remaining:
        counts: Dict[int, int] = {}
        for i in occurrences[a]:
            if i >= 0 and not is_bound[i]:
                counts[i] = counts.get(i, 0) + 1
        unbound[a] = counts
        for i in counts:
            holders[i].append(a)
    # Variable -> remaining atoms in which it is the sole unbound term,
    # occurring once; ``ready`` holds the variables with two or more.
    sole: Dict[int, Set[int]] = {}
    ready: Set[int] = set()
    scores: Dict[int, Tuple[float, int]] = {}
    heap: List[Tuple[float, int, int]] = []

    def refresh(a: int) -> None:
        counts = unbound[a]
        if len(counts) == 1:
            ((i, occurring),) = counts.items()
            if occurring == 1:
                members = sole.setdefault(i, set())
                members.add(a)
                if len(members) >= 2:
                    ready.add(i)
        if len(remaining) > 1:
            positions = tuple(
                p for p, i in enumerate(occurrences[a]) if i < 0 or is_bound[i]
            )
            score = scores[a] = _atom_score(atoms[a], positions, instance)
            heappush(heap, (score[0], score[1], a))

    def bind(fresh: Iterable[int]) -> None:
        touched: Set[int] = set()
        for i in fresh:
            if is_bound[i]:
                continue
            is_bound[i] = True
            sole.pop(i, None)
            ready.discard(i)
            for a in holders[i]:
                if a in remaining:
                    del unbound[a][i]
                    touched.add(a)
        for a in touched:
            refresh(a)

    for a in remaining:
        refresh(a)
    while remaining:
        if ready:
            i = min(ready, key=lambda i: min(sole[i]))
            members = tuple(sorted(sole[i]))
            remaining.difference_update(members)
            order.append((variables[i], members))
            bind((i,))
            continue
        if len(remaining) == 1:
            # Nothing to choose between: no score needed.
            order.append(remaining.pop())
            break
        estimate, positions, best = heappop(heap)
        if best not in remaining or scores[best] != (estimate, positions):
            continue
        remaining.remove(best)
        order.append(best)
        bind([i for i in occurrences[best] if i >= 0])
    return order


def _lay_out(
    atoms: Sequence[Atom],
    bound: Iterable[Variable],
    order: Sequence[_OrderEntry],
    pending: Sequence[Comparison],
) -> Tuple[List[Union[_Step, _IntersectStep]], List[Comparison]]:
    """Each step's statics for a fixed order: key positions, binds,
    checks, and the comparisons that become checkable at it.  Returns
    the steps and the comparisons no step could schedule."""
    bound_now: Set[Variable] = set(bound)
    pending = list(pending)
    steps: List[Union[_Step, _IntersectStep]] = []
    for entry in order:
        if isinstance(entry, int):
            atom = atoms[entry]
            positions: List[int] = []
            key_terms: List[Term] = []
            binds: List[Tuple[int, Variable]] = []
            checks: List[Tuple[int, int]] = []
            first_position: Dict[Variable, int] = {}
            for i, t in enumerate(atom.terms):
                if not isinstance(t, Variable) or t in bound_now:
                    positions.append(i)
                    key_terms.append(t)
                elif t in first_position:
                    checks.append((i, first_position[t]))
                else:
                    first_position[t] = i
                    binds.append((i, t))
            bound_now |= first_position.keys()
        else:
            variable, members = entry
            parts = []
            for index in members:
                terms = atoms[index].terms
                key = [i for i, t in enumerate(terms) if t != variable]
                parts.append(
                    (
                        atoms[index].relation,
                        len(terms),
                        tuple(key),
                        tuple(terms[i] for i in key),
                    )
                )
            bound_now.add(variable)
        ready = tuple(c for c in pending if _comparison_ready(c, bound_now))
        pending = [c for c in pending if c not in ready]
        if isinstance(entry, int):
            steps.append(
                _Step(
                    atom.relation,
                    len(atom.terms),
                    tuple(positions),
                    tuple(key_terms),
                    tuple(binds),
                    tuple(checks),
                    ready,
                )
            )
        else:
            steps.append(_IntersectStep(variable, tuple(parts), ready))
    return steps, pending


class CompiledQuery:
    """A conjunction compiled against a set of statically-bound variables.

    The compile captures everything that does not depend on the data:
    the join order (:func:`_greedy_order`), each step's index-key
    positions, the fresh-variable bind/check schedule, and the
    comparison schedule (:func:`_lay_out`).  A step is a row-id step
    (:class:`_Step`) or an intersection step (:class:`_IntersectStep`).
    Evaluating is then a chain of index probes with no per-call
    planning.

    Plans are data-independent for correctness; relation sizes are only a
    tie-break heuristic captured at compile time, so one compiled query
    is safely reusable across instances and chase rounds.
    """

    __slots__ = (
        "body",
        "bound",
        "relations",
        "steps",
        "seed_comparisons",
        "unscheduled",
        "negations",
        "_fresh",
        "_encoded",
    )

    def __init__(
        self,
        body: Conjunction,
        bound: Iterable[Variable] = (),
        instance: Optional[ColumnarInstance] = None,
        first_atom: Optional[int] = None,
    ) -> None:
        self.body = body
        self.bound = frozenset(bound)
        self.relations = frozenset(a.relation for a in body.atoms)

        self.seed_comparisons = tuple(
            c for c in body.comparisons if _comparison_ready(c, self.bound)
        )
        order = _greedy_order(body.atoms, self.bound, instance, first_atom)
        steps, pending = _lay_out(
            body.atoms,
            self.bound,
            order,
            [c for c in body.comparisons if c not in self.seed_comparisons],
        )
        self.steps = tuple(steps)
        self.unscheduled = tuple(pending)
        self.negations = body.negations
        # Variables the plan treats as fresh (bound by a join step).  A
        # runtime seed may not bind any of these: the plan would silently
        # overwrite the seed value instead of equality-checking it.
        self._fresh = frozenset(v for step in steps for v in step.fresh)
        # Lazily-lowered columnar twin of this plan (pool-specific).
        self._encoded: Optional[_EncodedPlan] = None

    @property
    def intersections(self) -> int:
        """How many of the plan's steps are intersection steps."""
        return sum(isinstance(step, _IntersectStep) for step in self.steps)

    def encoded(self, pool: TermPool) -> _EncodedPlan:
        """This plan lowered onto ``pool`` (cached; rebuilt only if a
        different pool shows up, which only tests do)."""
        plan = self._encoded
        if plan is None or plan.pool is not pool:
            plan = _EncodedPlan(self, pool)
            self._encoded = plan
        return plan

    # -- evaluation --------------------------------------------------------

    def bindings(
        self,
        instance: Store,
        seed: Optional[Binding] = None,
        delta: Optional[Set[Atom]] = None,
    ) -> Iterator[Binding]:
        """Lazily yield every binding of the body's variables.

        ``delta`` restricts the *first* join step to the given facts (the
        anchor of a delta-evaluation plan).  A plain ``Instance`` is
        loaded into a store first.  Consumers that mutate the store while
        iterating must materialize first; the chase does.
        """
        store = _store(instance)
        plan = self.encoded(store.pool)
        seed_values = self._seed_values(store, plan, seed)
        delta_rows: Optional[Set[int]] = None
        if delta is not None:
            delta_rows = set()
            if self.steps and isinstance(self.steps[0], _Step):
                first_relation = self.steps[0].relation
                row_id_of = store.row_id_of
                for fact in delta:
                    if fact.relation == first_relation:
                        row_id = row_id_of(fact)
                        if row_id is not None:
                            delta_rows.add(row_id)
        varlist = plan.varlist
        decode = store.decode_term
        for row in plan.rows(store, seed_values, delta_rows):
            yield {v: decode(code) for v, code in zip(varlist, row)}

    def _seed_values(self, store, plan: _EncodedPlan, seed: Optional[Binding]):
        """Encode a decoded seed as (slot, code) pairs.  A seed may not
        bind a variable the plan treats as fresh: the plan would silently
        overwrite the seed value instead of equality-checking it."""
        if not seed:
            return ()
        if not self._fresh.isdisjoint(seed):
            raise UnsafeDependencyError(
                f"seed binds {sorted(v.name for v in self._fresh & seed.keys())} "
                f"which this plan was compiled to treat as fresh; recompile "
                f"with the seed's variables in `bound`"
            )
        encode = store.encode_term
        slot_of = plan.slot_of
        return [(slot_of[v], encode(t)) for v, t in seed.items()]

    def exists(self, instance: Store, seed: Optional[Binding] = None) -> bool:
        """Whether at least one binding exists — stops at the first match."""
        store = _store(instance)
        plan = self.encoded(store.pool)
        values = [0] * plan.width
        for slot, code in self._seed_values(store, plan, seed):
            values[slot] = code
        return plan.exists_values(store, values)


_COMPILE_CACHE: Dict[Tuple[Conjunction, frozenset, Optional[int]], CompiledQuery] = {}
_COMPILE_CACHE_LIMIT = 4096


def compile_query(
    body: Conjunction,
    bound: Iterable[Variable] = (),
    instance: Optional[ColumnarInstance] = None,
    first_atom: Optional[int] = None,
) -> CompiledQuery:
    """Compile (or fetch the cached compile of) a conjunction.

    The cache key is the body, the set of seed-bound variables and the
    optional anchor atom; the instance only supplies selectivity hints
    for join ordering, so a cached plan is reused across instances.
    (The chase additionally keeps per-dependency compiled objects so its
    plans can be recompiled as relations grow.)
    """
    key = (body, frozenset(bound), first_atom)
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE.clear()
        compiled = CompiledQuery(body, bound, instance, first_atom)
        _COMPILE_CACHE[key] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

_REFERENCE_MODE = False


class reference_evaluator:
    """Context manager switching :func:`evaluate`, :func:`evaluate_iter`,
    :func:`evaluate_delta` and :func:`exists` to the materialized
    reference evaluator.  It lives here, not under ``tests/``, because
    ``perfbench/run.py --kernel reference`` uses it to cross-check the
    benchmark's result digests."""

    def __enter__(self) -> None:
        global _REFERENCE_MODE
        self._previous = _REFERENCE_MODE
        _REFERENCE_MODE = True

    def __exit__(self, *_exc) -> None:
        global _REFERENCE_MODE
        _REFERENCE_MODE = self._previous


def _store(instance: Store) -> ColumnarInstance:
    """The store an encoded plan reads: a ``ColumnarInstance`` as it is,
    a plain ``Instance`` loaded into a fresh one (one bulk ``add_all``)."""
    if isinstance(instance, ColumnarInstance):
        return instance
    store = ColumnarInstance()
    store.add_all(instance)
    return store


def evaluate_iter(
    body: Conjunction,
    instance: Store,
    seed: Optional[Binding] = None,
) -> Iterator[Binding]:
    """Lazily iterate the bindings of ``body`` satisfying it in ``instance``.

    The generator does work only as it is consumed, so callers that stop
    early (violation scans, existence checks) never pay for the full
    join.  Do not mutate ``instance`` while consuming.
    """
    if _REFERENCE_MODE:
        return iter(_evaluate_reference(body, instance, seed=seed))
    store = _store(instance)
    compiled = compile_query(body, seed or (), store)
    return compiled.bindings(store, seed)


def evaluate(
    body: Conjunction,
    instance: Store,
    seed: Optional[Binding] = None,
    limit: Optional[int] = None,
) -> List[Binding]:
    """All bindings of ``body``'s variables satisfying it in ``instance``.

    ``seed`` pre-binds variables (used for correlated sub-queries and for
    checking specific premise matches); ``limit`` stops the underlying
    generator pipeline as soon as that many bindings were produced.
    """
    if _REFERENCE_MODE:
        return _evaluate_reference(body, instance, seed=seed, limit=limit)
    stream = evaluate_iter(body, instance, seed=seed)
    if limit is not None:
        return list(islice(stream, limit))
    return list(stream)


def evaluate_delta(
    body: Conjunction,
    instance: Store,
    delta: Set[Atom],
    seed: Optional[Binding] = None,
) -> List[Binding]:
    """Bindings of ``body`` that use at least one fact from ``delta``.

    Implements the classical delta-join: for each positive atom position
    ``i``, join with atom ``i`` restricted to ``delta`` and all other
    atoms unrestricted, then deduplicate.  Negations are evaluated against
    the full instance (their non-monotonicity is the rewriter's concern,
    not the evaluator's).
    """
    if _REFERENCE_MODE:
        return _evaluate_delta_reference(body, instance, delta, seed=seed)
    store = _store(instance)
    if not body.atoms:
        return evaluate(body, store, seed=seed)
    relations_in_delta = {f.relation for f in delta}
    out: List[Binding] = []
    seen: Set[Tuple[Tuple[Variable, Term], ...]] = set()
    bound = frozenset(seed or ())
    for anchor_index, anchor in enumerate(body.atoms):
        if anchor.relation not in relations_in_delta:
            continue
        compiled = compile_query(body, bound, store, first_atom=anchor_index)
        for binding in compiled.bindings(store, seed, delta=delta):
            key = tuple(sorted(binding.items()))
            if key not in seen:
                seen.add(key)
                out.append(binding)
    return out


def exists(
    body: Conjunction, instance: Store, seed: Optional[Binding] = None
) -> bool:
    """Whether ``body`` has at least one match in ``instance``.

    Short-circuits at the first match: the compiled pipeline stops after
    one index probe for single-atom bodies, and after the first complete
    join row otherwise.
    """
    if _REFERENCE_MODE:
        return bool(_evaluate_reference(body, instance, seed=seed, limit=1))
    store = _store(instance)
    return compile_query(body, seed or (), store).exists(store, seed)


def bindings_to_substitutions(bindings: Iterable[Binding]) -> List[Substitution]:
    """Convert raw binding dicts to :class:`Substitution` objects."""
    return [Substitution(b) for b in bindings]


# ---------------------------------------------------------------------------
# Reference implementation (materialized; kept for differential testing)
# ---------------------------------------------------------------------------


def _facts_matching(
    instance: Store,
    relation: str,
    arity: int,
    positions: List[int],
    keys: Set[Tuple[Term, ...]],
) -> Iterator[Tuple[Tuple[Term, ...], Atom]]:
    """``(key, fact)`` for each of the relation's arity-``arity`` facts
    whose terms at ``positions`` form one of ``keys``, in the store's row
    order (so the reference's output order does not depend on hashing).
    Rows are matched as stored — a store's codes, an ``Instance``'s raw
    values — and only a matching row is decoded into a fact."""
    if isinstance(instance, ColumnarInstance):
        if instance.arity(relation) != arity:
            return
        encode = instance.pool.try_encode
        wanted = {tuple(map(encode, key)): key for key in keys}
        columns = instance.columns(relation)
        for row_id in instance.live_row_ids(relation):
            key = wanted.get(tuple(columns[p][row_id] for p in positions))
            if key is not None:
                yield key, instance.decode_row(relation, row_id)
    else:
        raw = lambda term: term.value if isinstance(term, Constant) else term
        wanted = {tuple(map(raw, key)): key for key in keys}
        for row in instance.rows(relation):
            if len(row) != arity:
                continue
            key = wanted.get(tuple(row[p] for p in positions))
            if key is not None:
                yield key, row_fact(relation, row)


def _join_step_reference(
    solutions: List[Binding],
    atom: Atom,
    instance: Store,
    bound_before: Set[Variable],
    delta: Optional[Set[Atom]] = None,
) -> List[Binding]:
    """Extend each binding with matches of ``atom`` against the instance."""
    bound_positions = [
        i
        for i, t in enumerate(atom.terms)
        if not isinstance(t, Variable) or t in bound_before
    ]
    unbound = [
        (i, t)
        for i, t in enumerate(atom.terms)
        if isinstance(t, Variable) and t not in bound_before
    ]
    keys = [
        tuple(_resolve(atom.terms[i], binding) for i in bound_positions)
        for binding in solutions
    ]
    # The step's hash index, built within the call over the keys probed.
    index: Dict[Tuple[Term, ...], List[Atom]] = {}
    for key, fact in _facts_matching(
        instance, atom.relation, atom.arity, bound_positions, set(keys)
    ):
        index.setdefault(key, []).append(fact)
    out: List[Binding] = []
    for binding, key in zip(solutions, keys):
        for fact in index.get(key, ()):
            if delta is not None and fact not in delta:
                continue
            extended = dict(binding)
            ok = True
            # Repeated fresh variables within the atom need an equality
            # check, which the dict-get below performs.
            for position, variable in unbound:
                value = fact.terms[position]
                current = extended.get(variable)
                if current is None:
                    extended[variable] = value
                elif current != value:
                    ok = False
                    break
            if ok:
                out.append(extended)
    return out


def _evaluate_reference(
    body: Conjunction,
    instance: Store,
    seed: Optional[Binding] = None,
    limit: Optional[int] = None,
) -> List[Binding]:
    seed_binding: Binding = dict(seed or {})
    bound_now: Set[Variable] = set(seed_binding)
    pending_comparisons = list(body.comparisons)

    solutions: List[Binding] = [seed_binding]
    applied: List[Comparison] = []
    for comparison in pending_comparisons:
        if _comparison_ready(comparison, bound_now):
            solutions = [b for b in solutions if _check_comparison(comparison, b)]
            applied.append(comparison)
    pending_comparisons = [c for c in pending_comparisons if c not in applied]

    atoms = body.atoms
    remaining = list(range(len(atoms)))
    while remaining:
        def score(i: int) -> Tuple[int, int]:
            atom = atoms[i]
            bound_positions = sum(
                1
                for t in atom.terms
                if not isinstance(t, Variable) or t in bound_now
            )
            return (-bound_positions, instance.size(atom.relation))

        best = min(remaining, key=score)
        remaining.remove(best)
        atom = atoms[best]
        solutions = _join_step_reference(solutions, atom, instance, bound_now)
        for variable in atom.variables():
            bound_now.add(variable)
        if not solutions:
            return []
        ready = [c for c in pending_comparisons if _comparison_ready(c, bound_now)]
        for comparison in ready:
            solutions = [b for b in solutions if _check_comparison(comparison, b)]
            pending_comparisons.remove(comparison)

    if pending_comparisons:
        raise UnsafeDependencyError(
            f"comparisons {pending_comparisons} have unbound variables in {body}"
        )

    out: List[Binding] = []
    for binding in solutions:
        if all(
            not bool(_evaluate_reference(negation.inner, instance, seed=binding, limit=1))
            for negation in body.negations
        ):
            out.append(binding)
    if limit is not None:
        out = out[:limit]
    return out


def _evaluate_delta_reference(
    body: Conjunction,
    instance: Store,
    delta: Set[Atom],
    seed: Optional[Binding] = None,
) -> List[Binding]:
    if not body.atoms:
        return _evaluate_reference(body, instance, seed=seed)
    relations_in_delta = {f.relation for f in delta}
    out: List[Binding] = []
    seen: Set[Tuple[Tuple[Variable, Term], ...]] = set()
    for anchor_index, anchor in enumerate(body.atoms):
        if anchor.relation not in relations_in_delta:
            continue
        seed_binding: Binding = dict(seed or {})
        bound_now: Set[Variable] = set(seed_binding)
        solutions = _join_step_reference(
            [seed_binding], anchor, instance, bound_now, delta=delta
        )
        if not solutions:
            continue
        for variable in anchor.variables():
            bound_now.add(variable)
        rest = [a for i, a in enumerate(body.atoms) if i != anchor_index]
        rest_body = Conjunction(rest, body.comparisons, body.negations)
        for binding in solutions:
            for full in _evaluate_reference(rest_body, instance, seed=binding):
                key = tuple(sorted(full.items()))
                if key not in seen:
                    seen.add(key)
                    out.append(full)
    return out

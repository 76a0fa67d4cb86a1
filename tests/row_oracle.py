"""The row-at-a-time probe loop, kept as the block drivers' oracle.

Before the generated block drivers, every join step of an encoded plan
ran the loop below: look up the step's index bucket for one input row,
restrict it to the delta, check repeated-variable equalities column by
column, copy the row's slots, bind, call each comparison's ``check``,
and yield.  An intersection step walks the smallest posting in code
order and tests each code against the others.  It walks ``plan.steps``
exactly as the drivers do, so both must produce the same rows and, over
a full drain, the same ``probe_rows``/``probe_survivors`` counters.

:func:`row_blocks` and :func:`row_exists` stand in for
``_EncodedPlan.blocks`` and ``_EncodedPlan.exists_values``;
:func:`row_probe_mode` swaps them in for every encoded plan, so a whole
chase can run on the row loop.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple
from unittest import mock

from repro.errors import UnsafeDependencyError
from repro.relational.kernel import RowMask
from repro.relational.query import _PROBE_BLOCK, _EncodedIntersectStep, _EncodedPlan

__all__ = ["row_blocks", "row_exists", "row_probe_mode"]


def _intersect_rows(stream, step, store) -> Iterator[List[int]]:
    """One intersection step, one input row and one code at a time: walk
    the smallest posting in ascending code order and keep the codes
    every other posting holds.  ``probe_rows`` counts the smallest
    posting, ``probe_survivors`` the rows yielded, as in the drivers."""
    for relation, arity, _positions, _key_parts in step.parts:
        if store.arity(relation) != arity:
            return
    lookups = [
        (store.posting(relation, positions).get, key_parts)
        for relation, _arity, positions, key_parts in step.parts
    ]
    comparisons = [comparison.check for comparison in step.comparisons]
    stats = store.kernel_stats
    for values in stream:
        postings = []
        for lookup, key_parts in lookups:
            codes = lookup(tuple(values[v] if s else v for s, v in key_parts))
            if not codes:
                break
            postings.append(codes)
        else:
            smallest = min(postings, key=len)
            stats.probe_rows += len(smallest)
            for code in sorted(smallest):
                if not all(code in codes for codes in postings):
                    continue
                extended = values[:]
                extended[step.slot] = code
                if all(check(extended) for check in comparisons):
                    stats.probe_survivors += 1
                    yield extended


def _join_rows(stream, step, store, delta) -> Iterator[List[int]]:
    """One join step, one input row and one candidate row at a time."""
    if isinstance(step, _EncodedIntersectStep):
        yield from _intersect_rows(stream, step, store)
        return
    if store.arity(step.relation) != step.arity:
        return
    lookup = store.encoded_index(step.relation, step.positions).get
    columns = store.columns(step.relation)
    key_parts = step.key_parts
    binds = step.binds
    checks = step.checks
    comparisons = [comparison.check for comparison in step.comparisons]
    stats = store.kernel_stats
    for values in stream:
        key = tuple(values[v] if s else v for s, v in key_parts)
        rows = lookup(key)
        if not rows:
            continue
        if delta is not None:
            rows = [r for r in rows if r in delta]
            if not rows:
                continue
        stats.probe_rows += len(rows)
        for row_id in rows:
            ok = True
            for position, bound_at in checks:
                if columns[position][row_id] != columns[bound_at][row_id]:
                    ok = False
                    break
            if not ok:
                continue
            extended = values[:]
            for position, slot in binds:
                extended[slot] = columns[position][row_id]
            for check in comparisons:
                if not check(extended):
                    ok = False
                    break
            if ok:
                stats.probe_survivors += 1
                yield extended


def _finalize_rows(plan, stream, store) -> Iterator[Tuple[int, ...]]:
    """The unscheduled-comparison error and the negation filter, per row;
    a negation's not-exists probe runs on the row loop too."""
    unscheduled = plan.query.unscheduled
    for values in stream:
        if unscheduled:
            raise UnsafeDependencyError(
                f"comparisons {list(unscheduled)} have unbound "
                f"variables in {plan.query.body}"
            )
        ok = True
        for inner, fill in plan.negations:
            filled = [0] * inner.width
            for inner_slot, outer_index in fill:
                filled[inner_slot] = values[outer_index]
            if row_exists(inner, store, filled):
                ok = False
                break
        if ok:
            yield tuple(values)


def _row_stream(plan, store, values, delta=None) -> Iterator[Tuple[int, ...]]:
    stream: Iterator[List[int]] = iter((values,))
    for step_index, step in enumerate(plan.steps):
        stream = _join_rows(stream, step, store, delta if step_index == 0 else None)
    return _finalize_rows(plan, stream, store)


def row_blocks(plan, store, seed_values=(), delta=None) -> Iterator[List[Tuple[int, ...]]]:
    """``plan.blocks(store, seed_values, delta)`` on the row loop, its
    rows chunked into blocks of the drivers' size."""
    if delta is not None:
        if plan.steps and isinstance(plan.steps[0], _EncodedIntersectStep):
            raise ValueError("a delta restricts row ids; anchor the plan")
        if not delta:
            return
        if not isinstance(delta, RowMask):
            delta = RowMask(delta)
    values = [0] * plan.width
    for slot, code in seed_values:
        values[slot] = code
    for check in plan.seed_comparisons:
        if not check(values):
            return
    block: List[Tuple[int, ...]] = []
    for row in _row_stream(plan, store, values, delta):
        block.append(row)
        if len(block) >= _PROBE_BLOCK:
            yield block
            block = []
    if block:
        yield block


def row_exists(plan, store, values) -> bool:
    """``plan.exists_values(store, values)`` on the row loop (a single
    seeded atom is still one key-membership probe)."""
    for check in plan.seed_comparisons:
        if not check(values):
            return False
    if plan._single_probe:
        step = plan.steps[0]
        if store.arity(step.relation) != step.arity:
            return False
        key = tuple(values[v] if s else v for s, v in step.key_parts)
        return key in store.encoded_index(step.relation, step.positions)
    for _ in _row_stream(plan, store, values):
        return True
    return False


def row_probe_mode():
    """Run every encoded plan on the row loop inside the ``with`` block."""
    return mock.patch.multiple(
        _EncodedPlan, blocks=row_blocks, exists_values=row_exists
    )

"""A frozen row-at-a-time probe loop: e14's baseline.

``row_blocks`` is the join loop encoded plans ran before the generated
block drivers: per input row, look up the step's index bucket,
restrict it to the delta by membership, check repeated-variable
equalities column by column, copy the row's slots, bind, call each
comparison's ``check`` and yield; the rows are then chunked into blocks
of the drivers' size.  The query module no longer carries it, so e14
races the drivers against this copy.  It does not move with the query
module; it is benchmark code, not an evaluator anything else uses.
"""

from typing import Iterator, List, Tuple

from repro.errors import UnsafeDependencyError
from repro.relational.kernel import RowMask
from repro.relational.query import _PROBE_BLOCK


def _join_rows(stream, step, store, delta) -> Iterator[List[int]]:
    index = store.encoded_index(step.relation, step.positions)
    lookup = index.get
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
    unscheduled = plan.query.unscheduled
    negations = plan.negations
    for values in stream:
        if unscheduled:
            raise UnsafeDependencyError(
                f"comparisons {list(unscheduled)} have unbound "
                f"variables in {plan.query.body}"
            )
        ok = True
        for inner, fill in negations:
            if inner.exists_filled(store, fill, values):
                ok = False
                break
        if ok:
            yield tuple(values)


def row_blocks(plan, store, seed_values=(), delta=None) -> Iterator[List[Tuple[int, ...]]]:
    """``plan.blocks(store, seed_values, delta)`` on the row loop."""
    if delta is not None:
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
    stream: Iterator[List[int]] = iter((values,))
    for step_index, step in enumerate(plan.steps):
        stream = _join_rows(stream, step, store, delta if step_index == 0 else None)
    block: List[Tuple[int, ...]] = []
    for row in _finalize_rows(plan, stream, store):
        block.append(row)
        if len(block) >= _PROBE_BLOCK:
            yield block
            block = []
    if block:
        yield block

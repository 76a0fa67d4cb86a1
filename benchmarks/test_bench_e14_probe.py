"""E14 — block probes vs row-at-a-time probes over the columnar store.

The join probe is the heart of the chase's enumerate phase: stream a
binding, look up an index bucket, restrict it to the round's delta,
check repeated-variable equalities, extend the binding from the matched
row's columns.  PR 10 batches that per *block* of candidate row ids —
generated per-step drivers whose inner loop is one list comprehension
over hoisted column locals, with :class:`RowMask` bucket restriction.
The old row-at-a-time loop is the baseline: the query module no longer
carries it, so ``benchmarks/row_probe.py::row_blocks`` is a frozen copy
that walks the same plan's steps.

This experiment races the two paths on identical plans and data:

* **fan-out sweep** — a two-step join whose second step touches
  ``fanout`` candidate rows per probe (4 / 16 / 64), with a
  repeated-variable equality check so the column-compare filter runs;
* **delta-restricted** — the chase hot-path shape: the anchor step
  restricted to an insertion window, once contiguous (a fresh
  generation: mask restriction is a bisect slice or bucket identity)
  and once sparse (every other row id, as a window with resurrected
  rows can be: span-bounded membership);
* **comparison-filtered** — the second step carries an order
  comparison between two slots it binds (``b < c``, true on half the
  candidates): the block driver applies it on codes as a comprehension
  filter, the row loop calls the compiled check per row.  This is the shape
  of the triangle tgd's ``x < y`` / ``x < z`` filters, so it explains
  ``chase.enumerate.self_s`` on e15's join-triangles.

Both paths must produce identical row streams and identical
``probe_rows``/``probe_survivors`` counters — asserted every section.
CI (quick mode) gates the delta-restricted contiguous section, the
shape every chase round rides, at block ≥ 2× row throughput; the JSON
artifact reports ``rows_per_second`` leaves (higher is better) for the
trend comparison.
"""

import time

from repro.logic.atoms import Atom, Comparison, Conjunction
from repro.logic.terms import Constant, Variable
from repro.relational.kernel import ColumnarInstance, RowMask, TermPool
from repro.relational.query import compile_query
from repro.reporting import Table

from conftest import print_experiment_table, quick_mode, record_bench_json
from row_probe import row_blocks

#: Probes per section (rows of the anchor relation).
PROBES = 40_000
QUICK_PROBES = 6_000
FANOUTS = [4, 16, 64]
QUICK_FANOUTS = [4, 16]
#: CI gate: block probe throughput over row-at-a-time on the
#: delta-restricted (chase hot path) section.
SPEEDUP_FLOOR = 2.0


def _join_store(probes: int, fanout: int) -> ColumnarInstance:
    """R(k, a) with one row per probe key; S(a, b, b) with ``fanout``
    rows per ``a`` — half of them failing the repeated-variable check,
    so the equality filter genuinely culls."""
    store = ColumnarInstance(pool=TermPool())
    r_rows = []
    s_rows = []
    for i in range(probes):
        a = i % (probes // 8 or 1)
        r_rows.append((i, a))
        if i < (probes // 8 or 1):
            for j in range(fanout):
                # Even j: b == c (check passes); odd j: b != c.
                b = i * fanout + j
                c = b if j % 2 == 0 else b + 1
                s_rows.append((i, b, c))
    encode = store.pool.encode
    store.extend_encoded(
        "R", [(encode(Constant(k)), encode(Constant(a))) for k, a in r_rows]
    )
    store.extend_encoded(
        "S",
        [
            (encode(Constant(a)), encode(Constant(b)), encode(Constant(c)))
            for a, b, c in s_rows
        ],
    )
    return store


def _query():
    k, a, b = Variable("k"), Variable("a"), Variable("b")
    return Conjunction(
        atoms=(Atom("R", (k, a)), Atom("S", (a, b, b)))
    )


def _comparison_query():
    """R(k, a), S(a, b, c), b < c: ``c`` is ``b + 1`` on the odd-j half
    of :func:`_join_store`'s S rows, so the comparison keeps half."""
    k, a, b, c = (Variable(n) for n in "kabc")
    return Conjunction(
        atoms=(Atom("R", (k, a)), Atom("S", (a, b, c))),
        comparisons=(Comparison("<", b, c),),
    )


#: Timed repetitions per mode; the gate uses the best run of each, so a
#: single scheduler hiccup on a loaded CI box cannot fail the ratio.
#: Block and row runs alternate, so a slow stretch of the host costs
#: both modes one sample instead of every sample of one mode.
REPEATS = 5


def _timed_rows(blocks, plan, store, delta=None):
    """Fully drain the encoded plan (block-wise) once, through the
    drivers (``blocks`` is ``type(plan).blocks``) or the frozen row
    loop (``row_blocks``); returns (rows, seconds, probed, survivors)
    with the counters isolated to this evaluation."""
    stats = store.kernel_stats
    probed0, surv0 = stats.probe_rows, stats.probe_survivors
    start = time.perf_counter()
    rows = []
    for block in blocks(plan, store, delta=delta):
        rows += block
    elapsed = time.perf_counter() - start
    return (
        rows,
        elapsed,
        stats.probe_rows - probed0,
        stats.probe_survivors - surv0,
    )


def _race(plan, store, delta=None):
    """Block vs row timing on one plan (best of :data:`REPEATS` each);
    asserts identical streams and identical counters, returns the
    section payload."""
    # Build the probed hash indexes up front: both timed runs must
    # measure probing, not the first run's lazy index construction.
    for step in plan.steps:
        store.encoded_index(step.relation, step.positions)
    block_seconds = row_seconds = float("inf")
    for _ in range(REPEATS):
        block_rows, seconds, block_probed, block_surv = _timed_rows(
            type(plan).blocks, plan, store, delta
        )
        block_seconds = min(block_seconds, seconds)
        row_rows, seconds, row_probed, row_surv = _timed_rows(
            row_blocks, plan, store, delta
        )
        row_seconds = min(row_seconds, seconds)
    assert block_rows == row_rows
    assert (block_probed, block_surv) == (row_probed, row_surv)
    speedup = row_seconds / block_seconds if block_seconds else 0.0
    return {
        "rows_probed": block_probed,
        "rows_survived": block_surv,
        "block_rows_per_second": (
            block_probed / block_seconds if block_seconds else 0.0
        ),
        "row_rows_per_second": (
            row_probed / row_seconds if row_seconds else 0.0
        ),
        "block_vs_row_speedup": speedup,
    }


def test_report_e14():
    quick = quick_mode()
    probes = QUICK_PROBES if quick else PROBES
    fanouts = QUICK_FANOUTS if quick else FANOUTS
    payload = {"quick": quick, "probes": probes}
    table = Table(
        "E14: block vs row-at-a-time probe throughput",
        ["section", "probed", "block rows/s", "row rows/s", "speedup"],
    )

    # -- fan-out sweep -------------------------------------------------
    by_fanout = {}
    for fanout in fanouts:
        store = _join_store(probes, fanout)
        plan = compile_query(_query()).encoded(store.pool)
        section = _race(plan, store)
        by_fanout[str(fanout)] = section
        table.add(
            f"fanout={fanout}",
            section["rows_probed"],
            round(section["block_rows_per_second"]),
            round(section["row_rows_per_second"]),
            round(section["block_vs_row_speedup"], 2),
        )
    payload["by_fanout"] = by_fanout

    # -- delta-restricted (the chase hot-path shape) -------------------
    # Anchor the plan on R and restrict it to an insertion window, the
    # exact shape of every anchored delta probe in a chase round.
    fanout = fanouts[-1]
    store = _join_store(probes, fanout)
    plan = compile_query(_query(), first_atom=0).encoded(store.pool)
    r_count = store.size("R")
    # Contiguous window: the newest half of R, as after a fresh round.
    contiguous = RowMask(range(r_count // 2, r_count))
    section = _race(plan, store, delta=contiguous)
    payload["delta_contiguous"] = section
    table.add(
        "delta contiguous",
        section["rows_probed"],
        round(section["block_rows_per_second"]),
        round(section["row_rows_per_second"]),
        round(section["block_vs_row_speedup"], 2),
    )
    # Sparse window: every other row id (span-bounded membership).
    sparse = RowMask({r for r in range(r_count) if r % 2 == 0})
    sparse_section = _race(plan, store, delta=sparse)
    payload["delta_sparse"] = sparse_section
    table.add(
        "delta sparse",
        sparse_section["rows_probed"],
        round(sparse_section["block_rows_per_second"]),
        round(sparse_section["row_rows_per_second"]),
        round(sparse_section["block_vs_row_speedup"], 2),
    )

    # -- comparison-filtered (an order comparison on bound slots) -----
    plan = compile_query(_comparison_query(), first_atom=0).encoded(store.pool)
    comparison = _race(plan, store)
    payload["comparison_filtered"] = comparison
    table.add(
        "comparison b < c",
        comparison["rows_probed"],
        round(comparison["block_rows_per_second"]),
        round(comparison["row_rows_per_second"]),
        round(comparison["block_vs_row_speedup"], 2),
    )
    # Half the second step's candidates survive the comparison.
    s_probed = comparison["rows_probed"] - store.size("R")
    s_survived = comparison["rows_survived"] - store.size("R")
    assert 2 * s_survived == s_probed, comparison

    print_experiment_table(table)
    record_bench_json("e14_probe", payload)
    # The tentpole's headline: on the shape every chase round rides
    # (anchored probe over a contiguous insertion window), block probes
    # must hold >= 2x the row-at-a-time loop they replaced.
    gated = section["block_vs_row_speedup"]
    assert gated >= SPEEDUP_FLOOR, (
        f"block probes only {gated:.2f}x row-at-a-time on the "
        f"delta-restricted hot path (wanted >= {SPEEDUP_FLOOR}x); "
        f"{payload['delta_contiguous']}"
    )

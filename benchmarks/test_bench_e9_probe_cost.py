"""E9 — satisfaction-probe cost must be independent of relation size.

The restricted chase calls ``exists()`` once per premise match to decide
whether a conclusion already holds.  Before the lazy compiled pipeline,
that probe materialized the complete join and truncated afterwards, so
probe cost grew with the relation being probed and the chase turned
superlinear.  This bench measures the per-probe cost of a chase-style
seeded existence check at growing relation sizes and requires it to stay
flat: the probe is one hash-index key lookup.

The relation is a :class:`~repro.relational.kernel.ColumnarInstance`,
the store the chase probes: ``exists()`` on a plain ``Instance`` loads
it into a store first, so timing that would time the load.
"""

import time

from repro.logic.atoms import Atom, Conjunction
from repro.logic.terms import Constant, Variable
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import exists
from repro.reporting import Table

from conftest import print_experiment_table, quick_mode, record_bench_json

SIZES = [1_000, 10_000, 100_000]
PROBES = 2_000
QUICK_SIZES = [500, 5_000]
QUICK_PROBES = 500
REPEATS = 3


def _relation_of(size):
    instance = ColumnarInstance()
    for i in range(size):
        instance.add(
            Atom("T_Product", (Constant(i), Constant(f"name_{i}"), Constant(i % 11)))
        )
    return instance


def _measure_probe_seconds(instance, probes):
    pid, name, store = Variable("pid"), Variable("name"), Variable("store")
    body = Conjunction(atoms=(Atom("T_Product", (pid, name, store)),))
    size = len(instance)
    hits = [
        {pid: Constant(i % size), name: Constant(f"name_{i % size}")}
        for i in range(probes)
    ]
    misses = [
        {pid: Constant(-i - 1), name: Constant("missing")} for i in range(probes)
    ]
    exists(body, instance, seed=hits[0])  # warm plan + index
    best = float("inf")
    for _ in range(REPEATS):  # best-of-N damps scheduler/cache noise
        start = time.perf_counter()
        for seed in hits:
            assert exists(body, instance, seed=seed)
        for seed in misses:
            assert not exists(body, instance, seed=seed)
        best = min(best, (time.perf_counter() - start) / (2 * probes))
    return best


def test_report_e9():
    sizes = QUICK_SIZES if quick_mode() else SIZES
    probes = QUICK_PROBES if quick_mode() else PROBES
    table = Table(
        "E9: exists() probe cost vs relation size",
        ["relation size", "probes", "per-probe (us)"],
    )
    per_probe = {}
    for size in sizes:
        instance = _relation_of(size)
        seconds = _measure_probe_seconds(instance, probes)
        per_probe[size] = seconds
        table.add(size, 2 * probes, round(seconds * 1e6, 3))
    print_experiment_table(table)
    record_bench_json(
        "e9_probe_cost",
        {
            "quick": quick_mode(),
            "probes": 2 * probes,
            "per_probe_seconds": {str(k): v for k, v in per_probe.items()},
        },
    )
    smallest, largest = sizes[0], sizes[-1]
    # O(1) probes: cost at the largest size must not scale with the data.
    # Allow generous noise headroom (dict lookups on a bigger index do
    # miss CPU caches more) — the sizes differ by 100x (10x in quick
    # mode), so even a modest dependence on size blows past the bound.
    assert per_probe[largest] <= per_probe[smallest] * 5 + 5e-6, per_probe

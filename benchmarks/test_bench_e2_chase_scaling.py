"""E2 — chase scalability on rewritten (ded-free) scenarios.

Claim (§3 "Handling Complexity"): the chase engine "guarantees good
scalability in executing mappings, even on large databases".  We chase
the ded-free variant of the running example at growing source sizes and
check the growth is roughly linear (the delta-driven rounds keep
per-round work proportional to new facts).
"""

import time

import pytest

from repro.chase.engine import StandardChase
from repro.reporting import Table
from repro.scenarios.running_example import generate_source_instance

from conftest import print_experiment_table, quick_mode, record_bench_json

SIZES = [100, 500, 1000, 2000]
QUICK_SIZES = [100, 500]
# Each size's time is the best of this many runs: one GC pause or a
# noisy neighbour inflates a single run, never all of them.  The runs
# are interleaved across sizes (one pass over every size per repeat),
# so a slow stretch of the host hits one sample of each size rather
# than every sample of the size that happened to run during it.
REPEATS = 5


@pytest.mark.parametrize("products", SIZES)
def test_bench_chase_scaling(benchmark, running_rewritten_no_key, products):
    source = generate_source_instance(products=products, stores=10, seed=2)
    engine = StandardChase(
        running_rewritten_no_key.dependencies,
        running_rewritten_no_key.source_relations(),
    )

    result = benchmark.pedantic(
        lambda: engine.run(source), rounds=3, iterations=1
    )
    assert result.ok
    assert result.target.size("T_Product") == 2 * products


def test_report_e2(benchmark, running_rewritten_no_key):
    table = Table(
        "E2: chase scaling (ded-free running example)",
        ["products", "target facts", "nulls", "rounds", "time (s)", "facts/s"],
    )
    sizes = QUICK_SIZES if quick_mode() else SIZES
    sources = {
        products: generate_source_instance(products=products, stores=10, seed=2)
        for products in sizes
    }
    engines = {
        products: StandardChase(
            running_rewritten_no_key.dependencies,
            running_rewritten_no_key.source_relations(),
        )
        for products in sizes
    }
    times = {products: float("inf") for products in sizes}
    results = {}
    for _ in range(REPEATS):
        for products in sizes:
            start = time.perf_counter()
            results[products] = engines[products].run(sources[products])
            elapsed = time.perf_counter() - start
            times[products] = min(times[products], elapsed)
    for products in sizes:
        result, elapsed = results[products], times[products]
        table.add(
            products,
            len(result.target),
            result.stats.nulls_created,
            result.stats.rounds,
            elapsed,
            int(len(result.target) / elapsed) if elapsed else 0,
        )
    print_experiment_table(table)
    record_bench_json(
        "e2_chase_scaling",
        {
            "quick": quick_mode(),
            "seconds_by_products": {str(k): v for k, v in times.items()},
            "timing": f"best of {REPEATS}",
        },
    )
    # Shape check on the best-of-REPEATS times: the compiled evaluator
    # keeps the chase near-linear — growing the data by Nx may cost at
    # most ~1.3Nx the time (1.3x headroom for cache effects), plus a
    # small absolute floor so timer noise on tiny runs cannot flake the
    # bound.  This runs in quick (CI) mode too, so a superlinear
    # regression fails the smoke job.
    fact_ratio = sizes[-1] / sizes[0]
    assert times[sizes[-1]] <= times[sizes[0]] * fact_ratio * 1.3 + 0.05, times

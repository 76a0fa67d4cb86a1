"""E2 — chase scalability on rewritten (ded-free) scenarios.

Claim (§3 "Handling Complexity"): the chase engine "guarantees good
scalability in executing mappings, even on large databases".  We chase
the ded-free variant of the running example at growing source sizes and
check the growth is roughly linear (the delta-driven rounds keep
per-round work proportional to new facts).
"""

import math
import statistics
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
# Full-mode shape gates (see ``scaling_violations``).
LINE_SLACK = 1.3
MAX_EXPONENT = 1.15


def line_fit(points):
    """Least-squares ``(a, b)`` of ``t = a + b * n`` through ``(n, t)`` points."""
    sizes = [n for n, _ in points]
    seconds = [t for _, t in points]
    mean_n, mean_t = statistics.fmean(sizes), statistics.fmean(seconds)
    slope = sum((n - mean_n) * (t - mean_t) for n, t in points) / sum(
        (n - mean_n) ** 2 for n in sizes
    )
    return mean_t - slope * mean_n, slope


def scaling_violations(times, quick):
    """The shape checks ``times`` (products -> best-of seconds) fails.

    Quick mode compares the two sizes it runs: growing the data by Nx
    may cost at most 1.3Nx the time, plus 50 ms so timer noise on tiny
    runs cannot flake the bound.  Full mode reads no single small time
    as the base, since a ~10 ms run at 100 products sits inside a
    loaded host's noise:

    * a least-squares line ``t = a + b*N`` through the three smaller
      sizes (``a`` absorbs the fixed cost) must predict the largest
      size's time within ``LINE_SLACK``;
    * the log-log slope through the three larger sizes must stay at or
      below ``MAX_EXPONENT``.  The line alone would let ``N^1.2`` pass
      (it lands 1.13x over its prediction), which the two-size check
      used to fail.
    """
    sizes = sorted(times)
    largest = sizes[-1]
    if quick:
        ratio = largest / sizes[0]
        if times[largest] > times[sizes[0]] * ratio * 1.3 + 0.05:
            return [f"{largest} products took over {ratio * 1.3:.0f}x + 50 ms"]
        return []
    violations = []
    a, b = line_fit([(n, times[n]) for n in sizes[:-1]])
    predicted = a + b * largest
    if times[largest] > LINE_SLACK * predicted:
        violations.append(
            f"{largest} products took {times[largest] / predicted:.2f}x the "
            f"line's prediction (bound {LINE_SLACK})"
        )
    exponent = line_fit([(math.log(n), math.log(times[n])) for n in sizes[1:]])[1]
    if exponent > MAX_EXPONENT:
        violations.append(
            f"log-log slope {exponent:.2f} over {sizes[1:]} (bound {MAX_EXPONENT})"
        )
    return violations


def test_scaling_gate_on_synthetic_timings():
    linear_plus_fixed = {n: 0.010 + 7.5e-5 * n for n in SIZES}
    assert scaling_violations(linear_plus_fixed, quick=False) == []
    power = {n: 0.008 * (n / 100) ** 1.2 for n in SIZES}
    assert len(scaling_violations(power, quick=False)) == 1
    # A cost that jumps at the largest size fails the line.
    jump = {**linear_plus_fixed, 2000: 2 * linear_plus_fixed[2000]}
    assert len(scaling_violations(jump, quick=False)) == 2
    # Quick mode keeps the two-size check.
    assert scaling_violations({100: 0.01, 500: 0.05}, quick=True) == []
    assert scaling_violations({100: 0.01, 500: 0.2}, quick=True) != []


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
    # keeps the chase near-linear.  This runs in quick (CI) mode too, so
    # a superlinear regression fails the smoke job.
    assert scaling_violations(times, quick_mode()) == [], times

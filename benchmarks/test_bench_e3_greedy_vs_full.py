"""E3 — universal model sets blow up; the greedy ded chase does not.

Claim (§3): "universal model sets may have exponential size wrt to the
size of the source instance" and the greedy strategy tames this by
"running multiple standard scenarios [...] derived from the given
deds".  We scale the number of ded-firing name pairs and compare the
exact disjunctive chase (model count doubles per pair) against the
greedy engine (constant scenario count).  The report records the exact
chase's rows (models, leaves, branchings, seconds per pair count) in
``BENCH_e3_greedy_vs_full.json`` for the trend; it has no speed gate.
"""

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.disjunctive import DisjunctiveChase
from repro.core.rewriter import rewrite
from repro.reporting import Table
from repro.scenarios.generators import flagged_instance, flagged_scenario

from conftest import print_experiment_table, quick_mode, record_bench_json

PAIRS = [1, 2, 3, 4, 5]


@pytest.fixture(scope="module")
def flagged_rewritten():
    return rewrite(flagged_scenario(flags=1))


@pytest.mark.parametrize("pairs", [1, 3, 5])
def test_bench_exact_disjunctive(benchmark, flagged_rewritten, pairs):
    source = flagged_instance(products=4, name_pairs=pairs, seed=1)
    engine = DisjunctiveChase(
        flagged_rewritten.dependencies,
        flagged_rewritten.source_relations(),
        max_leaves=4096,
    )
    result = benchmark.pedantic(lambda: engine.run(source), rounds=2, iterations=1)
    assert result.satisfiable
    assert len(result.models) == 2 ** pairs


@pytest.mark.parametrize("pairs", [1, 3, 5])
def test_bench_greedy(benchmark, flagged_rewritten, pairs):
    source = flagged_instance(products=4, name_pairs=pairs, seed=1)
    engine = GreedyDedChase(
        flagged_rewritten.dependencies, flagged_rewritten.source_relations()
    )
    result = benchmark.pedantic(lambda: engine.run(source), rounds=2, iterations=1)
    assert result.ok


def test_report_e3(benchmark, flagged_rewritten):
    table = Table(
        "E3: exact disjunctive chase vs greedy (1 flag key, growing conflicts)",
        [
            "pairs",
            "models (exact)",
            "leaves",
            "branchings",
            "exact time (s)",
            "greedy scenarios",
            "greedy time (s)",
        ],
    )
    model_counts = {}
    exact_rows = {}
    for pairs in PAIRS:
        source = flagged_instance(products=4, name_pairs=pairs, seed=1)
        exact = DisjunctiveChase(
            flagged_rewritten.dependencies,
            flagged_rewritten.source_relations(),
            max_leaves=4096,
        ).run(source)
        greedy = GreedyDedChase(
            flagged_rewritten.dependencies, flagged_rewritten.source_relations()
        ).run(source)
        model_counts[pairs] = len(exact.models)
        exact_rows[str(pairs)] = {
            "models": len(exact.models),
            "leaves": exact.leaves,
            "branchings": exact.branchings,
            "seconds": exact.elapsed_seconds,
        }
        table.add(
            pairs,
            len(exact.models),
            exact.leaves,
            exact.branchings,
            exact.elapsed_seconds,
            greedy.scenarios_tried,
            greedy.stats.elapsed_seconds,
        )
        assert greedy.ok and exact.satisfiable
    print_experiment_table(table)
    record_bench_json(
        "e3_greedy_vs_full", {"quick": quick_mode(), "exact": exact_rows}
    )
    # The paper's shape: exponential model sets (2^k), constant greedy work.
    for pairs in PAIRS:
        assert model_counts[pairs] == 2 ** pairs

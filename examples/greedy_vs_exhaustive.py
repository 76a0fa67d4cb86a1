"""Greedy ded chase vs the exact disjunctive chase (Section 3's trade-off).

"Universal model sets may have exponential size wrt the size of the
source instance" — this example makes that concrete.  Flag-view keys
rewrite into d0-shaped deds whose insert branches both survive, so the
exact disjunctive chase doubles its model set per conflicting pair
while the greedy strategy settles for one standard scenario.

Run:  python examples/greedy_vs_exhaustive.py
"""

from repro import DisjunctiveChase, GreedyDedChase, rewrite
from repro.pipeline import strip_auxiliary
from repro.reporting import Table
from repro.scenarios import flagged_instance, flagged_scenario


def main() -> None:
    scenario = flagged_scenario(flags=1)
    rewritten = rewrite(scenario)
    print(f"rewriting: {rewritten!r} "
          f"(flag key -> d0-shaped ded, both insert branches harmless)")

    table = Table(
        "Exponential universal model sets vs greedy search",
        [
            "name pairs",
            "exact models",
            "exact leaves",
            "exact time (s)",
            "greedy scenarios",
            "greedy time (s)",
        ],
    )
    for pairs in (1, 2, 3, 4, 5):
        source = flagged_instance(products=4, name_pairs=pairs, seed=1)
        exact = DisjunctiveChase(
            rewritten.dependencies, rewritten.source_relations(),
            max_leaves=4096,
        ).run(source)
        greedy = GreedyDedChase(
            rewritten.dependencies, rewritten.source_relations()
        ).run(source)
        assert greedy.ok and exact.satisfiable
        table.add(
            pairs,
            len(exact.models),
            exact.leaves,
            exact.elapsed_seconds,
            greedy.scenarios_tried,
            greedy.stats.elapsed_seconds,
        )
    table.print()
    print(
        "\nThe exact chase doubles per conflicting pair (2^k models); the\n"
        "greedy chase runs a constant handful of derived standard\n"
        "scenarios — sound, not complete, and 'often surprisingly quick'."
    )

    # Soundness audit of the whole model set: every member of the last
    # universal model set must solve the *original* semantic scenario.
    # One verifier materializes the shared source side once for all of
    # them.
    verifier = rewritten.verifier(source)
    reports = [
        verifier.verify(strip_auxiliary(model, scenario.target_schema))
        for model in exact.models
    ]
    sound = sum(1 for report in reports if report.ok)
    print(f"\nmodel-set audit: {sound}/{len(reports)} models verified sound")
    assert sound == len(reports)


if __name__ == "__main__":
    main()

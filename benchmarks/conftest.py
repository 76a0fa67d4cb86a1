"""Shared helpers for the experiment benchmarks (E2–E14).

Each benchmark module reproduces one experiment from DESIGN.md §4 and
prints the table EXPERIMENTS.md records.  ``pytest benchmarks/
--benchmark-only`` runs them; the printed tables appear with ``-s`` (or
in the captured output section).
"""

from __future__ import annotations

import pytest

from repro.core.rewriter import rewrite
from repro.scenarios.running_example import build_scenario


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ so CI can deselect it.

    The hook sees the whole session's items, so filter by path — items
    inside *this* conftest's directory get the ``bench`` marker (a bare
    substring test would misfire on checkouts whose path happens to
    contain "benchmarks").
    """
    import pathlib

    here = pathlib.Path(__file__).parent.resolve()
    for item in items:
        if here in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def running_rewritten_no_key():
    return rewrite(build_scenario(include_key=False))


def print_experiment_table(table) -> None:
    """Emit an experiment table so it survives pytest's capture."""
    import sys

    print()
    print(table.render())
    sys.stdout.flush()


def quick_mode() -> bool:
    """Whether the bench suite runs in CI smoke mode.

    ``GROM_BENCH_QUICK=1`` shrinks workloads to a single small round per
    experiment so CI can track the perf trajectory on every PR without
    paying for the full sweep.
    """
    import os

    return os.environ.get("GROM_BENCH_QUICK", "") not in ("", "0")


def record_bench_json(name: str, payload) -> None:
    """Write ``BENCH_<name>.json`` for the CI artifact upload.

    ``GROM_BENCH_DIR`` overrides the output directory (default: cwd).
    Payloads are plain dicts of experiment measurements; CI uploads every
    ``BENCH_*.json`` so the perf trajectory is inspectable per PR.
    """
    import json
    import os

    directory = os.environ.get("GROM_BENCH_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

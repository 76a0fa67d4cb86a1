"""E13 — columnar kernel micro-benchmarks.

The columnar instance kernel replaces per-tuple ``Atom`` objects with
struct-of-arrays columns over an interned term pool; the whole chase
hot path rides that representation.  This experiment measures the
kernel's primitive operations in isolation so regressions show up
before they blur into end-to-end chase timings:

* **intern** — terms/second into a fresh :class:`TermPool`;
* **append** — bulk encoded-row inserts (``extend_encoded``) vs
  inserts of atom objects into per-relation ``set[Atom]`` buckets on
  identical data (the headline: encoded must stay ≥3x faster, asserted
  at 2.5x for CI headroom), with the per-row ``add_encoded`` rate
  tracked alongside.  The atom side is ``atom_store.AtomSetStore``, a
  frozen copy of the insert path ``Instance`` had while it stored
  ``Atom`` objects: ``Instance`` now stores value rows, and a reference
  that moved with it would stop measuring atom-object inserts;
* **facts_since** — reading one generation window off the insertion
  log;
* **index_build** — cold hash-index construction over all rows;
* **probe** — hash-join key probes against the live index.

``GROM_BENCH_QUICK=1`` shrinks the workload for the CI smoke job; the
JSON artifact (``BENCH_e13_kernel.json``) feeds ``benchmarks/trend.py``
either way (``ns_per_op`` leaves are lower-is-better).
"""

import time

from repro.logic.atoms import Atom
from repro.logic.terms import Constant
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.reporting import Table

from atom_store import AtomSetStore
from conftest import print_experiment_table, quick_mode, record_bench_json

ROWS = 120_000
TERMS = 200_000
QUICK_ROWS = 6_000
QUICK_TERMS = 10_000
#: Rows per join key — the probe section's fan-out.
GROUP = 8
#: Timed runs per append mode; the gate compares the best run of each.
#: Atom and encoded runs alternate, so a slow stretch of the host (or a
#: full collection over the pre-built payload) costs both modes one
#: sample instead of the only sample of one mode.
APPEND_REPEATS = 5


def test_bench_e13_kernel():
    quick = quick_mode()
    rows_n = QUICK_ROWS if quick else ROWS
    terms_n = QUICK_TERMS if quick else TERMS
    payload = {"quick": quick}
    table = Table(
        "E13: columnar kernel micro-benches", ["section", "metric", "value"]
    )

    # -- intern: terms -> dense codes ----------------------------------
    pool = TermPool()
    constants = [Constant(f"t{i}") for i in range(terms_n)]
    encode = pool.encode
    start = time.perf_counter()
    for constant in constants:
        encode(constant)
    intern_seconds = time.perf_counter() - start
    assert len(pool) == terms_n
    payload["intern"] = {
        "terms": terms_n,
        "ns_per_op": intern_seconds / terms_n * 1e9,
        "terms_per_second": (
            terms_n / intern_seconds if intern_seconds else 0.0
        ),
    }
    table.add("intern", "ns/op", round(payload["intern"]["ns_per_op"], 1))

    # -- append: atom objects vs encoded rows --------------------------
    # Identical data down both stores' bulk-insert APIs, payload
    # pre-built outside the timed region: atoms for the frozen
    # atom-object store (``add_all`` is a plain ``add`` loop), code
    # tuples for the columnar kernel's ``extend_encoded`` — the path
    # engine seeding, result stripping and pickle rehydration ride.
    atoms = [
        Atom("R", (Constant(i // GROUP), Constant(i), Constant(i % 17)))
        for i in range(rows_n)
    ]
    pool = TermPool()
    encoded_rows = [tuple(map(pool.encode, atom.terms)) for atom in atoms]
    atom_seconds = encoded_seconds = float("inf")
    for _ in range(APPEND_REPEATS):
        reference = AtomSetStore()
        start = time.perf_counter()
        reference.add_all(atoms)
        atom_seconds = min(atom_seconds, time.perf_counter() - start)

        columnar = ColumnarInstance(pool=pool)
        start = time.perf_counter()
        columnar.extend_encoded("R", encoded_rows)
        encoded_seconds = min(encoded_seconds, time.perf_counter() - start)
        assert len(columnar) == len(reference) == rows_n

    # Per-row add_encoded (the enforce phase inserts rows one rule
    # firing at a time) tracked alongside the bulk headline.
    single = ColumnarInstance(pool=TermPool())
    single_rows = [single.encode_row(atom.terms) for atom in atoms]
    add_encoded = single.add_encoded
    start = time.perf_counter()
    for row in single_rows:
        add_encoded("R", row)
    single_seconds = time.perf_counter() - start
    assert len(single) == rows_n

    speedup = atom_seconds / encoded_seconds if encoded_seconds else 0.0
    payload["append"] = {
        "rows": rows_n,
        "atom_rows_per_second": (
            rows_n / atom_seconds if atom_seconds else 0.0
        ),
        "encoded_rows_per_second": (
            rows_n / encoded_seconds if encoded_seconds else 0.0
        ),
        "single_row_rows_per_second": (
            rows_n / single_seconds if single_seconds else 0.0
        ),
        "encoded_vs_atom_speedup": speedup,
    }
    table.add("append", "encoded vs atom speedup", round(speedup, 2))

    # -- facts_since: one generation window off the insertion log ------
    generation = columnar.bump_generation()
    for i in range(64):
        columnar.add_encoded("Delta", (i, i + 1))
    start = time.perf_counter()
    delta = columnar.rows_since(generation)
    read_seconds = time.perf_counter() - start
    assert len(delta) == 64
    payload["facts_since"] = {
        "delta_rows": len(delta),
        "read_seconds": read_seconds,
    }
    table.add("facts_since", "window read (s)", round(read_seconds, 6))

    # -- index build: cold hash index over every live row --------------
    start = time.perf_counter()
    index = columnar.encoded_index("R", (0,))
    build_seconds = time.perf_counter() - start
    assert sum(len(bucket) for bucket in index.values()) == rows_n
    payload["index_build"] = {"rows": rows_n, "build_seconds": build_seconds}
    table.add("index_build", "build (s)", round(build_seconds, 4))

    # -- probe: one key lookup per row against the live index ----------
    keys = [row[:1] for row in encoded_rows]
    lookup = index.get
    rows_touched = 0
    start = time.perf_counter()
    for key in keys:
        bucket = lookup(key)
        if bucket is not None:
            rows_touched += len(bucket)
    probe_seconds = time.perf_counter() - start
    assert rows_touched == rows_n * GROUP
    payload["probe"] = {
        "probes": rows_n,
        "ns_per_op": probe_seconds / rows_n * 1e9,
        "rows_touched": rows_touched,
    }
    table.add("probe", "ns/op", round(payload["probe"]["ns_per_op"], 1))

    print_experiment_table(table)
    record_bench_json("e13_kernel", payload)
    # The tentpole's headline number, with headroom for noisy CI boxes:
    # the full run holds ~3x (best of 5), so 2.5x failing means the encoded
    # append path genuinely regressed, not that the machine was busy.
    assert speedup >= 2.5, payload["append"]

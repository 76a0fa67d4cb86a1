"""e15: the repo benchmark — four pipeline workloads, end to end and per layer.

One workload per process (prints one JSON result as its last line)::

    python3 perfbench/run.py --workload running-dsl --seed 1 --seconds 20 --trace 0

All four workloads, each in a fresh interpreter, one after another;
writes ``BENCH_e15_pipeline.json`` (and, traced, ``TRACE_e15_<workload>.jsonl``)
into ``--out``::

    python3 perfbench/run.py --seed 1 [--trace] [--out DIR]

Each workload is a closed loop with one client and serial execution.
Request inputs are generated from the seed just before each request,
outside its timed interval, and dropped after it.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` replays the same
requests, first untraced and then layer by layer under a flight
recorder, and reports the per-layer metrics.  Every output is checked;
the process exits non-zero when a check fails, and without a result
when the program under test (``src/repro``) is missing.

Times are reported at a reference host speed.  Shared virtual CPUs
change speed by up to 2x for seconds at a time, which no median
within a run removes.  So a fixed calibration loop, part of this file
and independent of the program, is timed just before and just after
every request, and the request's wall time is scaled by
``REFERENCE_PROBE_SECONDS / probe time``.  A change to the program
moves a scaled time exactly as it moves the wall time; a change in
host speed moves the probe too and cancels out.  Unscaled wall times
are printed alongside.
"""

import time

# setup_s is measured from here: the interpreter's first statement,
# before anything of the program under test is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected" / "seed-1.json"
EXPECTED_REQUESTS = 16
"""Requests per workload whose digests ``expected/seed-1.json`` pins."""
SETUP_PROBES = 5
WORKLOAD_NAMES = ("running-dsl", "corpus-mixed", "join-triangles", "ded-search")
MAX_SPANS = 2_000_000
REFERENCE_PROBE_SECONDS = 0.0025
"""What :func:`host_probe` takes on a quiet host of the kind the
recorded numbers come from; scaled times are seconds at that speed."""
E2E_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _probe_loop() -> None:
    counts = {}
    for i in range(15_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1


def host_probe() -> float:
    """Seconds the fixed calibration loop takes now (best of two)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - start)
    return best


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e15: no program under test at {SRC / 'repro'}")


def _import_program():
    """Import the program under test from this checkout's ``src/``."""
    _require_program()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"e15: imported repro from {repro.__file__}, not {SRC}")
    import e15_layers
    import e15_workloads

    return e15_workloads, e15_layers


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]).

    The benchmark's own copy, so a change to the program's metrics code
    cannot change how end-to-end metrics are computed.
    """
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Phase:
    """One pass over a workload's request stream, with its checks."""

    def __init__(self) -> None:
        self.wall = 0.0
        """Summed request wall time."""
        self.busy = 0.0
        """Summed request time at the reference host speed."""
        self.latencies = []
        self.block_rates = []
        self.digests = []
        self.problems = []
        self.attempted = 0

    def record(self, tasks) -> None:
        self.attempted += len(tasks)
        self.problems += [task.problem for task in tasks if task.problem]
        self.digests.append(
            hashlib.sha256("".join(task.digest for task in tasks).encode()).hexdigest()
        )


def run_phase(workload, seed: int, seconds: float, call, requests=None) -> Phase:
    """Serve whole blocks of requests until ``seconds`` of request wall
    time (or exactly ``requests`` requests) are done.

    A warm-up request (index -1) runs untimed first, so lazy set-up and
    caches do not land in the first timed request; ``setup_s`` measures
    that cold cost on its own.
    """
    phase = Phase()
    workload.start()
    warm = workload.request(seed, -1)
    phase.record(workload.tasks(warm, workload.serve(warm), None))
    del warm
    index = 0
    while True:
        block_busy, block_tasks = 0.0, 0
        for _ in range(workload.block):
            request = workload.request(seed, index)
            before = host_probe()
            start = time.perf_counter()
            outcome = call(request, index)
            elapsed = time.perf_counter() - start
            scale = REFERENCE_PROBE_SECONDS / ((before + host_probe()) / 2)
            tasks = workload.tasks(request, outcome, elapsed)
            del request, outcome
            phase.record(tasks)
            phase.latencies += [t.seconds * scale for t in tasks if t.seconds is not None]
            phase.wall += elapsed
            block_busy += elapsed * scale
            block_tasks += len(tasks)
            index += 1
        phase.busy += block_busy
        phase.block_rates.append(block_tasks / block_busy)
        done = index >= requests if requests is not None else phase.wall >= seconds
        if done:
            return phase


def _setup_probe(name: str, seed: int, quick: bool):
    """One fresh interpreter: import the program, serve one cold request.

    Returns the request's time at the reference host speed (``None``
    when the probe produced none) and the probe's failed checks.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    probe = subprocess.run(command, capture_output=True, text=True, timeout=170)
    try:
        seconds, probe_seconds = map(float, probe.stdout.split()[-2:])
    except ValueError:
        return None, [f"setup probe exited {probe.returncode}: {probe.stderr.strip()[-500:]}"]
    problems = [] if probe.returncode == 0 else [f"setup probe: {probe.stderr.strip()}"]
    return seconds * REFERENCE_PROBE_SECONDS / probe_seconds, problems


def _probe_main(args) -> int:
    workloads, _ = _import_program()
    imported = time.perf_counter() - _STARTED
    workload = workloads.get_workload(args.workload, args.quick)
    request = workload.request(args.seed, -1)
    start = time.perf_counter()
    outcome = workload.serve(request)
    served = time.perf_counter() - start
    problems = [t.problem for t in workload.tasks(request, outcome, served) if t.problem]
    print(imported + served, (host_probe() + host_probe()) / 2)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    return 0


def _expected_digests(name: str, quick: bool):
    if not EXPECTED.is_file():
        return []
    pinned = json.loads(EXPECTED.read_text())
    return pinned.get("quick" if quick else "full", {}).get(name, [])


def _write_expected(name: str, quick: bool, digests) -> None:
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    pinned.setdefault("quick" if quick else "full", {})[name] = digests[:EXPECTED_REQUESTS]
    EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def measure(args) -> dict:
    """Run one workload; returns the result object."""
    workloads, layers = _import_program()
    from repro.obs.jsonl import write_trace
    from repro.obs.recorder import FlightRecorder
    from repro.relational.query import reference_evaluator

    workload = workloads.get_workload(args.workload, args.quick)
    setup, problems = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        seconds, failed = _setup_probe(args.workload, args.seed, args.quick)
        setup += [seconds] if seconds is not None else []
        problems += failed
    kernel = reference_evaluator() if args.kernel == "reference" else contextlib.nullcontext()
    with kernel:
        untraced = run_phase(
            workload,
            args.seed,
            args.seconds / 2 if args.trace else args.seconds,
            lambda request, _index: workload.serve(request),
        )
        problems += untraced.problems
        attempted = untraced.attempted + len(setup)
        if args.trace:
            recorder = FlightRecorder(max_spans=MAX_SPANS)
            traced = run_phase(
                workload,
                args.seed,
                0.0,
                lambda request, index: workload.serve_traced(request, recorder, index),
                requests=len(untraced.digests) - 1,
            )
            attempted += traced.attempted
            problems += traced.problems
            if traced.digests != untraced.digests:
                problems.append("traced outputs differ from untraced outputs")
            payload = recorder.to_payload()
            if payload["dropped_spans"]:
                problems.append(f"{payload['dropped_spans']} spans dropped")
            values = layers.layer_metrics(
                payload, traced.busy / traced.wall, traced.busy / untraced.busy
            )
            if values["trace.coverage"] < 0.95:
                problems.append(f"trace coverage {values['trace.coverage']:.3f} < 0.95")
            units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
            write_trace(
                Path(args.out) / f"TRACE_e15_{args.workload}.jsonl",
                recorder,
                meta={"command": "e15", "workload": args.workload, "seed": args.seed,
                      "wall_seconds": traced.wall},
            )
        else:
            values = {
                "throughput_rps": statistics.median(untraced.block_rates),
                "latency_p50_s": _percentile(untraced.latencies, 50),
                "latency_p90_s": _percentile(untraced.latencies, 90),
                "setup_s": statistics.median(setup) if setup else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = E2E_UNITS
    # The warm-up digest comes first, then one per timed request.
    timed = untraced.digests[1:]
    expected = _expected_digests(args.workload, args.quick) if args.seed == 1 else []
    mismatched = sum(1 for want, got in zip(expected, timed) if want != got)
    if mismatched:
        problems.append(f"{mismatched} request digests differ from {EXPECTED.name}")
    if args.write_expected:
        _write_expected(args.workload, args.quick, timed)

    print(f"e15 {args.workload}: seed {args.seed}, kernel {args.kernel}, "
          f"{len(timed)} timed requests, {untraced.wall:.2f} s wall "
          f"= {untraced.busy:.2f} s at reference speed, "
          f"{min(len(expected), len(timed))} digests checked against {EXPECTED.name}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def _suite(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    _require_program()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {"benchmark": "e15", "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "kernel": args.kernel, "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(out), "--kernel", args.kernel]
            if args.quick:
                command.append("--quick")
            run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                 timeout=max(180, 6 * args.seconds))
            lines = run.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            ok = ok and run.returncode == 0 and result["correct"]
            report["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = result
    path = out / "BENCH_e15_pipeline.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all four, each in its own)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="request wall time to measure per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced replay")
    parser.add_argument("--out", default=".", help="directory for BENCH_/TRACE_ files")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (the tier-1 smoke test)")
    parser.add_argument("--kernel", choices=("columnar", "reference"), default="columnar",
                        help="reference: run under the reference evaluator (digest cross-check)")
    parser.add_argument("--write-expected", action="store_true",
                        help=f"pin this run's first {EXPECTED_REQUESTS} request digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_expected and (args.seed != 1 or args.workload is None):
        parser.error("--write-expected pins one workload's seed-1 digests")
    if args.setup_probe:
        return _probe_main(args)
    if args.seconds is None:
        benchmark = ROOT / "BENCHMARK.json"
        args.seconds = json.loads(benchmark.read_text())["run_seconds"] if benchmark.is_file() else 20
    if args.workload is None:
        return _suite(args)
    result = measure(args)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

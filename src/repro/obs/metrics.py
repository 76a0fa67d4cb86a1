"""Named counters, gauges and histograms for the flight recorder.

One :class:`MetricsRegistry` per recorder unifies the statistics that
used to live in per-subsystem ad-hoc objects — chase
:class:`~repro.chase.result.ChaseStats` counters, plan-cache compile
counts, rewrite-cache hit/miss tallies, ded-search branch timings — under
one namespace:

* ``chase.*``   — semantic chase counters; **bit-identical across
  the serial and process execution tiers** (the determinism suite
  asserts this).
* ``plan.*``    — plan-cache compiles/recompiles; may legitimately
  differ across tiers (forked workers compile in their own copy).
* ``instance.*`` — storage-side counters (index builds).
* ``datalog.*`` — semi-naive materialization passes and derived facts.
* ``cache.*``   — rewrite-cache behaviour.
* ``search.*``  — greedy ded sweep bookkeeping (branch timings,
  selections answered from a nogood).

Histograms keep exact ``count``/``sum``/``min``/``max`` and a bounded
sample buffer for quantiles (first ``sample_cap`` observations; the
runs this repo profiles stay far below the cap, and the summary is
explicit about ``count`` vs ``len(samples)`` so truncation is visible).

Merging snapshots is deterministic and commutative for counters and
histograms (sums); gauges take the merged-in value (last write wins in
merge order), which callers keep deterministic by merging workers in a
fixed order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["Histogram", "MetricsRegistry", "NullMetrics", "percentile"]

#: Default bound on stored histogram samples (quantile precision only;
#: count/sum/min/max stay exact past it).
DEFAULT_SAMPLE_CAP = 4096


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list (q in [0,100])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Histogram:
    """Exact count/sum/min/max plus a bounded sample buffer."""

    __slots__ = ("count", "total", "min", "max", "samples", "_cap")

    def __init__(self, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self._cap = sample_cap

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self._cap:
            self.samples.append(value)

    def quantile(self, q: float) -> Optional[float]:
        if not self.samples:
            return None
        return percentile(self.samples, q)

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest with the p50/p99 the service layer exports."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(50),
            "p99": self.quantile(99),
            "sampled": len(self.samples),
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another histogram's snapshot (count/sum exact, samples
        concatenated up to the cap)."""
        self.count += int(snapshot.get("count", 0))
        self.total += float(snapshot.get("sum", 0.0))
        for bound, better in (("min", min), ("max", max)):
            value = snapshot.get(bound)
            if value is not None:
                mine = getattr(self, bound)
                setattr(
                    self,
                    bound,
                    float(value) if mine is None else better(mine, float(value)),
                )
        for value in snapshot.get("samples", ()):
            if len(self.samples) >= self._cap:
                break
            self.samples.append(float(value))


class MetricsRegistry:
    """Named counters, gauges and histograms."""

    enabled = True

    __slots__ = ("_counters", "_gauges", "_histograms", "_sample_cap")

    def __init__(self, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sample_cap = sample_cap

    # -- writing -----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(self._sample_cap)
            self._histograms[name] = histogram
        histogram.observe(value)

    # -- reading / shipping ------------------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe copy: what a worker ships to its parent.

        Histograms travel with their raw (bounded) samples so the parent
        can merge and still answer quantile questions.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "count": histogram.count,
                    "sum": histogram.total,
                    "min": histogram.min,
                    "max": histogram.max,
                    "samples": list(histogram.samples),
                }
                for name, histogram in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: Optional[Dict[str, object]]) -> None:
        """Fold a worker's snapshot in: counters/histograms add, gauges
        take the incoming value."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, digest in snapshot.get("histograms", {}).items():
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(self._sample_cap)
                self._histograms[name] = histogram
            histogram.merge(digest)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class NullMetrics:
    """The disabled registry: every operation is a no-op."""

    enabled = False

    __slots__ = ()

    def count(self, _name: str, _value: float = 1) -> None:
        pass

    def gauge(self, _name: str, _value: float) -> None:
        pass

    def observe(self, _name: str, _value: float) -> None:
        pass

    def counter_value(self, _name: str) -> float:
        return 0

    def histogram(self, _name: str) -> None:
        return None

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, _snapshot) -> None:
        pass

    def __len__(self) -> int:
        return 0

"""Deterministic metrics registry: counters, gauges, histograms, series.

Every metric lives in a :class:`MetricsRegistry` keyed by a stable name.
Values are plain Python numbers updated by explicit calls — there is no
background sampling thread and no wall clock anywhere, so a registry's
:meth:`~MetricsRegistry.snapshot` is a pure function of the simulated
execution that produced it: two seeded runs yield byte-identical
snapshots.

Four metric kinds cover the repo's needs:

- :class:`Counter` — monotonically increasing total (messages sent,
  probes fired, violations raised);
- :class:`Gauge` — last-written value (current queue depth, active
  configuration index);
- :class:`Histogram` — fixed-bucket distribution (settle latency,
  negotiation depth); bucket edges are chosen at creation and never
  change, so merged/compared snapshots always line up;
- :class:`TimeSeries` — explicit ``(time, value)`` samples, the storage
  behind the usage accountant's utilization series.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TimeSeries",
]


class MetricError(Exception):
    """Raised on metric misuse (name/type conflicts, bad buckets)."""


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (n={n!r})")
        self.value += n

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value (plus how often it was written)."""

    kind = "gauge"
    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value, "updates": self.updates}


class Histogram:
    """Fixed-bucket distribution.

    ``edges`` are strictly increasing upper bounds: an observation ``v``
    lands in the first bucket whose edge satisfies ``v <= edge``; values
    above the last edge land in the implicit overflow bucket, so
    ``len(counts) == len(edges) + 1`` and every value is counted.
    """

    kind = "histogram"
    __slots__ = ("name", "edges", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, edges: Sequence[float]):
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise MetricError(f"histogram {name!r} needs at least one edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram {name!r} edges must be strictly increasing: {edges!r}"
            )
        self.name = name
        self.edges: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
        }


class TimeSeries:
    """Explicit ``(time, value)`` samples, in record order."""

    kind = "series"
    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def record(self, t: float, value: float) -> None:
        self.samples.append((float(t), float(value)))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "samples": [list(s) for s in self.samples]}


Metric = Union[Counter, Gauge, Histogram, TimeSeries]


class MetricsRegistry:
    """Name -> metric table with get-or-create accessors.

    Accessors are idempotent: repeated calls with the same name return the
    same object; a name reused with a different metric kind (or different
    histogram edges) is a :class:`MetricError` — silent shape drift would
    make snapshots incomparable across runs.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        #: Optional time source (the bound recorder's virtual clock);
        #: only convenience helpers use it, metrics never read it silently.
        self.clock = clock
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str) -> Counter:
        # Hot path (instrumented code calls this per sample): plain dict
        # hit with no closure allocation.
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        elif not isinstance(metric, Counter):
            raise MetricError(f"{name!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge(name)
        elif not isinstance(metric, Gauge):
            raise MetricError(f"{name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            if edges is None:
                raise MetricError(
                    f"histogram {name!r} does not exist yet; pass edges"
                )
            metric = Histogram(name, edges)
            self._metrics[name] = metric
        if not isinstance(metric, Histogram):
            raise MetricError(f"{name!r} is a {metric.kind}, not a histogram")
        if edges is not None and tuple(float(e) for e in edges) != metric.edges:
            raise MetricError(
                f"histogram {name!r} already exists with edges {metric.edges!r}"
            )
        return metric

    def series(self, name: str) -> TimeSeries:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = TimeSeries(name)
        elif not isinstance(metric, TimeSeries):
            raise MetricError(f"{name!r} is a {metric.kind}, not a series")
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Plain-dict export, keys in sorted order (JSON-stable)."""
        return {name: self._metrics[name].to_dict() for name in self.names()}

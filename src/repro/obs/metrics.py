"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

One registry serves every layer of the stack (pipeline, streaming gate,
engine, fault injector, chat/net).  Its design constraint comes from the
execution engine's determinism promise: per-worker metrics collected
under ``ExecutionEngine.map`` must combine to the *bit-identical* result
whether the tasks ran serially or on a process pool.  Hence:

* every instrument merges **associatively and commutatively** — counters
  and gauges add, histograms add bucket-wise (same bounds required);
* snapshots are **canonically ordered** (sorted by name, labels, kind),
  so two equal registries produce equal snapshots regardless of the
  order series were first touched;
* only *deterministic* quantities belong in the registry (counts,
  seeded draws, signal-quality fractions).  Wall-clock durations go to
  spans (:mod:`repro.obs.tracing`) — never into metrics that are part
  of a pool-vs-serial identity check.
"""

from __future__ import annotations

import bisect
import dataclasses

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SeriesSnapshot",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_FRACTION_BUCKETS",
    "quantile_from_buckets",
]

#: Log-spaced duration buckets (seconds): 100 µs .. 10 s, the range a
#: 10 Hz pipeline stage or a network jitter draw can plausibly land in.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Linear buckets for [0, 1] quantities (quality fractions, hit rates).
DEFAULT_FRACTION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Canonical label encoding: sorted (key, value) string pairs.
LabelSet = tuple[tuple[str, str], ...]


def _label_set(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (ints stay ints; floats allowed
    for accumulated quantities like seconds)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last-set value; merges additively (see :meth:`MetricsRegistry.merge_snapshot`)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram: finite upper bounds plus an implicit +inf.

    Bounds are part of the series identity — merging histograms with
    different bounds is an error, not a silent resample.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        return quantile_from_buckets(self.bounds, tuple(self.bucket_counts), q)


def quantile_from_buckets(
    bounds: tuple[float, ...], bucket_counts: tuple[int, ...], q: float
) -> float:
    """Estimate the q-quantile from fixed-bucket counts.

    Prometheus-style: linear interpolation inside the bucket the rank
    falls into; the overflow (+inf) bucket reports the highest finite
    bound (there is no upper edge to interpolate toward).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if len(bucket_counts) != len(bounds) + 1:
        raise ValueError("bucket_counts must have len(bounds) + 1 entries")
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, n in enumerate(bucket_counts):
        if n == 0:
            continue
        if cumulative + n >= rank:
            if i == len(bounds):  # overflow bucket
                return bounds[-1]
            lower = 0.0 if i == 0 else bounds[i - 1]
            upper = bounds[i]
            within = max(rank - cumulative, 0.0) / n
            return lower + (upper - lower) * within
        cumulative += n
    return bounds[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclasses.dataclass(frozen=True)
class SeriesSnapshot:
    """Immutable state of one (kind, name, labels) series."""

    kind: str
    name: str
    labels: LabelSet
    value: float = 0  # counter / gauge
    bounds: tuple[float, ...] = ()  # histogram
    bucket_counts: tuple[int, ...] = ()
    sum: float = 0.0
    count: int = 0

    @property
    def sort_key(self) -> tuple:
        return (self.name, self.labels, self.kind)

    def to_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
        }
        if self.kind == "histogram":
            out["bounds"] = list(self.bounds)
            out["bucket_counts"] = list(self.bucket_counts)
            out["sum"] = self.sum
            out["count"] = self.count
        else:
            out["value"] = self.value
        return out


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """Canonically ordered, immutable view of a whole registry.

    :meth:`MetricsRegistry.merge_snapshot` folds one into live
    instruments associatively and commutatively, so per-worker snapshots
    combine to the same result in any grouping — the property the
    pool-vs-serial identity tests pin down.
    """

    series: tuple[SeriesSnapshot, ...] = ()

    def _lookup(self, name: str, kind: str | None, labels: dict[str, object]):
        wanted = _label_set(labels)
        for s in self.series:
            if s.name == name and s.labels == wanted and (kind is None or s.kind == kind):
                return s
        return None

    # ``kind`` is positional-or-keyword here but label kwargs go through
    # ``labels`` internally, so a metric may itself carry a label literally
    # named "kind" (counter_value does: faults_injected_total{kind=...}).
    def get(self, name: str, kind: str | None = None, **labels: object):
        """The matching series, or ``None``."""
        return self._lookup(name, kind, labels)

    def counter_value(self, name: str, **labels: object) -> float:
        found = self._lookup(name, "counter", labels)
        return found.value if found is not None else 0

    def to_dict(self) -> dict:
        return {"series": [s.to_dict() for s in self.series]}


class MetricsRegistry:
    """Mutable home of every instrument; hand out via get-or-create.

    A (name, labels) pair is bound to one kind for the registry's
    lifetime — asking for the same series as a different kind raises
    instead of silently shadowing.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelSet], object] = {}

    def __len__(self) -> int:
        return len(self._series)

    def _get_or_create(self, cls, name: str, labels: dict[str, object], **kwargs):
        key = (name, _label_set(labels))
        found = self._series.get(key)
        if found is None:
            found = cls(name, key[1], **kwargs)
            self._series[key] = found
        elif not isinstance(found, cls):
            raise TypeError(
                f"series {name!r} {dict(key[1])} is a {type(found).kind}, "
                f"not a {cls.kind}"
            )
        return found

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        **labels: object,
    ) -> Histogram:
        found = self._get_or_create(Histogram, name, labels, bounds=buckets)
        if found.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with bounds {found.bounds}"
            )
        return found

    def get(self, name: str, **labels: object):
        """The live instrument for (name, labels), or ``None``."""
        return self._series.get((name, _label_set(labels)))

    def snapshot(self) -> MetricsSnapshot:
        out = []
        for instrument in self._series.values():
            if isinstance(instrument, Histogram):
                out.append(
                    SeriesSnapshot(
                        kind="histogram",
                        name=instrument.name,
                        labels=instrument.labels,
                        bounds=instrument.bounds,
                        bucket_counts=tuple(instrument.bucket_counts),
                        sum=instrument.sum,
                        count=instrument.count,
                    )
                )
            else:
                out.append(
                    SeriesSnapshot(
                        kind=instrument.kind,
                        name=instrument.name,
                        labels=instrument.labels,
                        value=instrument.value,
                    )
                )
        return MetricsSnapshot(series=tuple(sorted(out, key=lambda s: s.sort_key)))

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker's) snapshot into the live instruments."""
        for s in snapshot.series:
            labels = dict(s.labels)
            if s.kind == "counter":
                self.counter(s.name, **labels).inc(s.value)
            elif s.kind == "gauge":
                self.gauge(s.name, **labels).inc(s.value)
            else:
                hist = self.histogram(s.name, buckets=s.bounds, **labels)
                for i, n in enumerate(s.bucket_counts):
                    hist.bucket_counts[i] += n
                hist.sum += s.sum
                hist.count += s.count

    def __repr__(self) -> str:
        return f"MetricsRegistry(series={len(self._series)})"

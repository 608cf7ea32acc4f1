"""Labeled metric instruments and the registry that owns them.

The observability layer's core: a :class:`MetricsRegistry` hands out named
:class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments, each of
which fans out into one *series* per label set (``switch=sw0, port=0,
queue=7``).  The dataplane binds its series once at build time.  Where it
already counts a quantity itself (a queue's length, a pool's slots in use,
frames received), the series is a :class:`SeriesView` that reads that count
when the registry is read, so the hot path pushes nothing for it.

Conventions follow the Prometheus data model loosely (monotonic counters,
set/inc gauges with high-water tracking, cumulative histogram buckets) but
everything snapshots to plain dicts/JSON so downstream tooling needs no
dependency on this package.  Latency histograms default to log-scale
nanosecond buckets (:data:`DEFAULT_LATENCY_BUCKETS_NS`) because TSN latency
spans six orders of magnitude -- sub-microsecond cut-through all the way to
multi-millisecond CQF slot waits.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "Counter",
    "CounterSeries",
    "Gauge",
    "GaugeSeries",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "SeriesView",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS_NS",
]

#: One label set, canonicalized: sorted ``(key, value)`` string pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def log_buckets(lo: int, hi: int, factor: float = 2.0) -> Tuple[int, ...]:
    """Geometric bucket bounds from *lo* up to at least *hi* (inclusive)."""
    if lo <= 0 or hi < lo:
        raise ConfigurationError(
            f"bucket range must satisfy 0 < lo <= hi, got [{lo}, {hi}]"
        )
    if factor <= 1.0:
        raise ConfigurationError(f"bucket factor must exceed 1, got {factor}")
    bounds: List[int] = []
    edge = float(lo)
    while True:
        bound = int(round(edge))
        if not bounds or bound > bounds[-1]:
            bounds.append(bound)
        if bound >= hi:
            break
        edge *= factor
    return tuple(bounds)


#: 64 ns .. ~1.1 s in powers of two -- covers serialization times, per-hop
#: residence, and whole-path latencies at every slot size the paper sweeps.
DEFAULT_LATENCY_BUCKETS_NS = log_buckets(64, 2**30)


class CounterSeries:
    """One monotonic counter series; the hot-path handle."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters are monotonic; cannot add {amount}"
            )
        self.value += amount


class GaugeSeries:
    """One gauge series with high-water (max observed) tracking."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0
        self.high_water = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class HistogramSeries:
    """One histogram series: cumulative-style buckets plus summary stats."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[int]) -> None:
        self.bounds = tuple(bounds)
        # One count per bound, plus the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        # The first bucket whose bound is >= value; past the last bound,
        # the overflow bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[int]:
        """Upper bound of the bucket containing the *q*-quantile observation.

        A bucketed estimate (exact values are not retained); ``None`` when
        the series is empty.  The overflow bucket reports the observed max.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = max(1, int(round(q * self.count)))
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max


class SeriesView:
    """A read-only series whose fields are read from state kept elsewhere.

    *value* (and, for a gauge, *high_water*) are zero-argument callables
    over counts the dataplane keeps anyway; nothing is pushed per frame.
    """

    __slots__ = ("_value", "_high_water")

    def __init__(self, value, high_water=None) -> None:
        self._value = value
        self._high_water = high_water

    @property
    def value(self):
        return self._value()

    @property
    def high_water(self):
        return self._high_water()


class _Instrument:
    """Shared naming/series bookkeeping of one registered instrument."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, Any] = {}

    def _new_series(self) -> Any:
        raise NotImplementedError

    def labels(self, **labels: Any) -> Any:
        """The series for this label set, created on first use.

        This is the binding step: hold the returned series and update it
        directly on the hot path.
        """
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._new_series()
        return series

    def view(self, view: SeriesView, **labels: Any) -> SeriesView:
        """Install *view* as the series of this label set."""
        self._series[_label_key(labels)] = view
        return view

    def series(self) -> Iterator[Tuple[LabelKey, Any]]:
        return iter(sorted(self._series.items()))

    def _series_snapshot(self, series: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), **self._series_snapshot(series)}
                for key, series in self.series()
            ],
        }


class Counter(_Instrument):
    """A monotonically increasing count, per label set."""

    kind = "counter"

    def _new_series(self) -> CounterSeries:
        return CounterSeries()

    def inc(self, amount: int = 1, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> int:
        key = _label_key(labels)
        series = self._series.get(key)
        return series.value if series is not None else 0

    def total(self) -> int:
        """Sum over every series (all label sets)."""
        return sum(series.value for series in self._series.values())

    def _series_snapshot(self, series: CounterSeries) -> Dict[str, Any]:
        return {"value": series.value}


class Gauge(_Instrument):
    """A point-in-time level with high-water tracking, per label set."""

    kind = "gauge"

    def _new_series(self) -> GaugeSeries:
        return GaugeSeries()

    def set(self, value: float, **labels: Any) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.labels(**labels).dec(amount)

    def value(self, **labels: Any) -> float:
        key = _label_key(labels)
        series = self._series.get(key)
        return series.value if series is not None else 0

    def high_water(self, **labels: Any) -> float:
        key = _label_key(labels)
        series = self._series.get(key)
        return series.high_water if series is not None else 0

    def max_high_water(self) -> float:
        """Worst high-water over every series (sizing-study shortcut)."""
        return max(
            (series.high_water for series in self._series.values()), default=0
        )

    def _series_snapshot(self, series: GaugeSeries) -> Dict[str, Any]:
        return {"value": series.value, "high_water": series.high_water}


class Histogram(_Instrument):
    """A bucketed distribution, per label set.

    *buckets* are ascending upper bounds; observations beyond the last
    bound land in an implicit overflow bucket.  The default suits
    nanosecond latencies.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else (
            DEFAULT_LATENCY_BUCKETS_NS
        )
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs buckets")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly ascending"
            )
        self.bounds = bounds

    def _new_series(self) -> HistogramSeries:
        return HistogramSeries(self.bounds)

    def observe(self, value: int, **labels: Any) -> None:
        self.labels(**labels).observe(value)

    def _series_snapshot(self, series: HistogramSeries) -> Dict[str, Any]:
        return {
            "count": series.count,
            "sum": series.sum,
            "min": series.min,
            "max": series.max,
            "mean": series.mean,
            "p50": series.quantile(0.50),
            "p95": series.quantile(0.95),
            "p99": series.quantile(0.99),
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(series.bounds, series.bucket_counts)
            ]
            + [{"le": "inf", "count": series.bucket_counts[-1]}],
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Owns every instrument of one run; snapshot-to-dict/JSON.

    Requesting an existing name returns the same instrument, so components
    built independently (one :class:`~repro.switch.device.TsnSwitch` per
    topology node) share series space under common metric names.

    >>> registry = MetricsRegistry()
    >>> depth = registry.gauge("queue_depth").labels(switch="sw0", queue=7)
    >>> depth.set(3); depth.set(1)
    >>> registry.gauge("queue_depth").high_water(switch="sw0", queue=7)
    3
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(
            self._instruments[name] for name in sorted(self._instruments)
        )

    def _get(self, name: str, kind: str, factory) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} is a {existing.kind}, not a {kind}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[int]] = None,
    ) -> Histogram:
        return self._get(
            name, "histogram", lambda: Histogram(name, help, buckets)
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's series as one JSON-compatible dict."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

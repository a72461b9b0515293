"""Bounded metrics primitives: counters, gauges, histograms, and a registry.

The serving layer used to keep every latency sample in an unbounded Python
list, which is both a memory leak on a long-lived server and useless for
export (nobody scrapes a million floats).  This module replaces those lists
with three fixed-footprint primitives:

* :class:`Counter` -- a monotonically increasing float with a label set.
* :class:`Gauge` -- a point-in-time value (queue depth, active shards).
* :class:`Histogram` -- a **bounded** sample store: a ring buffer of the
  most recent ``capacity`` observations plus one P² (piecewise-parabolic,
  Jain & Chlamtac 1985) streaming estimator per tracked quantile, together
  with exact running count/sum/min/max.  While the total observation count
  is at most ``capacity`` the ring holds *every* sample and percentiles are
  exact; beyond that the tracked quantiles come from the P² sketches (which
  never forget) and untracked ones fall back to the retained window.

:class:`MetricsRegistry` names and stores the metrics.  A metric identity is
``(name, sorted label items)``; asking for the same identity twice returns
the same object.  The serving layer declares its families once, in
:mod:`repro.serving.telemetry`, whose recorders hold the returned handles
and whose getters read the registry back; the exporters in
:mod:`repro.obs.export` render it for scraping.

All values here are *simulated* seconds/counts from the GPU cost model --
the registry never reads a wall clock.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    """Canonical (sorted, stringified) identity of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    Keeps five markers (min, two intermediates, the target quantile, max)
    and adjusts them with a piecewise-parabolic update per observation --
    O(1) memory and time, no sample retention.  Exact until five samples
    have arrived.
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be strictly between 0 and 1")
        self.p = float(p)
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def observe(self, x: float) -> None:
        x = float(x)
        self._count += 1
        h = self._heights
        if len(h) < 5:
            h.append(x)
            h.sort()
            return
        # Locate the marker cell containing x, adjusting the extremes.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        pos = self._positions
        for i in range(k + 1, 5):
            pos[i] += 1.0
        des = self._desired
        for i in range(5):
            des[i] += self._increments[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = des[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def value(self) -> Optional[float]:
        """Current estimate (exact below five samples, None when empty)."""
        if self._count == 0:
            return None
        h = self._heights
        if self._count <= len(h) or len(h) < 5:
            arr = np.asarray(h[: self._count], dtype=np.float64)
            return float(np.percentile(arr, self.p * 100.0))
        return float(h[2])


class Counter:
    """A monotonically increasing value (floats allowed: seconds counters)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded sample store: recent-sample ring + P² quantile sketches.

    Parameters
    ----------
    capacity:
        Ring-buffer size.  Percentiles are exact while the total observation
        count is at most ``capacity``; ``recent_percentile(window=w)`` stays
        exact forever for any ``w <= capacity``.
    quantiles:
        Percentile ranks (0-100) tracked by P² sketches across the *whole*
        stream, so headline quantiles never silently narrow to the retained
        window once the ring wraps.
    """

    #: Per-call cap on samples fed to the P² sketches by ``observe_many``.
    #: Bulk loads are strided down to this many updates so a million-sample
    #: ingest costs thousands -- not millions -- of Python-level iterations,
    #: while per-sample ``observe`` still feeds every point.
    P2_BULK_FEED = 4096

    __slots__ = ("name", "labels", "capacity", "_lock", "_ring", "_count", "_sum", "_min", "_max", "_p2")

    def __init__(
        self,
        name: str = "",
        labels: Optional[Dict[str, str]] = None,
        capacity: int = 4096,
        quantiles: Iterable[float] = (50.0, 95.0, 99.0),
    ) -> None:
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        self.name = name
        self.labels = dict(labels or {})
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring = np.zeros(self.capacity, dtype=np.float64)
        self._count = 0
        self._sum = 0.0
        self._min = np.inf
        self._max = -np.inf
        self._p2 = {float(q): P2Quantile(float(q) / 100.0) for q in quantiles}

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._ring[self._count % self.capacity] = value
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            for sketch in self._p2.values():
                sketch.observe(value)

    def observe_many(self, values: np.ndarray) -> None:
        """Vectorised bulk ingest (ring + aggregates exact, P² strided)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        with self._lock:
            cap = self.capacity
            if arr.size >= cap:
                # Only the last ``cap`` samples survive; lay them down in order.
                tail = arr[-cap:]
                start = (self._count + arr.size - cap) % cap
                split = cap - start
                self._ring[start:] = tail[:split]
                self._ring[:start] = tail[split:]
            else:
                start = self._count % cap
                split = min(cap - start, arr.size)
                self._ring[start : start + split] = arr[:split]
                self._ring[: arr.size - split] = arr[split:]
            self._count += int(arr.size)
            self._sum += float(arr.sum())
            self._min = min(self._min, float(arr.min()))
            self._max = max(self._max, float(arr.max()))
            feed = arr
            if arr.size > self.P2_BULK_FEED:
                stride = arr.size // self.P2_BULK_FEED
                feed = arr[::stride]
            for sketch in self._p2.values():
                for value in feed:
                    sketch.observe(value)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Samples retained in the ring (bounded by ``capacity``)."""
        return min(self._count, self.capacity)

    @property
    def count(self) -> int:
        """Total observations ever (exact, unbounded counter)."""
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean over the whole stream (0 when empty)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    @property
    def min(self) -> float:
        return float(self._min) if self._count else 0.0

    @property
    def max(self) -> float:
        return float(self._max) if self._count else 0.0

    def values(self) -> np.ndarray:
        """Retained samples, oldest first (a copy)."""
        with self._lock:
            return self._values_locked()

    def _values_locked(self) -> np.ndarray:
        if self._count <= self.capacity:
            return self._ring[: self._count].copy()
        cursor = self._count % self.capacity
        return np.concatenate([self._ring[cursor:], self._ring[:cursor]])

    def percentile(self, q: float) -> Optional[float]:
        """Percentile at rank ``q`` (0-100); None when empty.

        Exact while ``count <= capacity``.  Beyond that, tracked quantiles
        come from their P² sketch (whole-stream) and untracked ranks from
        the retained window.
        """
        with self._lock:
            if self._count == 0:
                return None
            if self._count <= self.capacity:
                return float(np.percentile(self._ring[: self._count], q))
            sketch = self._p2.get(float(q))
            if sketch is not None:
                return sketch.value
            return float(np.percentile(self._values_locked(), q))

    def recent_percentile(self, q: float, window: int) -> Optional[float]:
        """Exact percentile over the last ``window`` samples (None when empty)."""
        with self._lock:
            if self._count == 0:
                return None
            tail = self._values_locked()[-int(window) :]
        return float(np.percentile(tail, q))

    def tracked_quantiles(self) -> Tuple[float, ...]:
        return tuple(self._p2)

    def reset(self) -> None:
        """Restart the histogram as if freshly constructed (whole stream).

        Everything restarts together: the exact aggregates (``count``,
        ``sum``, ``min``, ``max``), the P² whole-stream sketches, *and* the
        sample ring.  The ring must be zeroed, not just logically emptied
        via ``_count = 0``: ``observe_many``'s wrap-around layout and the
        ``_values_locked`` views index the ring relative to ``_count``, and
        leaving pre-reset samples in the buffer would let a later code path
        that trusts ``capacity``-bounded reads resurface data from before
        the reset.  A reset histogram is indistinguishable from a new one.
        """
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = np.inf
            self._max = -np.inf
            self._ring.fill(0.0)
            self._p2 = {q: P2Quantile(q / 100.0) for q in self._p2}


class MetricsRegistry:
    """Named metric families with label sets.

    ``counter``/``gauge``/``histogram`` get-or-create: the first call fixes
    the metric type for that name, and every later call with the same name
    and labels returns the same object.  ``families()`` yields the data the
    exporters render; ``reset()`` zeroes every counter and histogram but
    keeps the registrations (a scrape endpoint should not forget its series
    on telemetry reset).  Gauges are left alone: they hold current state
    (queue depth, active shards, passivated sessions, calibration factors,
    SLO standing), which a reset does not change.
    """

    def __init__(self, histogram_capacity: int = 4096) -> None:
        self.histogram_capacity = int(histogram_capacity)
        self._lock = threading.Lock()
        self._types: Dict[str, str] = {}
        self._metrics: "Dict[str, Dict[LabelKey, object]]" = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: Dict[str, str], factory):
        with self._lock:
            existing = self._types.get(name)
            if existing is None:
                self._types[name] = kind
                self._metrics[name] = {}
            elif existing != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {existing}, not a {kind}"
                )
            series = self._metrics[name]
            key = _label_key(labels)
            metric = series.get(key)
            if metric is None:
                metric = factory()
                series[key] = metric
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(
        self,
        name: str,
        capacity: Optional[int] = None,
        quantiles: Iterable[float] = (50.0, 95.0, 99.0),
        **labels: str,
    ) -> Histogram:
        cap = self.histogram_capacity if capacity is None else int(capacity)
        return self._get_or_create(
            "histogram",
            name,
            labels,
            lambda: Histogram(name, labels, capacity=cap, quantiles=quantiles),
        )

    # ------------------------------------------------------------------
    def get(self, name: str, **labels: str):
        """Existing metric for (name, labels), or None."""
        with self._lock:
            series = self._metrics.get(name)
            if series is None:
                return None
            return series.get(_label_key(labels))

    def series(self, name: str) -> List[object]:
        """Every labelled child of one family, in first-seen order."""
        with self._lock:
            return list(self._metrics.get(name, {}).values())

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values one label has taken in a family (first-seen order)."""
        out: List[str] = []
        with self._lock:
            for key in self._metrics.get(name, {}):
                for k, v in key:
                    if k == label and v not in out:
                        out.append(v)
        return out

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across label sets."""
        with self._lock:
            series = self._metrics.get(name)
            if not series:
                return 0.0
            return float(sum(m.value for m in series.values()))

    def labelled_values(self, name: str, label: str) -> Dict[str, float]:
        """``{label value: value}`` breakdown of a counter/gauge family.

        Children carrying the same label value (with further labels) are
        summed; children missing the label are skipped.  This is the read
        side of per-reason / per-lane counter families, so callers need no
        shadow dict of the children they created.
        """
        out: Dict[str, float] = {}
        with self._lock:
            for key, metric in self._metrics.get(name, {}).items():
                for k, v in key:
                    if k == label:
                        out[v] = out.get(v, 0.0) + float(metric.value)
        return out

    def families(self) -> List[Tuple[str, str, List[object]]]:
        """``(name, type, metrics)`` triples sorted by name (for exporters)."""
        with self._lock:
            return [
                (name, self._types[name], list(self._metrics[name].values()))
                for name in sorted(self._metrics)
            ]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every counter and histogram; gauges keep their current value.

        Registrations and label sets survive.
        """
        with self._lock:
            for name, series in self._metrics.items():
                if self._types[name] != "gauge":
                    for metric in series.values():
                        metric.reset()

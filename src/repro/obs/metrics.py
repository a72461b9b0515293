"""Bounded metrics primitives: counters, gauges, histograms, and a registry.

The serving layer used to keep every latency sample in an unbounded Python
list, which is both a memory leak on a long-lived server and useless for
export (nobody scrapes a million floats).  This module replaces those lists
with three fixed-footprint primitives:

* :class:`Counter` -- a monotonically increasing float with a label set.
* :class:`Gauge` -- a point-in-time value (queue depth, active shards).
* :class:`Histogram` -- a **bounded** sample store: a ring buffer of the
  most recent ``capacity`` observations plus one table of log-bucket counts
  over the whole stream (relative-error buckets in the style of DDSketch,
  Masson, Rim & Lee, VLDB 2019), together with exact running
  count/sum/min/max.  While the total observation count is at most
  ``capacity`` the ring holds *every* sample and percentiles are exact;
  beyond that every rank is read from the bucket table, within relative
  error :data:`ALPHA` of the sample at that rank.

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

import math
import threading
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ALPHA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Relative accuracy of a past-capacity histogram percentile.  A finite
#: positive sample ``x`` counts in bucket ``ceil(log(x) / log(GAMMA))``,
#: which spans ``(GAMMA**(i-1), GAMMA**i]``; its midpoint
#: ``2 * GAMMA**i / (GAMMA + 1)`` is within ``ALPHA`` of every value in it.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)
#: Key of the one bucket that holds every other sample (zero, negative, NaN,
#: +-inf).  It sorts below every log bucket, and its midpoint reads as 0.
_ZERO_BUCKET = -(1 << 62)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    """Canonical (sorted, stringified) identity of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _bucket_keys(arr: np.ndarray) -> np.ndarray:
    """:meth:`Histogram.observe`'s bucket key of every sample, vectorised.

    ``np.log`` and ``math.log`` may differ in the last place, which moves a
    key only where ``log(x) / log(GAMMA)`` sits at an integer; those few
    samples are keyed again by ``observe``'s own ``math.log`` expression.
    """
    keys = np.full(arr.size, _ZERO_BUCKET, dtype=np.int64)
    positive = np.flatnonzero((arr > 0.0) & (arr < np.inf))
    if positive.size:
        q = np.log(arr[positive]) / _LOG_GAMMA
        keys[positive] = np.ceil(q)
        for i in positive[np.abs(q - np.rint(q)) < 1e-6].tolist():
            keys[i] = math.ceil(math.log(arr[i]) / _LOG_GAMMA)
    return keys


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
    """Bounded sample store: recent-sample ring + log-bucket counts.

    Parameters
    ----------
    capacity:
        Ring-buffer size.  Percentiles are exact while the total observation
        count is at most ``capacity``; ``recent_percentile(window=w)`` stays
        exact forever for any ``w <= capacity``.

    Every sample is also counted in one bucket of a whole-stream table (see
    :data:`ALPHA`), so past capacity no rank narrows to the retained window.
    The table grows with the values' dynamic range, about 115 buckets per
    decade, not with the sample count.
    """

    __slots__ = ("name", "labels", "capacity", "_lock", "_ring", "_count", "_sum", "_min", "_max", "_buckets")

    def __init__(
        self,
        name: str = "",
        labels: Optional[Dict[str, str]] = None,
        capacity: int = 4096,
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
        self._buckets: Dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one lock, one bucket lookup).

        The state afterwards equals ``count`` separate calls bit for bit:
        ring slots, count, min/max, buckets, and ``sum`` by repeated addition.
        """
        value = float(value)
        count = int(count)
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        if 0.0 < value < math.inf:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
        else:
            key = _ZERO_BUCKET
        with self._lock:
            cap = self.capacity
            start = self._count % cap
            if count == 1:
                self._ring[start] = value
            else:
                # ``count >= cap`` fills the whole ring, as that many calls would.
                stop = start + min(count, cap)
                self._ring[start:stop] = value
                self._ring[: max(stop - cap, 0)] = value
            self._count += count
            for _ in range(count):
                self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._buckets[key] += count

    def observe_many(self, values: np.ndarray) -> None:
        """Record every value of ``values`` in order, in one lock section.

        The state afterwards equals one :meth:`observe` call per value bit
        for bit: ring slots, count, ``sum`` as the same sequential running
        sum, ``min``/``max`` as the first value that beat the running
        extreme (NaN never does), and bucket keys by the same ``math.log``
        expression, counted in sample order.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        keys = _bucket_keys(arr).tolist()
        # Seeded in-order prefix sum: the additions ``observe`` makes, in its order.
        total = np.empty(arr.size + 1)
        total[1:] = arr
        lowest = highest = None
        seen = arr[~np.isnan(arr)]
        if seen.size:
            lowest, highest = seen.min(), seen.max()
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
            total[0] = self._sum
            with np.errstate(over="ignore", invalid="ignore"):  # float += is silent too
                self._sum = float(np.add.accumulate(total)[-1])
            # A running extreme moves only on a strict improvement, so it
            # ends on the first sample equal to the batch's extreme (which
            # keeps the sign of a first-seen zero).
            if lowest is not None and lowest < self._min:
                self._min = float(seen[np.argmax(seen == lowest)])
            if highest is not None and highest > self._max:
                self._max = float(seen[np.argmax(seen == highest)])
            buckets = self._buckets
            for key in keys:  # in sample order, as ``observe`` inserts them
                buckets[key] += 1

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

        Exact while ``count <= capacity``.  Beyond that, the midpoint of the
        bucket holding the nearest-rank sample ``floor(q/100 * (count-1))``
        of the whole stream: within relative error :data:`ALPHA` of it.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile rank must be in [0, 100], got {q!r}")
        with self._lock:
            if self._count == 0:
                return None
            if self._count <= self.capacity:
                return float(np.percentile(self._ring[: self._count], q))
            rank = math.floor(q / 100.0 * (self._count - 1))
            for key in sorted(self._buckets):
                rank -= self._buckets[key]
                if rank < 0:
                    break
        if key == _ZERO_BUCKET:
            return 0.0
        return 2.0 * _GAMMA**key / (_GAMMA + 1.0)

    def recent_percentile(self, q: float, window: int) -> Optional[float]:
        """Exact percentile over the last ``window`` samples (None when empty)."""
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window!r}")
        with self._lock:
            if self._count == 0:
                return None
            tail = self._values_locked()[-int(window) :]
        return float(np.percentile(tail, q))

    def reset(self) -> None:
        """Restart the histogram as if freshly constructed (whole stream).

        Everything restarts together: the exact aggregates (``count``,
        ``sum``, ``min``, ``max``), the bucket counts, *and* the sample
        ring.  The ring must be zeroed, not just logically emptied
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
            self._buckets.clear()


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

    A writer that batches its updates registers a hook with
    :meth:`before_read`; every read (``get``, ``series``, ``families``,
    ``names``, ``total``, ``labelled_values``, ``label_values``) runs the
    hooks first, so a reader never sees a series behind its writer.
    """

    def __init__(self, histogram_capacity: int = 4096) -> None:
        self.histogram_capacity = int(histogram_capacity)
        self._lock = threading.Lock()
        self._types: Dict[str, str] = {}
        self._metrics: "Dict[str, Dict[LabelKey, object]]" = {}
        self._read_hooks: List[Callable[[], None]] = []

    def before_read(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the start of every read (outside the registry lock)."""
        self._read_hooks.append(hook)

    def _settle(self) -> None:
        for hook in self._read_hooks:
            hook()

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

    def histogram(self, name: str, capacity: Optional[int] = None, **labels: str) -> Histogram:
        cap = self.histogram_capacity if capacity is None else int(capacity)
        return self._get_or_create(
            "histogram", name, labels, lambda: Histogram(name, labels, capacity=cap)
        )

    # ------------------------------------------------------------------
    def get(self, name: str, **labels: str):
        """Existing metric for (name, labels), or None."""
        self._settle()
        with self._lock:
            series = self._metrics.get(name)
            if series is None:
                return None
            return series.get(_label_key(labels))

    def series(self, name: str) -> List[object]:
        """Every labelled child of one family, in first-seen order."""
        self._settle()
        with self._lock:
            return list(self._metrics.get(name, {}).values())

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values one label has taken in a family (first-seen order)."""
        self._settle()
        out: List[str] = []
        with self._lock:
            for key in self._metrics.get(name, {}):
                for k, v in key:
                    if k == label and v not in out:
                        out.append(v)
        return out

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across label sets."""
        self._settle()
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
        self._settle()
        out: Dict[str, float] = {}
        with self._lock:
            for key, metric in self._metrics.get(name, {}).items():
                for k, v in key:
                    if k == label:
                        out[v] = out.get(v, 0.0) + float(metric.value)
        return out

    def families(self) -> List[Tuple[str, str, List[object]]]:
        """``(name, type, metrics)`` triples sorted by name (for exporters)."""
        self._settle()
        with self._lock:
            return [
                (name, self._types[name], list(self._metrics[name].values()))
                for name in sorted(self._metrics)
            ]

    def names(self) -> List[str]:
        self._settle()
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every counter and histogram; gauges keep their current value.

        Registrations and label sets survive.
        """
        self._settle()
        with self._lock:
            for name, series in self._metrics.items():
                if self._types[name] != "gauge":
                    for metric in series.values():
                        metric.reset()

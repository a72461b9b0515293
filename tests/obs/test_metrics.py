"""Unit tests for the bounded metrics primitives (repro.obs.metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.export import to_json, to_prometheus
from repro.obs.metrics import ALPHA, Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.telemetry import ServingTelemetry


# ---------------------------------------------------------------------------
# counters and gauges
# ---------------------------------------------------------------------------
def test_counter_monotone():
    c = Counter("requests_total", {"lane": "solve"})
    c.inc()
    c.inc(2.5)
    assert c.value == pytest.approx(3.5)
    with pytest.raises(ValueError):
        c.inc(-1.0)
    c.reset()
    assert c.value == 0.0


def test_gauge_moves_both_ways():
    g = Gauge("queue_depth", {})
    g.set(7)
    g.dec(3)
    g.inc()
    assert g.value == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# histogram: exactness, ring bounds, bulk ingest
# ---------------------------------------------------------------------------
def test_histogram_exact_below_capacity():
    hist = Histogram(capacity=256)
    rng = np.random.default_rng(0)
    xs = rng.lognormal(0.0, 1.0, 100)
    for x in xs:
        hist.observe(x)
    for q in (10.0, 50.0, 95.0, 99.0):
        assert hist.percentile(q) == pytest.approx(np.percentile(xs, q))
    assert hist.count == 100
    assert len(hist) == 100
    assert hist.mean == pytest.approx(xs.mean())
    assert hist.min == pytest.approx(xs.min())
    assert hist.max == pytest.approx(xs.max())


def test_histogram_whole_stream_quantiles_survive_ring_wrap():
    hist = Histogram(capacity=128)
    rng = np.random.default_rng(7)
    xs = rng.lognormal(0.0, 1.0, 10_000)
    for x in xs:
        hist.observe(x)
    assert len(hist) == 128  # ring stays bounded
    assert hist.count == 10_000  # exact total survives
    for q in (50.0, 95.0, 99.0):
        estimate = hist.percentile(q)
        rank = float(np.mean(xs <= estimate))
        assert abs(rank - q / 100.0) <= 0.01


# A bucket midpoint is within ALPHA of every value in its bucket; the slack
# covers float rounding of log() at a bucket edge.
_WITHIN_ALPHA = ALPHA * (1.0 + 1e-9)


def _bimodal_drift(rng: np.random.Generator, n: int) -> np.ndarray:
    """Cache-hit/miss latencies: hits near 50 us, misses near 3 ms, the
    miss share drifting from 1% to 9% over the stream."""
    miss = rng.random(n) < np.linspace(0.01, 0.09, n)
    hits = rng.lognormal(np.log(50e-6), 0.3, n)
    misses = rng.lognormal(np.log(3e-3), 0.3, n)
    return np.where(miss, misses, hits)


_STREAMS = {
    "bimodal_drift": lambda rng: _bimodal_drift(rng, 126_000),
    "lognormal": lambda rng: rng.lognormal(0.0, 1.0, 120_000),
}


@pytest.mark.parametrize("stream", sorted(_STREAMS))
def test_histogram_past_capacity_quantiles_within_alpha(stream):
    """Past the ring, p50/p95/p99 read the whole stream within ALPHA of the
    nearest-rank sample, and per-sample and uneven bulk feeds agree."""
    rng = np.random.default_rng(2019)
    xs = _STREAMS[stream](rng)
    one = Histogram(capacity=4096)
    for x in xs:
        one.observe(x)
    bulk = Histogram(capacity=4096)
    for chunk in np.split(xs, np.sort(rng.choice(xs.size, 37, replace=False))):
        bulk.observe_many(chunk)
    assert one.count == bulk.count == xs.size
    for q in (50.0, 95.0, 99.0):
        exact = float(np.percentile(xs, q, method="lower"))
        assert one.percentile(q) == bulk.percentile(q)
        assert one.percentile(q) == pytest.approx(exact, rel=_WITHIN_ALPHA)


def test_histogram_zero_bucket_takes_non_positive_and_non_finite_samples():
    specials = np.array([0.0, -2.0, np.nan, np.inf, -np.inf])
    hist = Histogram(capacity=8)
    for x in specials:
        hist.observe(x)
    hist.observe_many(np.concatenate([specials, np.arange(1.0, 21.0)]))
    assert hist.count == 30
    # The ten special samples share the zero bucket, which ranks first.
    assert hist.percentile(0.0) == 0.0
    assert hist.percentile(50.0) == pytest.approx(5.0, rel=_WITHIN_ALPHA)
    assert hist.percentile(100.0) == pytest.approx(20.0, rel=_WITHIN_ALPHA)
    within_ring = Histogram(capacity=8)
    within_ring.observe(1.0)
    for h in (hist, within_ring):
        for q in (-1.0, 100.5):
            with pytest.raises(ValueError):
                h.percentile(q)


def test_histogram_observe_many_matches_observe():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(500)
    one = Histogram(capacity=256)
    bulk = Histogram(capacity=256)
    for x in xs:
        one.observe(x)
    bulk.observe_many(xs)
    np.testing.assert_allclose(bulk.values(), one.values())
    assert bulk.count == one.count == 500
    assert bulk.sum == pytest.approx(one.sum)
    assert bulk.min == pytest.approx(one.min)
    assert bulk.max == pytest.approx(one.max)


def _histogram_state(hist):
    """Every field as bytes or ints, so NaN samples compare too."""
    floats = np.array([hist.sum, hist._min, hist._max]).tobytes()
    return hist._ring.tobytes(), hist.count, floats, dict(hist._buckets)


def _boundary_values():
    """Samples at and one ulp around log-bucket edges ``GAMMA**k``."""
    gamma = (1.0 + ALPHA) / (1.0 - ALPHA)
    edges = np.array([gamma**k for k in range(-300, 301, 7)])
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


_SPECIAL_BATCHES = {
    "nan_first": np.array([np.nan, 1.0, 2.0]),
    "all_nan": np.array([np.nan, np.nan]),
    "infinities": np.array([3.0, np.inf, -np.inf, np.nan, -np.inf, np.inf]),
    "signed_zeros": np.array([0.0, -0.0, 5.0, -0.0, 0.0]),
    "zero_then_negative_zero": np.array([0.0, -0.0]),
    "negative_zero_then_zero": np.array([-0.0, 0.0]),
    "negatives": np.array([-2.0, -1e-300, -7.5, 4.0, -7.5]),
    "boundaries": _boundary_values(),
    "long_sum": np.random.default_rng(4).random(1000) / 1000.0,
}


@pytest.mark.parametrize("prefill", [(), (0.0,), (-0.0, 9.0), (np.nan, -3.0, 1e9)])
@pytest.mark.parametrize("batch", sorted(_SPECIAL_BATCHES))
@pytest.mark.parametrize("capacity", [4, 4096])
def test_histogram_observe_many_equals_repeated_observe_bit_for_bit(batch, prefill, capacity):
    """Ring, count, sum (the same running sum), min/max (NaN skipped, first
    zero's sign kept) and bucket keys (in first-seen order) equal one
    ``observe`` per sample."""
    values = _SPECIAL_BATCHES[batch]
    bulk, looped = Histogram(capacity=capacity), Histogram(capacity=capacity)
    for h in (bulk, looped):
        for x in prefill:
            h.observe(x)
    bulk.observe_many(values)
    for x in values:
        looped.observe(x)
    assert _histogram_state(bulk) == _histogram_state(looped)
    assert list(bulk._buckets) == list(looped._buckets)  # first-seen order too
    assert np.array([bulk.min, bulk.max]).tobytes() == np.array([looped.min, looped.max]).tobytes()


@pytest.mark.parametrize(
    "prefill, count",
    [(0, 1), (0, 5), (5, 8), (13, 7), (3, 16), (9, 40)],
)
@pytest.mark.parametrize("value", [0.1, 2.5e-3, 0.0, float("nan")])
def test_histogram_observe_count_equals_repeated_calls(prefill, count, value):
    """``observe(v, count=k)``: the state of k calls bit for bit, wrap included."""
    rng = np.random.default_rng(prefill)
    registries = MetricsRegistry(histogram_capacity=16), MetricsRegistry(histogram_capacity=16)
    batched, looped = (r.histogram("latency_seconds", lane="solve") for r in registries)
    for x in rng.lognormal(-3.0, 1.0, prefill):
        batched.observe(x)
        looped.observe(x)
    batched.observe(value, count=count)
    for _ in range(count):
        looped.observe(value)
    assert _histogram_state(batched) == _histogram_state(looped)
    assert to_prometheus(registries[0]) == to_prometheus(registries[1])
    assert to_json(registries[0]) == to_json(registries[1])


@pytest.mark.parametrize("count", [0, -1])
def test_histogram_observe_rejects_a_count_below_one(count):
    hist = Histogram(capacity=4)
    with pytest.raises(ValueError):
        hist.observe(1.0, count=count)
    assert hist.count == 0 and hist.max == 0.0


def test_telemetry_batch_recording_equals_per_rider_recording():
    """One ``count=`` call per batch leaves the snapshot and the scrape of per-rider calls."""
    batched, per_rider = ServingTelemetry(sample_capacity=8), ServingTelemetry(sample_capacity=8)
    for latency, size in ((3e-4, 8), (5e-4, 3), (2e-4, 8)):
        batched.record_request(latency, solver="qr", count=size)
        batched.record_lane_latency("solve", latency, count=size)
        for _ in range(size):
            per_rider.record_request(latency, solver="qr")
            per_rider.record_lane_latency("solve", latency)
    for t in (batched, per_rider):
        t.record_admission("solve")
    assert batched.snapshot(1.0) == per_rider.snapshot(1.0)
    assert to_prometheus(batched.registry) == to_prometheus(per_rider.registry)
    assert to_json(batched.registry) == to_json(per_rider.registry)


def test_histogram_observe_many_oversized_batch_keeps_tail():
    hist = Histogram(capacity=64)
    xs = np.arange(1000, dtype=np.float64)
    hist.observe_many(xs)
    np.testing.assert_allclose(hist.values(), xs[-64:])
    assert hist.count == 1000


def test_histogram_million_records_stay_bounded():
    """Satellite regression: 1M records leave a fixed footprint.

    Recent-window percentiles are unchanged: the ring always holds the tail
    in arrival order, so the last-window percentile is exact forever.
    """
    telemetry = ServingTelemetry(sample_capacity=4096)
    rng = np.random.default_rng(11)
    last_chunk = None
    for _ in range(100):
        chunk = rng.lognormal(0.0, 0.5, 10_000)
        telemetry.record_requests(chunk)
        last_chunk = chunk
    hist = telemetry.registry.get("serving_request_latency_seconds")
    assert hist.count == 1_000_000
    assert len(hist) == 4096  # retained samples bounded by the ring
    assert hist._ring.nbytes == 4096 * 8  # the actual allocation is fixed
    assert telemetry.requests_served == 1_000_000
    # Recent-window p95 preserved: exact over the last 64 samples.
    expected = float(np.percentile(last_chunk[-64:], 95.0))
    assert hist.recent_percentile(95.0, 64) == pytest.approx(expected)


def test_histogram_recent_percentile_window():
    hist = Histogram(capacity=128)
    xs = np.arange(200, dtype=np.float64)
    for x in xs:
        hist.observe(x)
    assert hist.recent_percentile(50.0, 10) == pytest.approx(
        np.percentile(xs[-10:], 50.0)
    )


@pytest.mark.parametrize("window", [0, -3])
def test_histogram_recent_percentile_rejects_empty_window(window):
    hist = Histogram(capacity=16)
    hist.observe_many(np.arange(10.0))
    with pytest.raises(ValueError):
        hist.recent_percentile(0.0, window)


def test_histogram_reset():
    hist = Histogram(capacity=16)
    hist.observe_many(np.arange(100.0))
    hist.reset()
    assert hist.count == 0
    assert hist.percentile(50.0) is None
    assert hist.mean == 0.0


def test_histogram_reset_clears_ring():
    """reset() restarts the whole stream: no pre-reset sample may survive.

    Fills the ring with extreme values, resets, then observes a small batch --
    every view (values, percentiles, min/max, recent window) must reflect
    only post-reset data, exactly like a freshly constructed histogram --
    and then enough more to wrap the ring, so percentiles read the buckets.
    """
    hist = Histogram(capacity=16)
    hist.observe_many(np.concatenate([np.full(50, 1e-9), np.full(50, 1e9)]))
    hist.reset()
    assert np.all(hist.values() == np.zeros(0))
    fresh = np.arange(1.0, 6.0)
    hist.observe_many(fresh)
    np.testing.assert_array_equal(hist.values(), fresh)
    assert hist.max == pytest.approx(5.0)
    assert hist.min == pytest.approx(1.0)
    assert hist.percentile(100.0) == pytest.approx(5.0)
    assert hist.recent_percentile(100.0, 16) == pytest.approx(5.0)
    # The buffer itself holds no stale pre-reset samples past the cursor.
    assert np.all(hist._ring[fresh.size:] == 0.0)
    # Past capacity the bucket counts hold only post-reset samples too.
    hist.observe_many(np.arange(6.0, 41.0))
    assert hist.percentile(50.0) == pytest.approx(20.0, rel=_WITHIN_ALPHA)
    assert hist.percentile(100.0) == pytest.approx(40.0, rel=_WITHIN_ALPHA)


def test_histogram_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Histogram(capacity=0)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    a = reg.counter("requests_total", lane="solve")
    b = reg.counter("requests_total", lane="solve")
    other = reg.counter("requests_total", lane="ridge")
    assert a is b
    assert a is not other
    assert reg.get("requests_total", lane="solve") is a
    assert reg.get("requests_total", lane="missing") is None
    assert len(reg.series("requests_total")) == 2
    assert reg.label_values("requests_total", "lane") == ["solve", "ridge"]


def test_registry_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("depth")
    with pytest.raises(ValueError):
        reg.gauge("depth")
    with pytest.raises(ValueError):
        reg.histogram("depth")


def test_registry_total_and_families():
    reg = MetricsRegistry()
    reg.counter("shed_total", lane="solve").inc(3)
    reg.counter("shed_total", lane="ridge").inc(2)
    reg.gauge("active").set(4)
    reg.histogram("latency").observe(1.0)
    assert reg.total("shed_total") == pytest.approx(5.0)
    assert reg.total("unknown") == 0.0
    families = reg.families()
    assert [name for name, _, _ in families] == sorted(reg.names())
    kinds = {name: kind for name, kind, _ in families}
    assert kinds == {"shed_total": "counter", "active": "gauge", "latency": "histogram"}


def test_registry_labelled_values_breakdown():
    reg = MetricsRegistry()
    reg.counter("evicted_total", reason="ttl").inc(3)
    reg.counter("evicted_total", reason="capacity").inc(1)
    reg.counter("evicted_total", reason="ttl", shard="1").inc(2)  # summed in
    reg.counter("evicted_total")  # no labels: skipped
    assert reg.labelled_values("evicted_total", "reason") == {
        "ttl": 5.0, "capacity": 1.0,
    }
    assert reg.labelled_values("evicted_total", "shard") == {"1": 2.0}
    assert reg.labelled_values("unknown", "reason") == {}


def test_registry_reset_keeps_registrations():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", lane="solve")
    h = reg.histogram("latency")
    c.inc(9)
    h.observe(2.0)
    reg.reset()
    assert reg.get("requests_total", lane="solve") is c  # series survives
    assert c.value == 0.0
    assert h.count == 0


def test_registry_reset_leaves_gauges_alone():
    """Gauges hold current state (depth, shards, passivated sessions); reset keeps it."""
    reg = MetricsRegistry()
    gauge = reg.gauge("active_shards")
    labelled = reg.gauge("calibration_factor", solver="qr")
    gauge.set(2)
    labelled.set(1.25)
    reg.counter("requests_total").inc(4)
    reg.reset()
    assert gauge.value == 2.0 and labelled.value == 1.25
    assert reg.counter("requests_total").value == 0.0

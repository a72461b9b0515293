"""Shard scheduler placement/accounting and telemetry percentiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.comm import CommCostModel
from repro.gpu.kernels import KernelClass, KernelRequest
from repro.gpu.pool import ExecutorPool
from repro.serving.scheduler import ShardScheduler
from repro.serving.telemetry import ServingTelemetry


def _busy(executor, seconds_worth_bytes: float) -> None:
    """Charge some simulated work to an executor."""
    executor.launch(
        KernelRequest(
            name="busy",
            kclass=KernelClass.STREAM,
            bytes_read=seconds_worth_bytes,
            phase="test",
        )
    )


class TestExecutorPool:
    def test_shards_are_independent_executors(self):
        pool = ExecutorPool(3, seed=0)
        assert pool.size == 3
        assert len({id(ex) for ex in pool}) == 3
        assert pool[0].rng is not pool[1].rng

    def test_least_loaded_and_makespan(self):
        pool = ExecutorPool(2, seed=0)
        _busy(pool[0], 1e9)
        assert pool.least_loaded() == 1
        assert pool.makespan() == pool.loads()[0]
        assert pool.total_busy_seconds() == sum(pool.loads())

    def test_reset_clocks(self):
        pool = ExecutorPool(2, seed=0)
        _busy(pool[1], 1e9)
        pool.reset_clocks()
        assert pool.loads() == [0.0, 0.0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ExecutorPool(0)


class TestShardScheduler:
    def test_least_loaded_placement(self):
        pool = ExecutorPool(2, seed=0)
        sched = ShardScheduler(pool)
        _busy(pool[0], 1e9)
        assert sched.place() == 1

    def test_affinity_placement_wins(self):
        pool = ExecutorPool(2, seed=0)
        sched = ShardScheduler(pool)
        _busy(pool[0], 1e9)
        assert sched.place(preferred=0) == 0
        assert sched.batches_per_shard == [1, 0]

    def test_preferred_out_of_range(self):
        sched = ShardScheduler(ExecutorPool(2, seed=0))
        with pytest.raises(ValueError):
            sched.place(preferred=5)

    def test_transfer_charging_alpha_beta(self):
        model = CommCostModel(latency=1e-5, bandwidth=1e9)
        sched = ShardScheduler(ExecutorPool(1, seed=0), cost_model=model)
        seconds = sched.charge_transfer("result_return", 1e6)
        assert seconds == pytest.approx(1e-5 + 1e6 / 1e9)
        assert sched.comm_bytes() == 1e6
        assert sched.comm_seconds() == pytest.approx(seconds)
        assert sched.comm_by_name() == {"result_return": pytest.approx(seconds)}


class TestTelemetry:
    def test_percentiles(self):
        tel = ServingTelemetry()
        for latency in np.linspace(1e-6, 100e-6, 100):
            tel.record_request(latency)
        summary = tel.latency_summary()
        assert summary.count == 100
        assert summary.p50 == pytest.approx(np.percentile(np.linspace(1e-6, 100e-6, 100), 50))
        assert summary.p50 < summary.p95 < summary.p99 <= summary.max

    def test_empty_summary_is_none(self):
        assert ServingTelemetry().latency_summary() is None

    def test_throughput_and_snapshot(self):
        tel = ServingTelemetry()
        for _ in range(10):
            tel.record_request(1e-6)
        tel.record_batch(10, 5e-6)
        snap = tel.snapshot(makespan_seconds=1e-3)
        assert snap["requests_per_second"] == pytest.approx(10 / 1e-3)
        assert snap["mean_batch_size"] == 10.0
        assert snap["batches_executed"] == 1.0

    def test_reset(self):
        tel = ServingTelemetry()
        tel.record_request(1.0)
        tel.record_batch(2, 1.0)
        tel.reset()
        assert tel.requests_served == 0
        assert tel.latency_summary() is None

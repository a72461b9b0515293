"""Tests for the roofline kernel cost model."""

import math

import pytest

from repro.gpu.device import H100_SXM5
from repro.gpu.kernels import KernelClass, KernelCostModel, KernelRequest


@pytest.fixture
def model():
    return KernelCostModel(H100_SXM5)


class TestRoofline:
    def test_memory_bound_kernel_time(self, model):
        # 1 GB of traffic through the atomic CountSketch kernel class.
        req = KernelRequest(
            name="countsketch_atomic",
            kclass=KernelClass.ATOMIC,
            bytes_read=0.5e9,
            bytes_written=0.5e9,
            flops=1e6,
        )
        expected = 1e9 / (H100_SXM5.memory_bandwidth * H100_SXM5.atomic_efficiency)
        assert model.memory_time(req) == pytest.approx(expected)
        timing = model.estimate(req)
        assert timing.seconds == pytest.approx(expected + model.overhead_time(req))

    def test_compute_bound_kernel_time(self, model):
        # A large GEMM: flops dominate the traffic.
        req = KernelRequest(
            name="gemm",
            kclass=KernelClass.GEMM,
            bytes_read=1e6,
            bytes_written=1e6,
            flops=1e13,
        )
        expected = 1e13 / (H100_SXM5.peak_flops_fp64 * H100_SXM5.gemm_efficiency)
        assert model.compute_time(req) == pytest.approx(expected)
        assert model.estimate(req).seconds > expected

    def test_roofline_takes_maximum(self, model):
        req = KernelRequest(
            name="balanced",
            kclass=KernelClass.GEMM,
            bytes_read=1e9,
            flops=1e9,
        )
        t = model.estimate(req)
        assert t.seconds >= model.memory_time(req)
        assert t.seconds >= model.compute_time(req)

    def test_launch_and_sync_overheads_accumulate(self, model):
        req = KernelRequest(
            name="fwht",
            kclass=KernelClass.FWHT,
            bytes_read=0.0,
            launches=10,
            syncs=10,
        )
        expected = 10 * H100_SXM5.kernel_launch_overhead + 10 * H100_SXM5.sync_overhead
        assert model.overhead_time(req) == pytest.approx(expected)

    def test_fp32_peak_used_for_4_byte_dtype(self, model):
        req64 = KernelRequest(name="gemm", kclass=KernelClass.GEMM, flops=1e13, dtype_size=8)
        req32 = KernelRequest(name="gemm", kclass=KernelClass.GEMM, flops=1e13, dtype_size=4)
        assert model.compute_time(req32) < model.compute_time(req64)

    def test_rng_rate_drives_generation_time(self, model):
        req = KernelRequest(name="curand", kclass=KernelClass.RNG, flops=6.0e10, bytes_written=1.0)
        assert model.compute_time(req) == pytest.approx(1.0, rel=1e-6)


class TestEfficiencyOrdering:
    """The relative efficiencies encode the paper's Figure-3 story."""

    def test_atomic_beats_spmm(self, model):
        assert model.bandwidth_efficiency(KernelClass.ATOMIC) > model.bandwidth_efficiency(
            KernelClass.SPMM
        )

    def test_fwht_beats_atomic(self, model):
        assert model.bandwidth_efficiency(KernelClass.FWHT) > model.bandwidth_efficiency(
            KernelClass.ATOMIC
        )

    def test_gemm_has_highest_flop_efficiency(self, model):
        gemm = model.flop_efficiency(KernelClass.GEMM)
        for kclass in KernelClass:
            assert model.flop_efficiency(kclass) <= gemm

    def test_same_traffic_spmm_roughly_three_times_slower_than_atomic(self, model):
        nbytes = 10e9
        atomic = model.estimate(
            KernelRequest(name="a", kclass=KernelClass.ATOMIC, bytes_read=nbytes)
        ).seconds
        spmm = model.estimate(
            KernelRequest(name="s", kclass=KernelClass.SPMM, bytes_read=nbytes)
        ).seconds
        assert 2.0 < spmm / atomic < 4.0


class TestTimingMetadata:
    def test_estimate_propagates_metadata(self, model):
        req = KernelRequest(
            name="k",
            kclass=KernelClass.STREAM,
            bytes_read=100.0,
            bytes_written=50.0,
            flops=7.0,
            launches=3,
            phase="Apply",
        )
        t = model.estimate(req)
        assert t.name == "k"
        assert t.bytes_moved == pytest.approx(150.0)
        assert t.flops == pytest.approx(7.0)
        assert t.launches == 3
        assert t.phase == "Apply"

    def test_phase_override(self, model):
        req = KernelRequest(name="k", kclass=KernelClass.STREAM, phase="default")
        assert model.estimate(req, phase="override").phase == "override"

    def test_peaks_exposed(self, model):
        assert model.peak_bandwidth() == H100_SXM5.memory_bandwidth
        assert model.peak_flops(8) == H100_SXM5.peak_flops_fp64


class TestEstimateMemo:
    def test_equal_requests_share_one_timing(self, model):
        first = model.estimate(
            KernelRequest(name="k", kclass=KernelClass.ATOMIC, bytes_read=1e6, flops=1e5)
        )
        again = model.estimate(
            KernelRequest(name="k", kclass=KernelClass.ATOMIC, bytes_read=1e6, flops=1e5)
        )
        assert again is first

    def test_phase_override_still_relabels_a_memoised_request(self, model):
        req = KernelRequest(name="k", kclass=KernelClass.STREAM, bytes_read=64.0, phase="default")
        plain = model.estimate(req)
        relabelled = model.estimate(req, phase="override")
        assert plain.phase == "default"
        assert relabelled.phase == "override"
        assert relabelled.seconds == plain.seconds
        assert model.estimate(req).phase == "default"

    def test_memo_never_exceeds_its_cap(self, model):
        from repro.gpu.kernels import COST_MEMO_CAP

        for i in range(COST_MEMO_CAP + 16):
            timing = model.estimate(
                KernelRequest(name="k", kclass=KernelClass.STREAM, bytes_read=float(i))
            )
            assert timing.bytes_moved == float(i)
            assert len(model._memo) <= COST_MEMO_CAP

    def test_memo_is_per_device(self):
        req = KernelRequest(name="k", kclass=KernelClass.STREAM, bytes_read=1e9)
        fast = KernelCostModel(H100_SXM5).estimate(req)
        slow = KernelCostModel(
            H100_SXM5.with_overrides(memory_bandwidth=H100_SXM5.memory_bandwidth / 10)
        ).estimate(req)
        assert slow.seconds > fast.seconds

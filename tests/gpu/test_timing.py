"""Tests for the simulated clock, kernel timings, and breakdowns."""

import pytest

from repro.gpu.timing import KernelTiming, SimClock, TimeBreakdown


def _timing(name="k", seconds=1.0, nbytes=100.0, flops=10.0, phase="p"):
    return KernelTiming(name=name, seconds=seconds, bytes_moved=nbytes, flops=flops, phase=phase)


class TestKernelTiming:
    def test_achieved_rates(self):
        t = _timing(seconds=2.0, nbytes=200.0, flops=50.0)
        assert t.achieved_bandwidth() == pytest.approx(100.0)
        assert t.achieved_flops() == pytest.approx(25.0)

    def test_zero_time_rates_are_zero(self):
        t = _timing(seconds=0.0)
        assert t.achieved_bandwidth() == 0.0
        assert t.achieved_flops() == 0.0

    def test_relabel_preserves_everything_else(self):
        t = _timing(phase="old")
        r = t.relabel("new")
        assert r.phase == "new"
        assert r.seconds == t.seconds
        assert r.name == t.name


class TestTimeBreakdown:
    def test_totals(self):
        b = TimeBreakdown()
        b.add(_timing(seconds=1.0, nbytes=10, flops=1))
        b.add(_timing(seconds=2.0, nbytes=20, flops=2))
        assert b.total() == pytest.approx(3.0)
        assert b.total_bytes() == pytest.approx(30.0)
        assert b.total_flops() == pytest.approx(3.0)
        assert len(b) == 2

    def test_by_phase_groups_and_orders(self):
        b = TimeBreakdown()
        b.add(_timing(seconds=1.0, phase="Sketch gen"))
        b.add(_timing(seconds=2.0, phase="Matrix sketch"))
        b.add(_timing(seconds=3.0, phase="Sketch gen"))
        phases = b.by_phase()
        assert list(phases) == ["Sketch gen", "Matrix sketch"]
        assert phases["Sketch gen"] == pytest.approx(4.0)
        assert b.phase_seconds("Matrix sketch") == pytest.approx(2.0)

    def test_by_kernel(self):
        b = TimeBreakdown()
        b.add(_timing(name="gemm", seconds=1.0))
        b.add(_timing(name="gemm", seconds=1.5))
        b.add(_timing(name="potrf", seconds=0.5))
        assert b.by_kernel() == {"gemm": pytest.approx(2.5), "potrf": pytest.approx(0.5)}

    def test_merged_and_scaled(self):
        b1, b2 = TimeBreakdown(), TimeBreakdown()
        b1.add(_timing(seconds=2.0))
        b2.add(_timing(seconds=4.0))
        merged = b1.merged(b2)
        assert merged.total() == pytest.approx(6.0)
        halved = merged.scaled(0.5)
        assert halved.total() == pytest.approx(3.0)
        # originals untouched
        assert b1.total() == pytest.approx(2.0)

    def test_extend(self):
        b = TimeBreakdown()
        b.extend([_timing(), _timing()])
        assert len(b) == 2


class TestSimClock:
    def test_record_advances_clock(self):
        clock = SimClock()
        clock.record(_timing(seconds=1.5))
        clock.record(_timing(seconds=0.5))
        assert clock.now == pytest.approx(2.0)
        assert clock.breakdown.total() == pytest.approx(2.0)

    def test_phase_region_overrides_label(self):
        clock = SimClock()
        with clock.phase("Matrix sketch"):
            stored = clock.record(_timing(phase="unlabelled"))
        assert stored.phase == "Matrix sketch"
        assert clock.breakdown.by_phase() == {"Matrix sketch": pytest.approx(1.0)}

    def test_nested_phase_regions(self):
        clock = SimClock()
        with clock.phase("outer"):
            with clock.phase("inner"):
                clock.record(_timing())
            clock.record(_timing())
        phases = clock.breakdown.by_phase()
        assert phases == {"inner": pytest.approx(1.0), "outer": pytest.approx(1.0)}
        assert clock.current_phase() is None

    def test_breakdown_since(self):
        clock = SimClock()
        clock.record(_timing(seconds=1.0))
        mark = len(clock.breakdown)
        clock.record(_timing(seconds=5.0))
        assert clock.breakdown_since(mark).total() == pytest.approx(5.0)

    def test_elapsed_since_and_reset(self):
        clock = SimClock()
        clock.record(_timing(seconds=1.0))
        t0 = clock.now
        clock.record(_timing(seconds=2.0))
        assert clock.elapsed_since(t0) == pytest.approx(2.0)
        clock.reset()
        assert clock.now == 0.0
        assert len(clock.breakdown) == 0

    def test_snapshot_is_independent(self):
        clock = SimClock()
        clock.record(_timing(seconds=1.0))
        snap = clock.snapshot()
        clock.record(_timing(seconds=1.0))
        assert snap.total() == pytest.approx(1.0)
        assert clock.breakdown.total() == pytest.approx(2.0)


class TestRetention:
    """Past the retention cap old records fold into per-(kernel, phase) aggregates."""

    def _launches(self, count):
        return [
            _timing(name=f"k{i % 3}", seconds=0.1 * (i % 7 + 1), nbytes=float(i), flops=i / 3.0,
                    phase=f"p{i % 2}")
            for i in range(count)
        ]

    def test_totals_are_exact_and_records_bounded(self, monkeypatch):
        monkeypatch.setattr(SimClock, "RETAIN_RECORDS", 10)
        clock = SimClock()
        plain = TimeBreakdown()
        seconds = moved = flops = 0.0  # launch-order sums over every record
        for t in self._launches(1000):
            clock.record(t)
            plain.add(t)
            seconds += t.seconds
            moved += t.bytes_moved
            flops += t.flops
        b = clock.breakdown
        assert len(b) == 1000
        assert len(b.records) <= 2 * 10 + 6  # verbatim tail + one aggregate per (kernel, phase)
        assert (b.total(), b.total_bytes(), b.total_flops()) == (seconds, moved, flops)
        assert b.by_phase() == plain.by_phase()
        assert b.by_kernel() == plain.by_kernel()
        assert b.phase_seconds("p1") == plain.by_phase()["p1"]
        # the folded records still carry every launch
        assert sum(r.launches for r in b.records) == 1000

    def test_recent_marks_are_honoured_and_folded_ones_refused(self, monkeypatch):
        monkeypatch.setattr(SimClock, "RETAIN_RECORDS", 10)
        clock = SimClock()
        launches = self._launches(100)
        for t in launches[:95]:
            clock.record(t)
        mark = len(clock.breakdown)
        for t in launches[95:]:
            clock.record(t)
        assert clock.breakdown_since(mark).records == launches[95:]
        with pytest.raises(ValueError, match="folded"):
            clock.breakdown_since(10)

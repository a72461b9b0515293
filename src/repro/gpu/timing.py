"""Simulated timing primitives.

The paper reports wall-clock kernel timings averaged over 100 runs and broken
down by phase ("Sketch gen time", "Apply Time", "POTRF", "GEQRF", ...).  The
classes here model exactly that: every simulated kernel launch produces a
:class:`KernelTiming`, the executor accumulates them on a :class:`SimClock`,
and a :class:`TimeBreakdown` groups the accumulated time by phase label so the
harness can print the same stacked-bar decomposition the figures show.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional


@dataclass(frozen=True)
class KernelTiming:
    """Timing record for one simulated kernel launch.

    Attributes
    ----------
    name:
        Kernel name (e.g. ``"countsketch_atomic"``, ``"gemm"``).
    seconds:
        Total simulated execution time, including launch overhead.
    bytes_moved:
        Global-memory traffic charged to the kernel (reads + writes).
    flops:
        Floating point operations charged to the kernel.
    phase:
        Phase label used by the breakdowns (e.g. ``"Matrix sketch"``).
    launches:
        Number of kernel launches folded into this record (the FWHT is one
        logical operation but many launches).
    """

    name: str
    seconds: float
    bytes_moved: float = 0.0
    flops: float = 0.0
    phase: str = "unlabelled"
    launches: int = 1

    def achieved_bandwidth(self) -> float:
        """Achieved memory throughput in bytes/second (0 if instantaneous)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.bytes_moved / self.seconds

    def achieved_flops(self) -> float:
        """Achieved FLOP/s (0 if instantaneous)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.flops / self.seconds

    def relabel(self, phase: str) -> "KernelTiming":
        """Return a copy of this record with a different phase label."""
        return KernelTiming(
            name=self.name,
            seconds=self.seconds,
            bytes_moved=self.bytes_moved,
            flops=self.flops,
            phase=phase,
            launches=self.launches,
        )


@dataclass
class TimeBreakdown:
    """Accumulated simulated time grouped by phase label.

    This mirrors the stacked bars of Figures 2 and 5: each phase label is a
    bar segment and :meth:`total` is the bar height.
    """

    records: List[KernelTiming] = field(default_factory=list)

    def add(self, timing: KernelTiming) -> None:
        """Append a kernel timing record."""
        self.records.append(timing)

    def extend(self, timings: Iterable[KernelTiming]) -> None:
        """Append several kernel timing records."""
        self.records.extend(timings)

    def total(self) -> float:
        """Total simulated seconds across all records."""
        return float(sum(r.seconds for r in self.records))

    def total_bytes(self) -> float:
        """Total global-memory traffic across all records."""
        return float(sum(r.bytes_moved for r in self.records))

    def total_flops(self) -> float:
        """Total floating point operations across all records."""
        return float(sum(r.flops for r in self.records))

    def by_phase(self) -> Dict[str, float]:
        """Seconds per phase label, in insertion order of first appearance."""
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.phase] = out.get(r.phase, 0.0) + r.seconds
        return out

    def by_kernel(self) -> Dict[str, float]:
        """Seconds per kernel name."""
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + r.seconds
        return out

    def phase_seconds(self, phase: str) -> float:
        """Seconds accumulated under a specific phase label."""
        return float(sum(r.seconds for r in self.records if r.phase == phase))

    def merged(self, other: "TimeBreakdown") -> "TimeBreakdown":
        """Return a new breakdown containing this one's and ``other``'s records."""
        merged = TimeBreakdown()
        merged.records = list(self.records) + list(other.records)
        return merged

    def scaled(self, factor: float) -> "TimeBreakdown":
        """Return a breakdown with every record's time scaled by ``factor``.

        Used to average repeated experiments: accumulate ``reps`` runs and
        scale by ``1/reps``.
        """
        scaled = TimeBreakdown()
        for r in self.records:
            scaled.add(
                KernelTiming(
                    name=r.name,
                    seconds=r.seconds * factor,
                    bytes_moved=r.bytes_moved * factor,
                    flops=r.flops * factor,
                    phase=r.phase,
                    launches=r.launches,
                )
            )
        return scaled

    def __len__(self) -> int:
        return len(self.records)


class _RetainedBreakdown(TimeBreakdown):
    """A clock's own breakdown: exact totals over a bounded list of records.

    A long-lived executor (a serving shard) launches kernels forever, so
    keeping every record would grow without bound.  ``records`` keeps the
    most recent ``retain`` to ``2 * retain`` launches verbatim; older ones
    fold into one aggregate per ``(kernel, phase)`` at the front of the
    list.  Folding also carries the launch-order running sums (totals, per
    phase, per kernel) up to the cut, and the queries continue them over the
    verbatim tail, so every total is the same left-to-right sum over every
    launch whether or not anything was folded (and equals a plain
    :class:`TimeBreakdown`'s wherever builtin ``sum`` adds left to right,
    as on CPython <= 3.11).  ``len()`` counts every launch ever added, so
    marks stay absolute.
    """

    def __init__(self, retain: int) -> None:
        super().__init__()
        self.retain = retain
        self._folded = 0  # leading entries of ``records`` that are aggregates
        self._launches = 0  # every record ever added
        # Running sums over the folded records, in launch order.
        self._seconds = self._bytes = self._flops = 0.0
        self._phases: Dict[str, float] = {}
        self._kernels: Dict[str, float] = {}

    def add(self, timing: KernelTiming) -> None:
        self.records.append(timing)
        self._launches += 1
        if len(self.records) - self._folded > 2 * self.retain:
            self._fold()

    def _fold(self) -> None:
        records, cut = self.records, len(self.records) - self.retain
        # The aggregates so far lead, so their keys keep their order.
        sums: Dict[tuple, list] = {
            (r.name, r.phase): [r.seconds, r.bytes_moved, r.flops, r.launches]
            for r in records[:self._folded]
        }
        # One pass over the records that fold: running sums in launch
        # order, and each record into its (kernel, phase) aggregate.
        seconds, moved, flops = self._seconds, self._bytes, self._flops
        phases, kernels = self._phases, self._kernels
        for r in records[self._folded:cut]:
            name, phase, s = r.name, r.phase, r.seconds
            seconds += s
            moved += r.bytes_moved
            flops += r.flops
            phases[phase] = phases.get(phase, 0.0) + s
            kernels[name] = kernels.get(name, 0.0) + s
            acc = sums.get((name, phase))
            if acc is None:
                acc = sums[name, phase] = [0.0, 0.0, 0.0, 0]
            acc[0] += s
            acc[1] += r.bytes_moved
            acc[2] += r.flops
            acc[3] += r.launches
        self._seconds, self._bytes, self._flops = seconds, moved, flops
        folded = [
            KernelTiming(name, seconds, moved, flops, phase, launches)
            for (name, phase), (seconds, moved, flops, launches) in sums.items()
        ]
        self.records = folded + self.records[cut:]
        self._folded = len(folded)

    def _tail(self) -> List[KernelTiming]:
        return self.records[self._folded:]

    def since(self, mark: int) -> List[KernelTiming]:
        """Records added after the first ``mark`` (which must still be verbatim)."""
        start = len(self.records) - (self._launches - mark)
        if start < self._folded:
            raise ValueError(
                f"records after mark {mark} were folded into aggregates; a mark "
                f"is honoured for the {self.retain} most recent launches"
            )
        return self.records[start:]

    def total(self) -> float:
        out = self._seconds
        for r in self._tail():
            out += r.seconds
        return float(out)

    def total_bytes(self) -> float:
        out = self._bytes
        for r in self._tail():
            out += r.bytes_moved
        return float(out)

    def total_flops(self) -> float:
        out = self._flops
        for r in self._tail():
            out += r.flops
        return float(out)

    def by_phase(self) -> Dict[str, float]:
        out = dict(self._phases)
        for r in self._tail():
            out[r.phase] = out.get(r.phase, 0.0) + r.seconds
        return out

    def by_kernel(self) -> Dict[str, float]:
        out = dict(self._kernels)
        for r in self._tail():
            out[r.name] = out.get(r.name, 0.0) + r.seconds
        return out

    def phase_seconds(self, phase: str) -> float:
        return float(self.by_phase().get(phase, 0.0))

    def __len__(self) -> int:
        return self._launches


class SimClock:
    """Monotonically accumulating simulated clock.

    The executor owns one clock; each kernel launch advances it.  The clock
    also keeps a running :class:`TimeBreakdown` and supports *regions*, which
    the harness uses to attribute everything launched inside a ``with`` block
    to a phase label regardless of the kernels' own defaults.

    The breakdown's totals are exact over every launch, but only the most
    recent :attr:`RETAIN_RECORDS` (up to twice that) launches are kept
    verbatim; :meth:`breakdown_since` honours any mark inside that window.
    """

    #: Launches always kept verbatim; older ones fold into per-(kernel, phase) aggregates.
    RETAIN_RECORDS = 4096

    def __init__(self) -> None:
        self._now = 0.0
        self._breakdown = _RetainedBreakdown(self.RETAIN_RECORDS)
        self._phase_stack: List[str] = []
        # `_now += seconds` is a read-modify-write; a synchronous server
        # driven from several threads can charge kernels to one shard clock
        # at once, and an unlocked increment would silently lose simulated
        # time.  The concurrent runtime runs one unit at a time, so this
        # lock is uncontended there.
        self._record_lock = threading.Lock()

    @property
    def now(self) -> float:
        """Current simulated time in seconds since clock creation."""
        return self._now

    @property
    def breakdown(self) -> TimeBreakdown:
        """The full breakdown of everything recorded on this clock."""
        return self._breakdown

    def current_phase(self) -> Optional[str]:
        """The innermost active phase label, or None."""
        return self._phase_stack[-1] if self._phase_stack else None

    def record(self, timing: KernelTiming) -> KernelTiming:
        """Advance the clock by a kernel timing and store it.

        If a phase region is active it overrides the record's own phase.
        Returns the (possibly relabelled) record that was stored.
        """
        phase = self.current_phase()
        if phase is not None and timing.phase != phase:
            timing = timing.relabel(phase)
        with self._record_lock:
            self._now += timing.seconds
            self._breakdown.add(timing)
        return timing

    def phase(self, label: str) -> "_PhaseRegion":
        """Context manager labelling everything recorded inside it."""
        return _PhaseRegion(self, label)

    def elapsed_since(self, mark: float) -> float:
        """Simulated seconds elapsed since a previous value of :attr:`now`."""
        return self._now - mark

    def snapshot(self) -> TimeBreakdown:
        """Copy of the current breakdown (records are immutable, list is new)."""
        snap = TimeBreakdown()
        snap.records = list(self._breakdown.records)
        return snap

    def breakdown_since(self, n_records: int) -> TimeBreakdown:
        """Breakdown of the records added after the first ``n_records``."""
        snap = TimeBreakdown()
        with self._record_lock:  # a concurrent launch may fold the records
            snap.records = self._breakdown.since(n_records)
        return snap

    def reset(self) -> None:
        """Reset the clock to zero and clear the breakdown."""
        self._now = 0.0
        self._breakdown = _RetainedBreakdown(self.RETAIN_RECORDS)
        self._phase_stack.clear()


class _PhaseRegion:
    """Context manager implementing :meth:`SimClock.phase`."""

    def __init__(self, clock: SimClock, label: str) -> None:
        self._clock = clock
        self._label = label

    def __enter__(self) -> "_PhaseRegion":
        self._clock._phase_stack.append(self._label)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._clock._phase_stack.pop()

"""A reusable pool of GPU executors.

Every experiment in the reproduction so far created a fresh
:class:`~repro.gpu.executor.GPUExecutor` per run, which is the right model for
independent measurements but the wrong one for a service: a server wants a
fixed set of devices whose state (cached sketch operators, allocated
workspaces, accumulated clocks) persists across requests.  ``ExecutorPool``
provides exactly that -- a list of long-lived executors, one per simulated
device ("shard"), plus the load-tracking queries a scheduler needs.

The pool is deliberately dumb about *policy*: picking which shard runs which
batch is the job of :class:`repro.serving.scheduler.ShardScheduler`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.gpu.executor import GPUExecutor


class ExecutorPool:
    """A fixed-size pool of long-lived :class:`GPUExecutor` workers.

    Parameters
    ----------
    size:
        Number of executors ("shards") in the pool.
    device:
        Device spec shared by every executor.
    numeric:
        Whether the executors carry real data (see :class:`GPUExecutor`).
    seed:
        Base seed; shard ``i`` gets ``seed + i`` so per-shard RNG streams are
        decorrelated but reproducible.
    track_memory:
        Forwarded to every executor.
    """

    def __init__(
        self,
        size: int,
        *,
        device: DeviceSpec = H100_SXM5,
        numeric: bool = True,
        seed: Optional[int] = 0,
        track_memory: bool = False,
    ) -> None:
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.device = device
        self._executors: List[GPUExecutor] = [
            GPUExecutor(
                device,
                numeric=numeric,
                seed=None if seed is None else seed + i,
                track_memory=track_memory,
            )
            for i in range(size)
        ]

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of executors in the pool."""
        return len(self._executors)

    def __len__(self) -> int:
        return len(self._executors)

    def __getitem__(self, shard: int) -> GPUExecutor:
        return self._executors[shard]

    def __iter__(self) -> Iterator[GPUExecutor]:
        return iter(self._executors)

    # ------------------------------------------------------------------
    def loads(self) -> List[float]:
        """Accumulated simulated busy seconds per shard."""
        return [ex.elapsed for ex in self._executors]

    def least_loaded(self) -> int:
        """Index of the shard with the least accumulated simulated time
        (the lowest index on a tie)."""
        loads = self.loads()
        return loads.index(min(loads))

    def makespan(self) -> float:
        """Simulated completion time: the busiest shard's accumulated seconds.

        Shards execute concurrently, so the pool-level elapsed time of a
        workload is the maximum -- not the sum -- of the per-shard clocks.
        """
        return max(self.loads())

    def min_load(self) -> float:
        """Least-busy shard's accumulated seconds (earliest a new batch can start).

        The runtime stamps request admission with this value: in simulated
        time, "now" for a newly admitted request is the soonest any shard
        could pick it up.
        """
        return min(self.loads())

    def total_busy_seconds(self) -> float:
        """Sum of simulated busy seconds across all shards."""
        return sum(self.loads())

    def reset_clocks(self) -> None:
        """Zero every shard's simulated clock (cached state is kept)."""
        for ex in self._executors:
            ex.reset_clock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutorPool(size={self.size}, device='{self.device.name}')"

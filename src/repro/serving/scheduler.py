"""Shard scheduling: spread micro-batches across a pool of GPU executors.

The scheduler owns an :class:`~repro.gpu.pool.ExecutorPool` and decides which
shard runs each micro-batch.  Two policies compose:

* **cache affinity** -- a batch whose operator is already cached runs on the
  shard that owns the operator (sketch state lives in device memory and is
  bound to its executor; moving it would cost more than queueing behind it);
* **least-loaded placement** -- a batch that needs a brand-new operator goes
  to the shard with the least accumulated simulated time, balancing load
  across distinct problem shapes.

Every shard of the fixed pool takes new work.

Cross-shard traffic (shipping a batch's solution back to the front end,
replicating operator state) is charged with the same alpha-beta model the
distributed layer uses (:class:`repro.distributed.comm.CommCostModel`) and
recorded as :class:`repro.distributed.comm.CommRecord` entries, so serving
experiments report communication with the exact accounting of Section 7.
Totals are kept exactly; only the most recent records are kept verbatim.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.distributed.comm import CommCostModel, CommRecord
from repro.gpu.pool import ExecutorPool


class ShardScheduler:
    """Places work on an executor pool and accounts cross-shard traffic.

    Parameters
    ----------
    pool:
        The executor pool to schedule onto.
    cost_model:
        Alpha-beta communication model for front-end <-> shard transfers;
        defaults to the distributed layer's defaults (10 us latency,
        25 GB/s links).
    """

    #: Transfer records kept verbatim in :attr:`records`.
    RETAIN_RECORDS = 4096

    def __init__(
        self,
        pool: ExecutorPool,
        cost_model: Optional[CommCostModel] = None,
    ) -> None:
        self.pool = pool
        self.cost_model = cost_model if cost_model is not None else CommCostModel()
        #: The most recent transfers; totals cover every transfer ever charged.
        self.records: Deque[CommRecord] = deque(maxlen=self.RETAIN_RECORDS)
        self._comm_seconds = 0.0
        self._comm_bytes = 0.0
        self._comm_by_name: Dict[str, float] = {}
        self._batches_per_shard: List[int] = [0] * pool.size
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, preferred: Optional[int] = None) -> int:
        """Pick the shard for a batch.

        ``preferred`` (cache affinity) wins when given, because pinned
        device state (a session's window sketch, an unseeded operator)
        cannot move; otherwise the least loaded shard by simulated busy
        time is chosen (the lowest index on a tie).
        """
        with self._lock:
            if preferred is not None:
                if not (0 <= preferred < self.pool.size):
                    raise ValueError(
                        f"shard {preferred} out of range for pool of {self.pool.size}"
                    )
                shard = preferred
            else:
                shard = self.pool.least_loaded()
            self._batches_per_shard[shard] += 1
            return shard

    @property
    def batches_per_shard(self) -> List[int]:
        """Number of batches placed on each shard so far."""
        return list(self._batches_per_shard)

    # ------------------------------------------------------------------
    # cross-shard traffic accounting
    # ------------------------------------------------------------------
    def estimate_transfer(self, nbytes: float) -> float:
        """Seconds one front-end <-> shard transfer *would* cost (not recorded).

        The runtime's deadline projection uses this for the result-return
        term, so a request is shed when queue wait + service + transfer
        would breach the budget -- the same three terms the completed
        request's queue-inclusive latency is built from.
        """
        return self.cost_model.latency + float(nbytes) / self.cost_model.bandwidth

    def charge_transfer(self, name: str, nbytes: float) -> float:
        """Charge one front-end <-> shard point-to-point transfer.

        Modelled as ``alpha + bytes / beta`` -- one message over one link --
        and recorded so totals can be reported next to Section 7's numbers.
        Returns the simulated seconds charged.
        """
        seconds = self.cost_model.latency + float(nbytes) / self.cost_model.bandwidth
        self._record(CommRecord(name=name, bytes_moved=float(nbytes), seconds=seconds))
        return seconds

    def _record(self, record: CommRecord) -> None:
        with self._lock:
            self.records.append(record)
            self._comm_seconds += record.seconds
            self._comm_bytes += record.bytes_moved
            self._comm_by_name[record.name] = self._comm_by_name.get(record.name, 0.0) + record.seconds

    def comm_seconds(self) -> float:
        """Total cross-shard communication seconds charged so far."""
        with self._lock:
            return float(self._comm_seconds)

    def comm_bytes(self) -> float:
        """Total cross-shard bytes moved so far."""
        with self._lock:
            return float(self._comm_bytes)

    def comm_by_name(self) -> Dict[str, float]:
        """Seconds per transfer name."""
        with self._lock:
            return dict(self._comm_by_name)

    # ------------------------------------------------------------------
    def loads(self) -> List[float]:
        """Per-shard simulated busy seconds (delegates to the pool)."""
        return self.pool.loads()

    def makespan(self) -> float:
        """Busiest shard's accumulated simulated seconds."""
        return self.pool.makespan()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardScheduler(pool={self.pool!r}, comm_seconds={self.comm_seconds():.3e})"

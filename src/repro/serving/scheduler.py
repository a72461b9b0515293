"""Shard scheduling: spread micro-batches across a pool of GPU executors.

The scheduler owns an :class:`~repro.gpu.pool.ExecutorPool` and decides which
shard runs each micro-batch.  Two policies compose:

* **cache affinity** -- a batch whose operator is already cached runs on the
  shard that owns the operator (sketch state lives in device memory and is
  bound to its executor; moving it would cost more than queueing behind it);
* **least-loaded placement** -- a batch that needs a brand-new operator goes
  to the shard with the least accumulated simulated time, balancing load
  across distinct problem shapes.

A third, *elastic* axis rides on top for the concurrent runtime: the
scheduler keeps an **active shard count** and only hands least-loaded work
to active shards.  :class:`ElasticShardPolicy` decides when to grow or
shrink that count from queue-depth and p95-latency telemetry, and every
transition is recorded as a :class:`ScaleEvent` so load tests can assert
the scale-up *and* the scale-back-down actually happened.

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
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.distributed.comm import CommCostModel, CommRecord
from repro.gpu.pool import ExecutorPool


@dataclass(frozen=True)
class ScaleEvent:
    """One elastic-scaling transition of the active shard set.

    ``at_seconds`` is the pool makespan when the decision was taken, so a
    sequence of events reads as a timeline on the simulated clock.
    """

    at_seconds: float
    from_shards: int
    to_shards: int
    reason: str
    queue_depth: int = 0
    p95_seconds: float = 0.0

    @property
    def direction(self) -> str:
        """``"up"`` or ``"down"``."""
        return "up" if self.to_shards > self.from_shards else "down"


@dataclass
class ElasticShardPolicy:
    """Grow/shrink the active shard count from load telemetry.

    The decision inputs are the two signals a serving runtime always has:
    the admission-queue depth (how much work is waiting) and the recent p95
    request latency (how badly the current capacity is keeping up).  The
    policy is deliberately asymmetric -- it doubles on pressure and steps
    down by one shard at a time -- because under-provisioning sheds user
    traffic while over-provisioning merely parks simulated silicon.

    Parameters
    ----------
    min_shards / max_shards:
        Bounds on the active count.
    queue_high:
        Scale *up* when the queue holds more than this many pending work
        items per active shard.
    queue_low:
        Scale *down* when the queue holds fewer than this many pending
        items per active shard (and the latency signal agrees).
    p95_budget:
        Optional latency target: p95 above it forces a scale-up even at
        modest queue depth, p95 must be under it before scaling down.
    cooldown_batches:
        Minimum completed dispatches between two evaluations, so one burst
        cannot thrash the active set up and down.
    proactive:
        When True the policy also reacts to *predicted* queue drain time
        (calibrated service estimate x depth / active shards, supplied by
        the runtime): scale up when the backlog is projected to take more
        than ``drain_budget`` seconds to clear even though the per-shard
        depth has not breached ``queue_high`` yet.  This is the
        closed-loop mode -- it acts on where the queue is *going* rather
        than where it already is, and it degrades to the reactive policy
        whenever no prediction is available.
    drain_budget:
        Projected drain seconds that trigger a proactive scale-up
        (required when ``proactive`` is set).
    """

    min_shards: int = 1
    max_shards: int = 8
    queue_high: float = 4.0
    queue_low: float = 1.0
    p95_budget: Optional[float] = None
    cooldown_batches: int = 4
    proactive: bool = False
    drain_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_shards <= 0:
            raise ValueError("min_shards must be positive")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.queue_low > self.queue_high:
            raise ValueError("queue_low must not exceed queue_high")
        if self.proactive and (self.drain_budget is None or self.drain_budget <= 0.0):
            raise ValueError("proactive mode needs a positive drain_budget")

    def decide(
        self,
        active: int,
        queue_depth: int,
        p95_seconds: Optional[float] = None,
        predicted_drain_seconds: Optional[float] = None,
    ) -> Tuple[int, str]:
        """Return ``(new_active, reason)``; ``new_active == active`` means hold."""
        per_shard = queue_depth / max(active, 1)
        latency_breach = (
            self.p95_budget is not None
            and p95_seconds is not None
            and p95_seconds > self.p95_budget
        )
        drain_breach = (
            self.proactive
            and predicted_drain_seconds is not None
            and self.drain_budget is not None
            and predicted_drain_seconds > self.drain_budget
        )
        if active < self.max_shards and (per_shard > self.queue_high or latency_breach or drain_breach):
            target = min(self.max_shards, max(active * 2, active + 1))
            if per_shard > self.queue_high:
                why = f"queue depth {queue_depth} over {self.queue_high:g}/shard"
            elif latency_breach:
                why = f"p95 {p95_seconds:.3e}s over budget {self.p95_budget:.3e}s"
            else:
                why = (
                    f"predicted drain {predicted_drain_seconds:.3e}s over "
                    f"budget {self.drain_budget:.3e}s"
                )
            return target, why
        latency_ok = (
            self.p95_budget is None
            or p95_seconds is None
            or p95_seconds <= self.p95_budget
        )
        drain_ok = not drain_breach
        if active > self.min_shards and per_shard < self.queue_low and latency_ok and drain_ok:
            return active - 1, f"queue depth {queue_depth} under {self.queue_low:g}/shard"
        return active, "hold"


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
    active_shards:
        Initial size of the *active* shard set (defaults to the whole
        pool).  Shards ``0..active_shards-1`` receive least-loaded
        placements; parked shards only run work explicitly pinned to them
        (cache affinity to state that already lives there).
    """

    #: Transfer records kept verbatim in :attr:`records`.
    RETAIN_RECORDS = 4096

    def __init__(
        self,
        pool: ExecutorPool,
        cost_model: Optional[CommCostModel] = None,
        *,
        active_shards: Optional[int] = None,
    ) -> None:
        self.pool = pool
        self.cost_model = cost_model if cost_model is not None else CommCostModel()
        #: The most recent transfers; totals cover every transfer ever charged.
        self.records: Deque[CommRecord] = deque(maxlen=self.RETAIN_RECORDS)
        self._comm_seconds = 0.0
        self._comm_bytes = 0.0
        self._comm_by_name: Dict[str, float] = {}
        self.scale_events: List[ScaleEvent] = []
        self._batches_per_shard: List[int] = [0] * pool.size
        self._lock = threading.Lock()
        if active_shards is None:
            active_shards = pool.size
        if not (1 <= active_shards <= pool.size):
            raise ValueError(f"active_shards must be in [1, {pool.size}]")
        self._active = int(active_shards)
        #: Optional ``callable(count)`` fired after the active set resizes
        #: (outside the scheduler lock) -- the server points this at its
        #: telemetry gauge so the current shard count is scrapeable.
        self.on_scale = None

    # ------------------------------------------------------------------
    # elastic active set
    # ------------------------------------------------------------------
    @property
    def active_shards(self) -> int:
        """Current size of the active shard set."""
        return self._active

    def active_set(self) -> Tuple[int, ...]:
        """Indices of the shards currently receiving least-loaded work."""
        return tuple(range(self._active))

    def set_active(
        self,
        count: int,
        *,
        reason: str = "",
        queue_depth: int = 0,
        p95_seconds: float = 0.0,
    ) -> bool:
        """Resize the active set, recording a :class:`ScaleEvent` on change.

        Returns whether the count actually changed.  Shrinking never drops
        in-flight state: parked shards keep their executors and cached
        operators, they just stop receiving new least-loaded placements.
        """
        count = int(count)
        if not (1 <= count <= self.pool.size):
            raise ValueError(f"active shard count must be in [1, {self.pool.size}]")
        with self._lock:
            if count == self._active:
                return False
            event = ScaleEvent(
                at_seconds=self.pool.makespan(),
                from_shards=self._active,
                to_shards=count,
                reason=reason,
                queue_depth=queue_depth,
                p95_seconds=p95_seconds,
            )
            self._active = count
            self.scale_events.append(event)
        if self.on_scale is not None:
            self.on_scale(count)
        return True

    def scale_transitions(self) -> Dict[str, int]:
        """``{"up": ..., "down": ...}`` counts of recorded scale events."""
        with self._lock:
            ups = sum(1 for e in self.scale_events if e.direction == "up")
            downs = len(self.scale_events) - ups
        return {"up": ups, "down": downs}

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, preferred: Optional[int] = None) -> int:
        """Pick the shard for a batch.

        ``preferred`` (cache affinity) wins when given -- even for a parked
        shard, because pinned device state (a session's window sketch, an
        unseeded operator) cannot move; otherwise the least loaded *active*
        shard by simulated busy time is chosen.
        """
        with self._lock:
            if preferred is not None:
                if not (0 <= preferred < self.pool.size):
                    raise ValueError(
                        f"shard {preferred} out of range for pool of {self.pool.size}"
                    )
                shard = preferred
            else:
                loads = self.pool.loads()
                shard = min(range(self._active), key=lambda s: loads[s])
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

    def charge_replication(self, state_bytes: float, n_replicas: int) -> float:
        """Charge broadcasting operator state to ``n_replicas`` shards."""
        seconds = self.cost_model.broadcast_time(float(state_bytes), max(n_replicas, 1) + 1)
        self._record(
            CommRecord(name="operator_replication", bytes_moved=float(state_bytes), seconds=seconds)
        )
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

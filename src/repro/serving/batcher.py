"""Micro-batching: coalesce same-problem solve requests into fused batches.

Serving traffic for least squares is dominated by many right-hand sides
against few coefficient matrices (scoring observations against a shared
design matrix).  Solving them one at a time pays the ``S A`` matrix sketch
and the GEQRF once *per request*; fused into a multi-RHS solve they are paid
once *per batch*, with the per-request work shrinking to one extra sketched
column and one extra TRSM column -- the amortisation the serving layer's
throughput comes from (see :func:`repro.linalg.lstsq.sketch_and_solve`'s
multi-RHS path).

Only requests sharing the *same* coefficient matrix (by identity), dtype,
sketch kind, solver and ridge lambda are fused -- that is the mathematical requirement for
a multi-RHS solve.  Requests that merely share a shape still benefit from
the operator cache, just not from fusion.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.requests import SolveRequest


@dataclass
class MicroBatch:
    """A group of fused solve requests sharing one coefficient matrix."""

    requests: List[SolveRequest]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a micro-batch needs at least one request")
        key = self.requests[0].group_key()
        for req in self.requests[1:]:
            if req.group_key() != key:
                raise ValueError("all requests in a micro-batch must share a group key")

    @property
    def size(self) -> int:
        """Number of fused requests."""
        return len(self.requests)

    @property
    def a(self) -> np.ndarray:
        """The shared coefficient matrix."""
        return self.requests[0].a

    @property
    def kind(self) -> str:
        """Sketch family of the batch."""
        return self.requests[0].kind

    @property
    def solver(self) -> str:
        """Solver of the batch."""
        return self.requests[0].solver

    def rhs_block(self) -> np.ndarray:
        """Stack the right-hand sides into the ``d x m`` block ``B``.

        One copy, F-ordered (the transpose of the stacked rows), so the
        residual check reads ``B^T`` as a C-contiguous view
        (:func:`~repro.linalg.lstsq.block_residuals`).
        """
        return np.stack([req.b for req in self.requests]).T


class MicroBatcher:
    """Accumulates solve requests and drains them as fused micro-batches.

    Parameters
    ----------
    max_batch:
        Upper bound on requests fused into one batch.  Groups larger than
        this are split into consecutive chunks; the bound keeps the RHS block
        (and the TRSM) from growing past the regime where fusion helps.
    """

    def __init__(self, max_batch: int = 32) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = int(max_batch)
        self._groups: "OrderedDict[Tuple, List[SolveRequest]]" = OrderedDict()
        self._pending = 0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of requests waiting to be drained."""
        return self._pending

    def add(self, request: SolveRequest) -> None:
        """Enqueue a request into its fusion group."""
        self._groups.setdefault(request.group_key(), []).append(request)
        self._pending += 1

    # ------------------------------------------------------------------
    def pop_batch(self, max_batch: Optional[int] = None) -> Optional[MicroBatch]:
        """Pop one micro-batch without draining the whole queue.

        The concurrent runtime's dispatcher pulls work incrementally -- one
        batch per worker wake-up -- instead of draining everything at once
        the way :meth:`drain` does.  The group chosen is the oldest one (by
        arrival of its first request); at most ``max_batch`` (defaulting to
        the batcher's own bound) requests are taken, leaving the remainder
        queued as the same group, in its place.  Returns ``None`` when
        nothing is pending.
        """
        if not self._groups:
            return None
        limit = self.max_batch if max_batch is None else int(max_batch)
        if limit <= 0:
            raise ValueError("max_batch must be positive")
        key = next(iter(self._groups))
        reqs = self._groups[key]
        if len(reqs) <= limit:
            del self._groups[key]
            taken = reqs
        else:
            taken = reqs[:limit]
            self._groups[key] = reqs[limit:]
        self._pending -= len(taken)
        return MicroBatch(taken)

    # ------------------------------------------------------------------
    def drain(self) -> List[MicroBatch]:
        """Return all pending requests as micro-batches and clear the queue.

        Groups are emitted in arrival order of their first request; groups
        larger than ``max_batch`` are split into consecutive chunks so a hot
        matrix cannot starve the rest of the queue behind one giant TRSM.
        """
        batches: List[MicroBatch] = []
        for reqs in self._groups.values():
            for start in range(0, len(reqs), self.max_batch):
                batches.append(MicroBatch(reqs[start : start + self.max_batch]))
        self._groups.clear()
        self._pending = 0
        return batches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MicroBatcher(pending={self._pending}, groups={len(self._groups)})"

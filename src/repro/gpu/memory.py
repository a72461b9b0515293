"""Device memory tracking for the simulated GPU.

The paper's Figures 2 and 5 contain blank bars where "the GPU ran out of
memory" while storing the explicit Gaussian sketching matrix.  To reproduce
that behaviour the executor routes every logical device allocation through a
:class:`DeviceMemoryTracker`, which enforces the device's capacity and records
a high-water mark.  Allocations are *logical*: the tracker does not itself
hold NumPy arrays, it only accounts for their sizes, so paper-scale problem
shapes (tens of GB) can be swept analytically without exhausting host RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


class DeviceOutOfMemoryError(MemoryError):
    """Raised when a simulated allocation exceeds the device capacity."""

    def __init__(self, requested: float, in_use: float, capacity: float, label: str = ""):
        self.requested = float(requested)
        self.in_use = float(in_use)
        self.capacity = float(capacity)
        self.label = label
        gb = 1.0e9
        super().__init__(
            f"simulated device out of memory allocating {requested / gb:.2f} GB"
            f"{' for ' + label if label else ''}: "
            f"{in_use / gb:.2f} GB already in use of {capacity / gb:.2f} GB capacity"
        )


@dataclass(frozen=True)
class Allocation:
    """A logical device allocation."""

    handle: int
    nbytes: float
    label: str


class DeviceMemoryTracker:
    """Tracks logical allocations against a device memory capacity.

    Parameters
    ----------
    capacity:
        Device memory capacity in bytes.
    reserve_fraction:
        Fraction of capacity reserved for the CUDA context, library
        workspaces and fragmentation.  Real devices never deliver 100% of
        their nominal capacity to the user; cuSOLVER/cuBLAS workspaces in the
        paper's least-squares pipeline are also charged to this reserve.
    record_allocations:
        Keep one :class:`Allocation` per live handle (diagnostics and
        double-free detection).  Without them the tracker keeps only its
        byte counters, so a long-lived executor whose arrays are never freed
        holds no per-allocation state; frees must then pass the size.
    """

    def __init__(
        self,
        capacity: float,
        reserve_fraction: float = 0.06,
        *,
        record_allocations: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self._capacity = float(capacity)
        self._usable = float(capacity) * (1.0 - reserve_fraction)
        self._in_use = 0.0
        self._peak = 0.0
        self._next_handle = 1
        self._record = bool(record_allocations)
        self._allocations: Dict[int, Allocation] = {}

    # -- properties -----------------------------------------------------
    @property
    def capacity(self) -> float:
        """Nominal device capacity in bytes."""
        return self._capacity

    @property
    def usable_capacity(self) -> float:
        """Capacity available to user allocations (after the reserve)."""
        return self._usable

    @property
    def in_use(self) -> float:
        """Bytes currently allocated."""
        return self._in_use

    @property
    def peak(self) -> float:
        """High-water mark of allocated bytes."""
        return self._peak

    @property
    def free(self) -> float:
        """Bytes still available to allocate."""
        return self._usable - self._in_use

    def live_allocations(self) -> Tuple[Allocation, ...]:
        """Currently live allocations, in handle order."""
        return tuple(self._allocations[h] for h in sorted(self._allocations))

    # -- allocation API --------------------------------------------------
    def alloc(self, nbytes: float, label: str = "") -> int:
        """Allocate ``nbytes`` and return an opaque handle.

        Raises
        ------
        DeviceOutOfMemoryError
            If the allocation would exceed the usable capacity.
        ValueError
            If ``nbytes`` is negative.
        """
        nbytes = float(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._in_use + nbytes > self._usable:
            raise DeviceOutOfMemoryError(nbytes, self._in_use, self._usable, label)
        handle = self._next_handle
        self._next_handle += 1
        if self._record:
            self._allocations[handle] = Allocation(handle, nbytes, label)
        self._in_use += nbytes
        self._peak = max(self._peak, self._in_use)
        return handle

    def alloc_array(self, shape: Tuple[int, ...], dtype=np.float64, label: str = "") -> int:
        """Allocate space for an array of the given shape and dtype."""
        nbytes = float(np.prod(shape, dtype=np.float64)) * np.dtype(dtype).itemsize
        return self.alloc(nbytes, label=label or f"array{tuple(shape)}")

    def free_handle(self, handle: int, nbytes: Optional[float] = None) -> None:
        """Release an allocation by handle.  Freeing twice raises KeyError.

        ``nbytes`` (the allocation's size) is required when the tracker keeps
        no per-allocation records and ignored otherwise.
        """
        if self._record:
            self._in_use -= self._allocations.pop(handle).nbytes
        elif nbytes is None:
            raise ValueError("a tracker without allocation records needs the size to free")
        else:
            self._in_use -= float(nbytes)

    def would_fit(self, nbytes: float) -> bool:
        """Whether an allocation of ``nbytes`` would currently succeed."""
        return self._in_use + float(nbytes) <= self._usable

    def reset(self) -> None:
        """Free everything and clear the peak statistic."""
        self._allocations.clear()
        self._in_use = 0.0
        self._peak = 0.0

    # -- scoped helper ----------------------------------------------------
    def scoped(self, nbytes: float, label: str = "") -> "_ScopedAllocation":
        """Context manager that allocates on enter and frees on exit."""
        return _ScopedAllocation(self, nbytes, label)


class _ScopedAllocation:
    """Context manager used by :meth:`DeviceMemoryTracker.scoped`."""

    def __init__(self, tracker: DeviceMemoryTracker, nbytes: float, label: str) -> None:
        self._tracker = tracker
        self._nbytes = nbytes
        self._label = label
        self._handle: Optional[int] = None

    def __enter__(self) -> int:
        self._handle = self._tracker.alloc(self._nbytes, self._label)
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._handle is not None:
            self._tracker.free_handle(self._handle, self._nbytes)
            self._handle = None


def array_nbytes(shape: Tuple[int, ...], dtype=np.float64) -> float:
    """Bytes required to store an array of ``shape`` and ``dtype``."""
    return float(np.prod(shape, dtype=np.float64)) * np.dtype(dtype).itemsize

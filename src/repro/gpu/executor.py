"""GPU executor: the central object of the simulated device stack.

A :class:`GPUExecutor` owns

* a :class:`~repro.gpu.device.DeviceSpec` (roofline parameters),
* a :class:`~repro.gpu.kernels.KernelCostModel`,
* a :class:`~repro.gpu.memory.DeviceMemoryTracker`, and
* a :class:`~repro.gpu.timing.SimClock`.

Library code (the sketch kernels, the cuBLAS/cuSPARSE/cuSOLVER stand-ins)
allocates :class:`~repro.gpu.arrays.DeviceArray` handles through the executor
and submits :class:`~repro.gpu.kernels.KernelRequest` objects describing each
launch.  The executor charges simulated time for every launch regardless of
mode; in *numeric* mode the caller additionally performs the NumPy arithmetic
on the handles' data, in *analytic* mode only shapes and costs flow through.

Two executors never share state, so experiments are trivially independent.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gpu.arrays import DeviceArray
from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.gpu.kernels import KernelCostModel, KernelRequest
from repro.gpu.memory import DeviceMemoryTracker
from repro.gpu.timing import KernelTiming, SimClock, TimeBreakdown


class GPUExecutor:
    """Simulated GPU execution context.

    Parameters
    ----------
    device:
        Device roofline description; defaults to the paper's H100 SXM5.
    numeric:
        If True (default) device arrays carry real NumPy data and kernels
        produce actual numerical results.  If False the executor runs
        analytically: allocations and timings are tracked but no
        floating-point data exists, enabling paper-scale shape sweeps.
    seed:
        Seed for the executor's host-side RNG (used by the cuRAND stand-in).
    track_memory:
        If False, the memory tracker is given effectively unlimited capacity
        and keeps byte counters only, no per-allocation records.  Useful for
        unit tests that exercise numerics at shapes unrelated to any real
        device, and for long-lived serving executors.
    """

    def __init__(
        self,
        device: DeviceSpec = H100_SXM5,
        *,
        numeric: bool = True,
        seed: Optional[int] = None,
        track_memory: bool = True,
    ) -> None:
        self.device = device
        self.numeric = bool(numeric)
        self.cost_model = KernelCostModel(device)
        capacity = device.memory_capacity if track_memory else 1.0e18
        self.memory = DeviceMemoryTracker(capacity, record_allocations=track_memory)
        self.clock = SimClock()
        self.rng = np.random.Generator(np.random.Philox(seed))
        self._blas = None
        self._sparse = None
        self._solver = None
        self._rand = None

    # ------------------------------------------------------------------
    # lazily constructed library handles (cuBLAS/cuSPARSE/cuSOLVER/cuRAND
    # stand-ins); imported locally to avoid circular imports.
    # ------------------------------------------------------------------
    @property
    def blas(self):
        """The :class:`~repro.gpu.blas.SimBLAS` handle bound to this executor."""
        if self._blas is None:
            from repro.gpu.blas import SimBLAS

            self._blas = SimBLAS(self)
        return self._blas

    @property
    def sparse(self):
        """The :class:`~repro.gpu.sparse.SimSparse` handle bound to this executor."""
        if self._sparse is None:
            from repro.gpu.sparse import SimSparse

            self._sparse = SimSparse(self)
        return self._sparse

    @property
    def solver(self):
        """The :class:`~repro.gpu.solver.SimSolver` handle bound to this executor."""
        if self._solver is None:
            from repro.gpu.solver import SimSolver

            self._solver = SimSolver(self)
        return self._solver

    @property
    def rand(self):
        """The :class:`~repro.gpu.rand.SimRNG` handle bound to this executor."""
        if self._rand is None:
            from repro.gpu.rand import SimRNG

            self._rand = SimRNG(self)
        return self._rand

    # ------------------------------------------------------------------
    # array management
    # ------------------------------------------------------------------
    def empty(
        self,
        shape: Tuple[int, ...],
        dtype=np.float64,
        order: str = "C",
        label: str = "",
    ) -> DeviceArray:
        """Allocate an uninitialised device array."""
        shape = tuple(int(s) for s in shape)
        handle = self.memory.alloc_array(shape, dtype, label=label)
        data = np.empty(shape, dtype=dtype) if self.numeric else None
        return DeviceArray(shape, dtype, order, data, label, handle, self)

    def zeros(
        self,
        shape: Tuple[int, ...],
        dtype=np.float64,
        order: str = "C",
        label: str = "",
    ) -> DeviceArray:
        """Allocate a zero-initialised device array (charges a memset kernel)."""
        arr = self.empty(shape, dtype, order, label)
        if arr.data is not None:
            arr.data.fill(0.0)
        from repro.gpu.kernels import KernelClass

        self.launch(
            KernelRequest(
                name="memset",
                kclass=KernelClass.STREAM,
                bytes_written=arr.nbytes,
                phase="memset",
            )
        )
        return arr

    def to_device(
        self,
        host: np.ndarray,
        order: str = "C",
        label: str = "",
        charge_transfer: bool = False,
    ) -> DeviceArray:
        """Place a host array onto the simulated device.

        The paper times kernels only (the matrices are generated on the
        device), so host-to-device transfer is not charged by default.
        """
        host = np.asarray(host)
        arr = self._adopt(host, np.array(host, copy=True) if self.numeric else None, order, label)
        if charge_transfer:
            from repro.gpu.kernels import KernelClass

            # PCIe/NVLink transfer modelled at a fraction of device bandwidth.
            self.launch(
                KernelRequest(
                    name="h2d_copy",
                    kclass=KernelClass.STREAM,
                    bytes_read=arr.nbytes,
                    bytes_written=arr.nbytes,
                    phase="transfer",
                )
            )
        return arr

    def place_readonly(self, host: np.ndarray, order: str = "C", label: str = "") -> DeviceArray:
        """Place a host array onto the simulated device, read-only.

        Accounted exactly like :meth:`to_device` (one allocation of the
        array's size, no transfer charged).  A contiguous array is not
        copied: the handle's data is a non-writeable view of the caller's
        buffer.  A strided array is packed into a contiguous copy, as
        :meth:`to_device` does, because BLAS blocks (and so rounds) strided
        operands differently.  Either way a write through the handle raises
        instead of changing the caller's array.  The solvers place their
        inputs this way.
        """
        host = np.asarray(host)
        data = None
        if self.numeric:
            shared = host.flags.c_contiguous or host.flags.f_contiguous
            data = host.view() if shared else np.array(host, copy=True)
            data.flags.writeable = False
        return self._adopt(host, data, order, label)

    def _adopt(self, host: np.ndarray, data, order: str, label: str) -> DeviceArray:
        handle = self.memory.alloc_array(host.shape, host.dtype, label=label)
        return DeviceArray(host.shape, host.dtype, order, data, label, handle, self)

    def like(self, template: DeviceArray, shape=None, order=None, label: str = "") -> DeviceArray:
        """Allocate an array with the same dtype as ``template``."""
        return self.empty(
            shape if shape is not None else template.shape,
            dtype=template.dtype,
            order=order if order is not None else template.order,
            label=label or template.label,
        )

    # ------------------------------------------------------------------
    # kernel submission
    # ------------------------------------------------------------------
    def launch(self, request: KernelRequest, phase: Optional[str] = None) -> KernelTiming:
        """Charge a kernel launch to the simulated clock and return its timing."""
        timing = self.cost_model.estimate(request, phase=phase)
        return self.clock.record(timing)

    def phase(self, label: str):
        """Label every kernel launched in the returned ``with`` block."""
        return self.clock.phase(label)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Total simulated seconds accumulated so far."""
        return self.clock.now

    def breakdown(self) -> TimeBreakdown:
        """The full time breakdown accumulated so far."""
        return self.clock.breakdown

    def mark(self) -> int:
        """Return a marker for :meth:`breakdown_since` (number of records so far)."""
        return len(self.clock.breakdown)

    def breakdown_since(self, mark: int) -> TimeBreakdown:
        """Breakdown of everything launched after :meth:`mark` returned ``mark``."""
        return self.clock.breakdown_since(mark)

    def elapsed_since(self, mark: int) -> float:
        """Simulated seconds of everything launched after the marker."""
        return self.breakdown_since(mark).total()

    def reset_clock(self) -> None:
        """Zero the simulated clock (memory allocations are kept)."""
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "numeric" if self.numeric else "analytic"
        return f"GPUExecutor(device='{self.device.name}', mode={mode})"

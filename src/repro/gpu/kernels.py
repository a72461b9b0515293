"""Kernel cost model for the simulated GPU.

Every simulated kernel is described by the quantities the paper's roofline
discussion uses:

* the bytes it reads/writes from global memory,
* the floating point operations it performs,
* the number of launches / synchronisation stages it needs, and
* a *kernel class* determining the fraction of the device's peak bandwidth or
  peak FLOP/s it can realistically achieve.

The achieved-fraction constants live on :class:`~repro.gpu.device.DeviceSpec`
and are calibrated to the percentages the paper reports in Figures 3 and 4:
~50-60% of peak bandwidth for the atomic CountSketch kernel (Algorithm 2),
~20% for the cuSPARSE SpMM CountSketch, ~60-70% for the FWHT/SRHT, and a high
FLOP fraction for the cuBLAS GEMM paths (Gram matrix, Gaussian sketch).

The model is the classic roofline max(memory time, compute time) plus fixed
per-launch and per-synchronisation overheads.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, NamedTuple, Optional, Tuple

from repro.gpu.device import DeviceSpec
from repro.gpu.timing import KernelTiming

#: Entry cap of the cost memos (``KernelCostModel.estimate`` and the
#: registry's dry-run costs): a memo that reaches it is emptied and refills.
COST_MEMO_CAP = 4096


class KernelClass(enum.Enum):
    """Execution-efficiency class of a kernel."""

    #: Well-coalesced streaming kernel (copy, transpose, scale, axpy).
    STREAM = "stream"
    #: Kernel dominated by atomic additions into global memory
    #: (the Algorithm-2 CountSketch).
    ATOMIC = "atomic"
    #: Sparse matrix x dense matrix product with random sparsity
    #: (cuSPARSE SpMM CountSketch baseline).
    SPMM = "spmm"
    #: Dense matrix-matrix multiply (cuBLAS GEMM / SYRK).
    GEMM = "gemm"
    #: Shared-memory staged FWHT butterflies.
    FWHT = "fwht"
    #: Random number generation (cuRAND).
    RNG = "rng"
    #: Dense factorisation kernels (cuSOLVER POTRF/GEQRF/ORMQR) -- these are
    #: blocked algorithms that achieve a decent but not ideal FLOP fraction
    #: on tall-skinny problems.
    FACTOR = "factor"
    #: Triangular solves with a single right-hand side (TRSV) or a block
    #: (TRSM); bandwidth-bound at the paper's sizes.
    TRIANGULAR = "triangular"


class KernelRequest(NamedTuple):
    """Resource request for one logical kernel (immutable and hashable).

    Attributes
    ----------
    name:
        Kernel name for reporting.
    kclass:
        The :class:`KernelClass` that selects the efficiency constants.
    bytes_read / bytes_written:
        Global-memory traffic in bytes.
    flops:
        Floating point operations.
    launches:
        Number of kernel launches folded into the request (each pays the
        launch overhead).
    syncs:
        Number of device synchronisations (each pays the sync overhead).
    dtype_size:
        Width of the floating point type in bytes (8 for FP64), used to pick
        the FLOP peak.
    phase:
        Default phase label attached to the resulting timing.
    """

    name: str
    kclass: KernelClass
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    launches: int = 1
    syncs: int = 0
    dtype_size: int = 8
    phase: str = "unlabelled"

    @property
    def bytes_moved(self) -> float:
        return self.bytes_read + self.bytes_written


class KernelCostModel:
    """Maps a :class:`KernelRequest` to a simulated :class:`KernelTiming`.

    Parameters
    ----------
    device:
        Roofline parameters of the simulated device.
    min_kernel_time:
        Lower bound on the duration of a single launch; even an empty CUDA
        kernel takes a few microseconds end to end.
    """

    def __init__(self, device: DeviceSpec, min_kernel_time: float = 1.0e-6) -> None:
        self._device = device
        self._min_kernel_time = float(min_kernel_time)
        self._memo: Dict[Tuple[KernelRequest, Optional[str]], KernelTiming] = {}

    @property
    def device(self) -> DeviceSpec:
        return self._device

    # ------------------------------------------------------------------
    def bandwidth_efficiency(self, kclass: KernelClass) -> float:
        """Achieved fraction of peak memory bandwidth for a kernel class."""
        dev = self._device
        return {
            KernelClass.STREAM: dev.stream_efficiency,
            KernelClass.ATOMIC: dev.atomic_efficiency,
            KernelClass.SPMM: dev.spmm_efficiency,
            KernelClass.GEMM: dev.stream_efficiency,
            KernelClass.FWHT: dev.fwht_efficiency,
            KernelClass.RNG: dev.stream_efficiency,
            KernelClass.FACTOR: 0.60,
            KernelClass.TRIANGULAR: 0.40,
        }[kclass]

    def flop_efficiency(self, kclass: KernelClass) -> float:
        """Achieved fraction of peak FLOP/s for a kernel class."""
        dev = self._device
        return {
            KernelClass.STREAM: 0.25,
            KernelClass.ATOMIC: 0.25,
            KernelClass.SPMM: 0.10,
            KernelClass.GEMM: dev.gemm_efficiency,
            KernelClass.FWHT: 0.25,
            KernelClass.RNG: 0.25,
            # Panel-based factorizations (GEQRF on tall-skinny matrices,
            # POTRF on small Gram matrices) achieve a small fraction of peak;
            # this is what penalises the CountSketch-only sketch-and-solve
            # solver, whose GEQRF operates on a k = 2 n^2 row sketch (Fig. 5).
            KernelClass.FACTOR: 0.12,
            KernelClass.TRIANGULAR: 0.10,
        }[kclass]

    # ------------------------------------------------------------------
    def memory_time(self, request: KernelRequest) -> float:
        """Time attributable to global memory traffic (seconds)."""
        eff = self.bandwidth_efficiency(request.kclass)
        bw = self._device.memory_bandwidth * eff
        if bw <= 0.0:
            return math.inf
        return request.bytes_moved / bw

    def compute_time(self, request: KernelRequest) -> float:
        """Time attributable to floating point work (seconds)."""
        if request.flops <= 0.0:
            return 0.0
        if request.kclass is KernelClass.RNG:
            # RNG throughput is expressed directly in values/second; the
            # request encodes one flop per generated value.
            return request.flops / self._device.rng_rate
        eff = self.flop_efficiency(request.kclass)
        peak = self._device.peak_flops(request.dtype_size) * eff
        if peak <= 0.0:
            return math.inf
        return request.flops / peak

    def overhead_time(self, request: KernelRequest) -> float:
        """Fixed launch and synchronisation overhead (seconds)."""
        dev = self._device
        return (
            request.launches * max(dev.kernel_launch_overhead, self._min_kernel_time)
            + request.syncs * dev.sync_overhead
        )

    def estimate(self, request: KernelRequest, phase: Optional[str] = None) -> KernelTiming:
        """Produce the simulated timing for a kernel request.

        The roofline time is ``max(memory, compute)``; overheads are additive
        because launches and syncs serialise with the kernel body.  Requests
        and timings are frozen, so equal ``(request, phase)`` pairs share one
        memoised timing.
        """
        key = (request, phase)
        timing = self._memo.get(key)
        if timing is None:
            roofline = max(self.memory_time(request), self.compute_time(request))
            timing = KernelTiming(
                name=request.name,
                seconds=roofline + self.overhead_time(request),
                bytes_moved=request.bytes_moved,
                flops=request.flops,
                phase=phase if phase is not None else request.phase,
                launches=request.launches,
            )
            if len(self._memo) >= COST_MEMO_CAP:
                self._memo.clear()
            self._memo[key] = timing
        return timing

    # ------------------------------------------------------------------
    def peak_bandwidth(self) -> float:
        """The device's peak memory bandwidth (bytes/second)."""
        return self._device.memory_bandwidth

    def peak_flops(self, dtype_size: int = 8) -> float:
        """The device's peak FLOP/s for the given precision width."""
        return self._device.peak_flops(dtype_size)

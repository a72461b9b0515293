"""Device array handles for the simulated GPU.

A :class:`DeviceArray` is a lightweight handle describing an array resident in
(simulated) device memory: shape, dtype, storage order, and -- in *numeric*
mode -- the actual NumPy data.  In *analytic* mode the data pointer is absent
and only shapes flow through the pipelines, which lets the harness sweep the
paper's full problem sizes (up to :math:`2^{23} \\times 256` doubles, tens of
GB) without allocating them on the host.

Storage order matters in the paper: the CountSketch kernel wants row-major
``A`` for coalesced row reads, the FWHT wants column-major, and the
multisketch exploits a row-major/column-major reinterpretation to avoid
transposing the large intermediate.  The handle records the order so the
library code can charge transpose kernels exactly where the paper does.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _check_order(order: str) -> None:
    if order != "C" and order != "F":
        raise ValueError("order must be 'C' or 'F'")


class DeviceArray:
    """Handle to a (simulated) device-resident array.

    Instances are created by :class:`~repro.gpu.executor.GPUExecutor`; user
    code should not construct them directly.

    Attributes
    ----------
    shape:
        Array shape.
    dtype:
        NumPy dtype.
    order:
        ``"C"`` (row-major) or ``"F"`` (column-major).  This is a *logical*
        label used by the cost model; the backing NumPy array is always kept
        C-contiguous for simplicity.
    data:
        The backing NumPy array in numeric mode, ``None`` in analytic mode.
    label:
        Human-readable label used in memory-tracker diagnostics.
    """

    __slots__ = ("shape", "dtype", "order", "data", "label", "_handle", "_executor")

    def __init__(
        self,
        shape: Tuple[int, ...],
        dtype,
        order: str,
        data: Optional[np.ndarray],
        label: str,
        handle: Optional[int],
        executor,
    ) -> None:
        _check_order(order)
        self.shape = tuple(map(int, shape))
        self.dtype = np.dtype(dtype)
        self.order = order
        self.data = data
        self.label = label
        self._handle = handle
        self._executor = executor

    @classmethod
    def _checked(
        cls,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        order: str,
        data: Optional[np.ndarray],
        label: str,
        handle: Optional[int],
        executor,
    ) -> "DeviceArray":
        """A handle from parts already validated: ``shape`` a tuple of ints,
        ``dtype`` an ``np.dtype`` and ``order`` ``"C"`` or ``"F"``."""
        arr = cls.__new__(cls)
        arr.shape = shape
        arr.dtype = dtype
        arr.order = order
        arr.data = data
        arr.label = label
        arr._handle = handle
        arr._executor = executor
        return arr

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of elements."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> float:
        """Size of the array in bytes."""
        return float(self.size) * self.dtype.itemsize

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.dtype.itemsize

    @property
    def is_numeric(self) -> bool:
        """Whether this handle carries actual data."""
        return self.data is not None

    # ------------------------------------------------------------------
    def require_data(self) -> np.ndarray:
        """Return the backing array, raising if running analytically."""
        if self.data is None:
            raise RuntimeError(
                f"DeviceArray '{self.label}' has no numeric data "
                "(executor is in analytic mode)"
            )
        return self.data

    def to_host(self) -> np.ndarray:
        """Copy the array back to the host (numeric mode only)."""
        return np.array(self.require_data(), copy=True)

    def free(self) -> None:
        """Release the simulated device memory held by this handle."""
        if self._handle is not None and self._executor is not None:
            self._executor.memory.free_handle(self._handle, self.nbytes)
            self._handle = None
        self.data = None

    def with_order(self, order: str) -> "DeviceArray":
        """Return a handle viewing the same data under a different logical order.

        This is the zero-cost reinterpretation used by the multisketch trick
        in Section 6.1 of the paper: a ``k x n`` row-major array is exactly an
        ``n x k`` column-major array, so no data movement is required.  The
        shape is transposed accordingly.
        """
        if order == self.order:
            return self
        _check_order(order)
        if len(self.shape) == 2:
            new_shape = self.shape[::-1]
            new_data = self.data.T if self.data is not None else None
        else:
            new_shape = self.shape
            new_data = self.data
        # The original handle keeps ownership.
        return DeviceArray._checked(
            new_shape, self.dtype, order, new_data, self.label, None, self._executor
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "numeric" if self.is_numeric else "analytic"
        return (
            f"DeviceArray(shape={self.shape}, dtype={self.dtype.name}, "
            f"order='{self.order}', mode={mode}, label='{self.label}')"
        )

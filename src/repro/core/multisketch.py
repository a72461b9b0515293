"""Multisketching: composition of two (or more) sketch operators.

Section 1 of the paper: apply a cheap sketch ``S1`` that reduces the
dimension quickly (the CountSketch, to ``k1 = 2 n^2``), then a second sketch
``S2`` that brings the dimension down to its final small value (a Gaussian,
to ``k2 = 2 n``).  The composition is a subspace embedding with distortion
``(1 + eps1)(1 + eps2)`` (Table 1) and costs only ``O(d n + n^4)`` -- far less
than the ``O(d n^2)`` of a direct Gaussian sketch, and in practice faster
than computing the Gram matrix (Figure 2).

Implementation detail reproduced from Section 6.1: the Algorithm-2
CountSketch produces its output in row-major order, while cuBLAS wants
column-major.  Instead of transposing the large ``k1 x n`` intermediate, the
row-major buffer is reinterpreted as the column-major transpose and the
second sketch is applied as ``Z^T = Y^T G^T``; only the small ``k2 x n``
result is then transposed back.  The ``transpose_trick`` flag controls
whether this optimisation is used, so its effect can be measured (see the
ablation benchmark).
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import numpy as np

from repro.core.base import SketchOperator, default_embedding_dim
from repro.core.countsketch import CountSketch
from repro.core.gaussian import GaussianSketch
from repro.gpu.arrays import DeviceArray


class MultiSketch(SketchOperator):
    """Composition ``S = S_m ∘ ... ∘ S_2 ∘ S_1`` of sketch operators.

    Parameters
    ----------
    stages:
        Sketch operators to compose, listed in application order.  Stage
        ``i+1``'s input dimension must equal stage ``i``'s output dimension,
        and all stages must share the same executor.
    transpose_trick:
        Apply the Section-6.1 layout optimisation between a row-major
        producing stage (the CountSketch) and a GEMM stage (the Gaussian).
    """

    family = "multisketch"

    def __init__(
        self,
        stages: Sequence[SketchOperator],
        *,
        transpose_trick: bool = True,
    ) -> None:
        if len(stages) < 2:
            raise ValueError("a MultiSketch needs at least two stages")
        for first, second in zip(stages[:-1], stages[1:]):
            if second.d != first.k:
                raise ValueError(
                    f"stage dimensions do not chain: {type(first).__name__} outputs "
                    f"{first.k} rows but {type(second).__name__} expects {second.d}"
                )
            if second.executor is not first.executor:
                raise ValueError("all stages of a MultiSketch must share one executor")
        super().__init__(
            stages[0].d,
            stages[-1].k,
            executor=stages[0].executor,
            seed=stages[0].seed,
            dtype=stages[0].dtype,
        )
        self.stages = list(stages)
        self.transpose_trick = bool(transpose_trick)

    def _cache_key_extra(self) -> tuple:
        return tuple(stage.cache_key() for stage in self.stages) + (self.transpose_trick,)

    def with_first_stage(self, product) -> "MultiSketch":
        first = self.stages[0].with_first_stage(product)
        if first is self.stages[0]:
            return self
        twin = copy.copy(self)
        twin.stages = [first] + self.stages[1:]
        return twin

    # ------------------------------------------------------------------
    def _generate_impl(self) -> None:
        for stage in self.stages:
            stage.generate()

    # ------------------------------------------------------------------
    def _apply_impl(self, a: DeviceArray) -> DeviceArray:
        ex = self._ex
        phase = ex.clock.current_phase() or "Matrix sketch"
        current = a
        for i, stage in enumerate(self.stages):
            is_last = i == len(self.stages) - 1
            use_trick = (
                self.transpose_trick
                and isinstance(stage, GaussianSketch)
                and current.order == "C"
                and current is not a
            )
            if use_trick:
                # Reinterpret the row-major k1 x n intermediate as its
                # column-major transpose (free), apply the Gaussian through a
                # GEMM on the transposed operands, and transpose only the
                # small k2 x n result.
                y_t = current.with_order("F")  # shape (n, k1) column-major view
                z_t = ex.blas.gemm(
                    y_t,
                    stage.matrix,
                    trans_b=True,
                    phase=phase,
                    label="multisketch_zT",
                )  # (n, k2)
                current = ex.blas.transpose(z_t, phase=phase, label="multisketch_out")
            else:
                if (
                    not self.transpose_trick
                    and isinstance(stage, GaussianSketch)
                    and current.order == "C"
                    and current is not a
                ):
                    # Without the trick, the large row-major intermediate has
                    # to be converted to column-major before the GEMM stage:
                    # one full read+write pass over the k1 x n buffer.  The
                    # logical matrix is unchanged, so only the cost is charged.
                    from repro.gpu.kernels import KernelClass, KernelRequest

                    ex.launch(
                        KernelRequest(
                            name="layout_conversion",
                            kclass=KernelClass.STREAM,
                            bytes_read=current.nbytes,
                            bytes_written=current.nbytes,
                            dtype_size=current.itemsize,
                            phase=phase,
                        )
                    )
                    current.order = "F"
                current = stage._apply_impl(current)
        return current

    def _apply_vector_impl(self, b: DeviceArray) -> DeviceArray:
        current = b
        for stage in self.stages:
            current = stage._apply_vector_impl(current)
        return current

    # ------------------------------------------------------------------
    def explicit_matrix(self) -> np.ndarray:
        """Dense ``k x d`` matrix of the whole composition (testing helper)."""
        self.generate()
        mat = self.stages[0].explicit_matrix()
        for stage in self.stages[1:]:
            mat = stage.explicit_matrix() @ mat
        return mat


def first_stage_dim(d: int, n: int, oversampling: float = 2.0) -> int:
    """CountSketch height of the first stage: ``k1 = c n^2`` clipped to ``d``.

    The multisketch constructors use the paper's ``c = 2``; the planner's
    spectrum probe (:func:`repro.linalg.conditioning.estimate_spectrum_bounds`)
    uses its own oversampling, so at ``c = 2`` the probe *is* this stage.
    """
    return min(default_embedding_dim("countsketch", n, oversampling), d)


def count_gauss(
    d: int,
    n: int,
    *,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    countsketch_variant: str = "atomic",
    transpose_trick: bool = True,
    executor=None,
    seed: Optional[int] = None,
    dtype=np.float64,
) -> MultiSketch:
    """Build the paper's Count-Gauss multisketch for a ``d x n`` problem.

    Defaults follow Section 6.2: a CountSketch to ``k1 = 2 n^2`` (clipped to
    ``d``) followed by a Gaussian to ``k2 = 2 n``.

    Parameters
    ----------
    d, n:
        Dimensions of the matrix that will be sketched.
    k1, k2:
        Override the intermediate / final embedding dimensions.
    countsketch_variant:
        ``"atomic"`` (Algorithm 2) or ``"spmm"`` for the first stage.
    transpose_trick:
        Use the Section-6.1 layout optimisation.
    executor, seed, dtype:
        Forwarded to the stage constructors (both stages share the executor).
    """
    if k1 is None:
        k1 = first_stage_dim(d, n)
    if k2 is None:
        k2 = default_embedding_dim("gaussian", n)
    if k2 > k1:
        raise ValueError(f"k2={k2} must not exceed k1={k1}")
    count = CountSketch(
        d,
        k1,
        variant=countsketch_variant,
        executor=executor,
        seed=seed,
        dtype=dtype,
    )
    gauss = GaussianSketch(
        k1,
        k2,
        executor=count.executor,
        seed=None if seed is None else seed + 1,
        dtype=dtype,
    )
    return MultiSketch([count, gauss], transpose_trick=transpose_trick)


def count_srht(
    d: int,
    n: int,
    *,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    countsketch_variant: str = "atomic",
    executor=None,
    seed: Optional[int] = None,
    dtype=np.float64,
) -> MultiSketch:
    """Build a Count-SRHT multisketch (the paper's Section 8 future-work variant).

    "We are also interested in testing other multisketching implementations
    outside of simply using a CountSketch with a Gaussian sketch, such as
    using a CountSketch with a SRHT."  The first stage is identical to
    :func:`count_gauss`; the second stage replaces the dense Gaussian with an
    SRHT of the ``k1``-dimensional intermediate, which removes the dense
    ``k2 x k1`` matrix (and its generation cost) at the price of a couple of
    FWHT passes over the small intermediate.

    Defaults: ``k1 = 2 n^2`` (clipped to ``d``) and ``k2 = 2 n``.
    """
    from repro.core.srht import SRHT

    if k1 is None:
        k1 = first_stage_dim(d, n)
    if k2 is None:
        k2 = default_embedding_dim("srht", n)
    if k2 > k1:
        raise ValueError(f"k2={k2} must not exceed k1={k1}")
    count = CountSketch(
        d,
        k1,
        variant=countsketch_variant,
        executor=executor,
        seed=seed,
        dtype=dtype,
    )
    srht = SRHT(
        k1,
        k2,
        executor=count.executor,
        seed=None if seed is None else seed + 1,
        dtype=dtype,
    )
    # The SRHT stage is not a GEMM, so the Section-6.1 transpose trick does
    # not apply; the intermediate is consumed in whatever order the
    # CountSketch produced it.
    return MultiSketch([count, srht], transpose_trick=False)

"""Common interface for sketch operators.

A sketch operator is a random linear map :math:`S: \\mathbb{R}^d \\to
\\mathbb{R}^k` applied to the columns of a tall matrix
:math:`A \\in \\mathbb{R}^{d \\times n}` (Definition 1.1/1.2 of the paper).
Every concrete sketch in :mod:`repro.core` implements this interface; the
least-squares solvers in :mod:`repro.linalg` and the distributed layer in
:mod:`repro.distributed` only ever talk to it.

Phase labels follow the paper's figure legends: random-state generation is
"Sketch gen", the application to the coefficient matrix is "Matrix sketch",
and the application to the right-hand side vector is "Vector sketch".
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.gpu.arrays import DeviceArray
from repro.gpu.device import DeviceSpec, H100_SXM5
from repro.gpu.executor import GPUExecutor

#: Phase labels used across the library (and by the harness's breakdowns).
PHASE_SKETCH_GEN = "Sketch gen"
PHASE_MATRIX_SKETCH = "Matrix sketch"
PHASE_VECTOR_SKETCH = "Vector sketch"


def default_embedding_dim(kind: str, n: int, oversampling: float = 2.0) -> int:
    """Embedding dimension used by the paper's experiments for each sketch family.

    Section 6.2 fixes ``k = 2 n`` for the Gaussian sketch and the SRHT,
    ``k = 2 n^2`` for the CountSketch, and ``k1 = 2 n^2`` followed by
    ``k2 = 2 n`` for the multisketch.

    Parameters
    ----------
    kind:
        One of ``"gaussian"``, ``"srht"``, ``"countsketch"``,
        ``"multisketch"`` (returns the final dimension ``2 n``).
    n:
        Number of columns of the matrix to be sketched.
    oversampling:
        The constant in front (2 in the paper).
    """
    kind = kind.lower()
    if kind in ("gaussian", "gauss", "srht", "multisketch", "multi", "count_gauss"):
        return int(np.ceil(oversampling * n))
    if kind in ("countsketch", "count", "sparse"):
        return int(np.ceil(oversampling * n * n))
    raise ValueError(f"unknown sketch kind '{kind}'")


class SketchOperator(abc.ABC):
    """Abstract base class for all sketch operators.

    Parameters
    ----------
    d:
        Input dimension (number of rows of the matrices to be sketched).
    k:
        Embedding (output) dimension.
    executor:
        Simulated GPU executor.  If omitted a private numeric executor on the
        paper's H100 is created with memory tracking disabled, which is the
        right default for a library user who only cares about the numbers.
    seed:
        Seed for the sketch's random state.  Two operators built with the
        same ``(d, k, seed)`` are identical.
    dtype:
        Floating point type of the sketched output.
    """

    #: Human-readable family name, overridden by subclasses.
    family = "abstract"

    def __init__(
        self,
        d: int,
        k: int,
        *,
        executor: Optional[GPUExecutor] = None,
        seed: Optional[int] = None,
        dtype=np.float64,
    ) -> None:
        if d <= 0 or k <= 0:
            raise ValueError("sketch dimensions must be positive")
        if k > d:
            raise ValueError(
                f"embedding dimension k={k} exceeds input dimension d={d}; "
                "a sketch must reduce the dimension"
            )
        self._d = int(d)
        self._k = int(k)
        self._seed = seed
        self._dtype = np.dtype(dtype)
        if executor is None:
            executor = GPUExecutor(H100_SXM5, numeric=True, seed=seed, track_memory=False)
        self._ex = executor
        self._generated = False
        # A sketch with an explicit seed owns its own generator so that two
        # operators built with the same (d, k, seed) draw identical random
        # state even when they share an executor; seedless sketches draw from
        # the executor's stream.
        self._local_rng = (
            np.random.Generator(np.random.Philox(seed)) if seed is not None else None
        )

    @property
    def generator(self) -> np.random.Generator:
        """Generator used for this operator's numeric random draws."""
        return self._local_rng if self._local_rng is not None else self._ex.rng

    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Input dimension."""
        return self._d

    @property
    def k(self) -> int:
        """Embedding (output) dimension."""
        return self._k

    @property
    def shape(self) -> tuple:
        """The operator's shape ``(k, d)`` viewed as a matrix."""
        return (self._k, self._d)

    @property
    def dtype(self) -> np.dtype:
        """Floating point type of the sketched output."""
        return self._dtype

    @property
    def executor(self) -> GPUExecutor:
        """The simulated-GPU executor this operator launches kernels on."""
        return self._ex

    @property
    def seed(self) -> Optional[int]:
        """Seed the operator was constructed with."""
        return self._seed

    @property
    def is_generated(self) -> bool:
        """Whether the random state has been materialised."""
        return self._generated

    # ------------------------------------------------------------------
    #: Whether the operator is an oblivious subspace embedding at its
    #: configured ``k`` (Definition 1.1).  Solvers that *precondition* with
    #: the sketch (rand_cholQR, sketch-preconditioned LSQR) require this;
    #: plain sketch-and-solve merely degrades without it.  Subclasses that
    #: sample rather than embed should override with ``False``.
    subspace_embedding = True

    def capabilities(self) -> dict:
        """Capability descriptor consumed by the solver registry and planner.

        Keys:

        * ``family`` -- the operator family name.
        * ``subspace_embedding`` -- whether the operator satisfies the
          embedding property solvers rely on for preconditioning.
        * ``reproducible`` -- whether the state is a pure function of the
          constructor parameters (seeded), i.e. cacheable / replicable by
          the serving layer.
        * ``supports_multi_rhs`` -- whether :meth:`apply` accepts a block of
          columns (all operators here do; the hook exists so the registry
          can gate fused batches on it uniformly).
        """
        return {
            "family": self.family,
            "subspace_embedding": bool(self.subspace_embedding),
            "reproducible": self._seed is not None,
            "supports_multi_rhs": True,
        }

    # ------------------------------------------------------------------
    def cache_key(self) -> tuple:
        """Stable identity of this operator's random state.

        Two operators with equal cache keys produce bit-identical sketches:
        the key captures the family, the dimensions, the seed, the dtype and
        any family-specific configuration (via :meth:`_cache_key_extra`).
        This is the contract that makes sketch state cheap to cache and share
        across requests: an operator can always be rebuilt from its
        parameters alone.  The serving layer's
        :func:`repro.serving.cache.operator_cache_key` is the lookup-side
        counterpart -- it is computed from request parameters *before* any
        operator exists, and two operators built from one serving key always
        have equal ``cache_key()``s (asserted in the serving tests).

        Seedless operators draw from their executor's stream, so their state
        is not reproducible from parameters; their key includes ``id(self)``
        and therefore never aliases another instance.
        """
        seed_part = self._seed if self._seed is not None else ("unseeded", id(self))
        return (
            self.family,
            self._d,
            self._k,
            seed_part,
            self._dtype.str,
        ) + self._cache_key_extra()

    def _cache_key_extra(self) -> tuple:
        """Subclass hook: extra configuration that changes the sketch state."""
        return ()

    def with_first_stage(self, product) -> "SketchOperator":
        """This operator, reusing an already computed first-stage product.

        ``product`` is a :class:`~repro.core.countsketch.SketchProduct`.  When
        the operator's first stage is the CountSketch the product was taken
        with (equal ``cache_key()``), the result is a per-use copy whose
        first stage returns the stored ``S @ A`` for that ``A`` instead of
        recomputing it; it launches and charges the same kernels.  Otherwise
        -- the base case -- the operator itself is returned.
        """
        return self

    # ------------------------------------------------------------------
    def generate(self) -> "SketchOperator":
        """Materialise the operator's random state (idempotent).

        Time is charged under the "Sketch gen" phase.  Returns ``self`` for
        chaining.
        """
        if not self._generated:
            with self._ex.phase(PHASE_SKETCH_GEN):
                self._generate_impl()
            self._generated = True
        return self

    @abc.abstractmethod
    def _generate_impl(self) -> None:
        """Subclass hook: create the random state on the device."""

    # ------------------------------------------------------------------
    def apply(self, a: DeviceArray, phase: str = PHASE_MATRIX_SKETCH) -> DeviceArray:
        """Sketch a device matrix: return ``S @ a`` with shape ``(k, n)``.

        ``a`` must have ``d`` rows.  Generation happens lazily on first use.
        """
        self._check_input(a)
        self.generate()
        with self._ex.phase(phase):
            return self._apply_impl(a)

    def apply_vector(self, b: DeviceArray, phase: str = PHASE_VECTOR_SKETCH) -> DeviceArray:
        """Sketch a device vector: return ``S @ b`` with shape ``(k,)``."""
        self._check_input(b)
        self.generate()
        with self._ex.phase(phase):
            return self._apply_vector_impl(b)

    @abc.abstractmethod
    def _apply_impl(self, a: DeviceArray) -> DeviceArray:
        """Subclass hook: sketch a matrix."""

    def _apply_vector_impl(self, b: DeviceArray) -> DeviceArray:
        """Default vector path: treat the vector as a one-column matrix."""
        ex = self._ex
        col = ex.empty((self._d, 1), dtype=b.dtype, order=b.order, label="b_col")
        if col.data is not None and b.is_numeric:
            col.data[:, 0] = b.data
        y = self._apply_impl(col)
        out = ex.empty((self._k,), dtype=b.dtype, label="sb")
        if out.data is not None and y.is_numeric:
            out.data[...] = y.data[:, 0]
        return out

    # ------------------------------------------------------------------
    def sketch_host(self, a: np.ndarray) -> np.ndarray:
        """Convenience: sketch a host NumPy array and return a host array.

        This is the entry point most downstream users want; the simulated
        timing machinery still runs underneath but can be ignored.
        """
        a = np.asarray(a, dtype=self._dtype)
        if a.ndim == 1:
            dev = self._ex.to_device(a, label="host_vector")
            return self.apply_vector(dev).to_host()
        dev = self._ex.to_device(a, order="C", label="host_matrix")
        return self.apply(dev).to_host()

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        """``S @ A`` for host arrays (syntactic sugar for :meth:`sketch_host`)."""
        return self.sketch_host(a)

    # ------------------------------------------------------------------
    def explicit_matrix(self) -> np.ndarray:
        """Return the dense ``k x d`` matrix this operator represents.

        Intended for testing and for small problems only; the default
        implementation sketches the identity, subclasses may override with a
        cheaper construction.
        """
        self.generate()
        eye = np.eye(self._d, dtype=self._dtype)
        return self.sketch_host(eye)

    # ------------------------------------------------------------------
    def _check_input(self, a: DeviceArray) -> None:
        if a.shape[0] != self._d:
            raise ValueError(
                f"{type(self).__name__} expects inputs with {self._d} rows, "
                f"got shape {a.shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(d={self._d}, k={self._k}, "
            f"seed={self._seed}, dtype={self._dtype.name})"
        )

"""The :class:`ArrayBackend` protocol — one numerics seam for the hot path.

PR 1 reduced the batched DFR forward/backward (paper Eqs. 13, 23, 30-32) to
dense array operations: element-wise shape functions, ``einsum``
contractions, and first-order IIR filters (``lfilter``) along the virtual-
node axis.  Exactly this op set is what an accelerator array library
provides, so the hot path talks to arrays only through the small protocol
below and any conforming backend — NumPy (the reference), PyTorch, CuPy —
can execute it.

Design rules
------------
* **NumPy is the reference.**  :class:`~repro.backend.numpy_backend.NumpyBackend`
  delegates every method to the very NumPy/SciPy call the pre-backend code
  made, in the same order, so routing through the shim is *bit-identical*
  to the historical implementation (pinned by ``tests/test_backend.py``).
* **Arrays stay device-resident.**  A backend's methods accept and return
  its native array type; conversion happens only at the seam boundaries
  (:meth:`ArrayBackend.asarray` on the way in, :meth:`ArrayBackend.to_numpy`
  on the way out).  Python operators (``+``, ``*``, ``@``, slicing,
  ``None``-indexing) are shared across NumPy/Torch/CuPy and are used
  directly; only the operations whose spelling differs between libraries
  go through protocol methods.
* **Missing libraries fail loudly, not silently.**  Resolving a backend
  whose library is not importable raises
  :class:`~repro.backend.BackendUnavailableError`; nothing silently falls
  back to NumPy, so a mis-configured ``REPRO_BACKEND`` cannot masquerade
  as an accelerated run.

The one structurally interesting method is :meth:`first_order_filter`: the
recursion ``y_n = x_n + c * y_{n-1}`` is the Eq.-13 node chain (forward)
and the reversed Eq.-30 chain (backward).  SciPy and CuPy evaluate it with
a C/CUDA ``lfilter``; backends without an ``lfilter`` may use the
closed-form ``y = x @ T(c) + zi * c**k`` with a cached lower-triangular
Toeplitz matrix of powers — exact for any first-order filter and fully
parallel — or, beyond a crossover chain length, the log-depth associative
scan of :mod:`repro.backend.scan` (``REPRO_FILTER_IMPL`` pins the choice).

Fused element-wise chains
-------------------------
The per-step hot loops string 4–6 element-wise dispatches between two
filter calls (mask drive, pre-activation, shape function, feedback
boundary; the ``dphi`` drive term on the way back).  The
:meth:`masked_drive` / :meth:`fused_filter_prep` /
:meth:`fused_backward_drive` seam methods bundle each chain into ONE
backend call: the base implementations below compose the protocol
primitives in exactly the historical order (so NumPy stays bit-identical),
and device backends may override them with genuinely fused kernels
(``torch.compile`` on Torch, ``cupy.fuse`` on CuPy).

Precision
---------
Backends carry a working float dtype (:attr:`ArrayBackend.float_dtype`,
named by :attr:`ArrayBackend.dtype_name`): ``float64`` is the default and
the bit-pinned reference; ``float32`` is an opt-in for device throughput,
validated against the float64 reference by rtol-bounded parity tests (the
tolerance contract lives in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["ArrayBackend", "BackendUnavailableError", "TransferStats"]


def _per_candidate(A, B, states) -> tuple:
    """``(A, B, states)`` triples: one per candidate of a stacked sweep."""
    return tuple(zip(A, B, states)) if np.ndim(A) else ((A, B, states),)


class BackendUnavailableError(ImportError):
    """Raised when a requested backend's library cannot be imported."""


@dataclass
class TransferStats:
    """Counters for array crossings of the numpy <-> backend seam.

    The serving layer's device-residency contract is *structural*: between
    scheduler ticks every carried array stays backend-native, and host
    conversions happen only at declared result boundaries.  These counters
    make that contract assertable.  A "transfer" is one array conversion
    at the seam — a real device copy when the backend sits on an
    accelerator, a cheap (often zero-copy) type hop on CPU backends; the
    count is the same either way, which is exactly what lets the NumPy
    reference pin the *structure* of the hot loop in tests.

    Attributes
    ----------
    to_device:
        ``asarray`` calls that converted a host ``numpy.ndarray`` into a
        native backend array (input boundary: chunk uploads, parameter
        stacks).
    to_host:
        Plain ``to_numpy`` calls that converted a native backend array to
        NumPy.  The serving hot loop must keep this at **zero** for
        resident sessions — any growth means a per-tick host round-trip
        crept back in.
    boundary_to_host:
        Host conversions routed through :meth:`ArrayBackend.to_numpy_boundary`
        — declared result/control-flow boundaries (final features and
        scores, per-sweep divergence flags).  These are expected and
        excluded from the residency assertion.
    """

    to_device: int = 0
    to_host: int = 0
    boundary_to_host: int = 0

    def reset(self) -> None:
        self.to_device = 0
        self.to_host = 0
        self.boundary_to_host = 0

    def as_dict(self) -> dict:
        return {
            "to_device": self.to_device,
            "to_host": self.to_host,
            "boundary_to_host": self.boundary_to_host,
        }


class ArrayBackend:
    """Protocol for array numerics executed by the batched hot path.

    Subclasses provide a ``name`` (registry key), a ``float64`` dtype
    handle, a ``device`` description, and the operations below.  All array
    arguments are the backend's native arrays unless stated otherwise;
    ``shape`` arguments are plain tuples and ``axis`` arguments plain ints.
    """

    #: registry name ("numpy", "torch", "cupy")
    name: str = "base"
    #: the backend's double-precision dtype handle
    float64: object = None
    #: the backend's *working* float dtype handle — equals :attr:`float64`
    #: by default; a ``dtype="float32"`` backend points it at the library's
    #: single-precision dtype and the hot path allocates/converts with it
    float_dtype: object = None
    #: name of the working dtype ("float64" or "float32")
    dtype_name: str = "float64"
    #: human-readable device the backend computes on (e.g. "cpu", "cuda:0")
    device: Optional[str] = None
    #: whether :meth:`lfilter_general` is implemented (an arbitrary-order
    #: IIR filter; the identity-reservoir flat-chain fast path needs it)
    has_general_lfilter: bool = False

    # -------------------------------------------------------------- #
    # construction / conversion
    # -------------------------------------------------------------- #

    def asarray(self, a, dtype=None):
        """Convert ``a`` (any array-like) to this backend's array type."""
        raise NotImplementedError

    def to_numpy(self, a):
        """Convert a backend array to ``numpy.ndarray`` (host transfer)."""
        raise NotImplementedError

    @property
    def transfers(self) -> TransferStats:
        """Seam-crossing counters (lazily created per backend instance).

        Device backends increment these from :meth:`asarray` /
        :meth:`to_numpy`; the NumPy reference leaves them at zero (there
        is no seam to cross), but instrumented test subclasses may count
        through the same property to pin hot-loop structure.
        """
        stats = self.__dict__.get("_transfer_stats")
        if stats is None:
            stats = TransferStats()
            self.__dict__["_transfer_stats"] = stats
        return stats

    def to_numpy_boundary(self, a):
        """Host conversion at a *declared* result boundary.

        Same conversion as :meth:`to_numpy`, but any seam crossing it
        performs is booked under ``transfers.boundary_to_host`` instead of
        ``transfers.to_host`` — so the serving layer can export final
        features/scores (and the per-sweep divergence flags, which are
        control flow) while the hot-loop residency assertion
        ``transfers.to_host == 0`` stays meaningful.
        """
        stats = self.transfers
        before = stats.to_host
        out = self.to_numpy(a)
        crossed = stats.to_host - before
        if crossed:
            stats.to_host = before
            stats.boundary_to_host += crossed
        return out

    def zeros(self, shape):
        raise NotImplementedError

    def empty(self, shape):
        raise NotImplementedError

    def atleast_2d(self, a):
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # structural ops
    # -------------------------------------------------------------- #

    def flip(self, a, axis: int):
        raise NotImplementedError

    def roll(self, a, shift: int, axis: int):
        raise NotImplementedError

    def concatenate(self, arrays: Sequence, axis: int = 0):
        raise NotImplementedError

    def stack(self, arrays: Sequence, axis: int = 0):
        raise NotImplementedError

    def take(self, a, indices, axis: int = 0):
        """Select rows/entries by integer index along ``axis``."""
        raise NotImplementedError

    def swapaxes(self, a, axis1: int, axis2: int):
        """Exchange two axes (a view where the library supports one)."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # math
    # -------------------------------------------------------------- #

    def einsum(self, subscripts: str, *operands):
        raise NotImplementedError

    def exp(self, a):
        raise NotImplementedError

    def log(self, a):
        raise NotImplementedError

    def abs(self, a):
        raise NotImplementedError

    def maximum_scalar(self, a, value: float):
        """Element-wise ``max(a, value)`` against a scalar floor."""
        raise NotImplementedError

    def isfinite(self, a):
        raise NotImplementedError

    def any(self, a, axis: Optional[int] = None):
        raise NotImplementedError

    def sum(self, a, axis: Optional[int] = None, keepdims: bool = False):
        raise NotImplementedError

    def mean(self, a, axis: Optional[int] = None):
        raise NotImplementedError

    def max(self, a, axis: Optional[int] = None, keepdims: bool = False):
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # DFR-specific ops
    # -------------------------------------------------------------- #

    def phi(self, nonlinearity, s):
        """Evaluate a reservoir shape function on a backend array."""
        raise NotImplementedError

    def dphi(self, nonlinearity, s):
        """Evaluate a shape-function derivative on a backend array."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # fused element-wise chains (defaults = the historical op order)
    # -------------------------------------------------------------- #

    def masked_drive(self, mask, u):
        """Masked input drive ``j = u @ M.T`` as a backend array.

        ``mask`` is an :class:`~repro.reservoir.masking.InputMask` and
        ``u`` a host NumPy batch ``(N, T, C)``.  The base implementation
        is the historical host matmul followed by one transfer; device
        backends may override to ship the (smaller) raw inputs and run the
        contraction on device instead.
        """
        return self.asarray(mask.apply(u))

    def streaming_masked_drive(self, mask, u):
        """Masked drive for the *streaming* sweep (chunk-invariant bits).

        Semantically identical to :meth:`masked_drive`; the NumPy reference
        overrides it to evaluate the mask GEMM one time step at a time so
        the result bits never depend on the chunk length a stream happens
        to arrive in (BLAS picks different kernels for different GEMM
        shapes).  That exactness is what lets a resumed
        ``ModularDFR.run_streaming`` chunk sequence reproduce the one-shot
        sweep bit for bit — the serving layer's correctness contract.
        Device backends keep the fast full-chunk contraction: off NumPy
        there is no bitwise contract, only the tolerance contract.
        """
        return self.masked_drive(mask, u)

    def fused_filter_prep(self, nonlinearity, j_k, x_prev, a_mul, b_mul):
        """One forward step's element-wise chain before the node filter.

        Computes, in the historical order, the pre-activation
        ``s = j(k) + x(k-1)``, the filter drive ``c = A * phi(s)`` and the
        feedback boundary ``zi = B * x(k-1)_{N_x}`` (trailing axis 1).
        ``a_mul``/``b_mul`` are scalars, or broadcast-shaped candidate
        arrays for a stacked sweep.  Returns ``(s, c, zi)``.
        """
        s = j_k + x_prev
        c = a_mul * self.phi(nonlinearity, s)
        zi = (b_mul * x_prev[..., -1])[..., None]
        return s, c, zi

    def fused_backward_drive(self, nonlinearity, drive, pre_next, g_next,
                             a_mul):
        """The Eq.-30 cross-step term fused onto an existing drive.

        Returns ``drive + A * dphi(s(k+1)) * g(k+1)`` — the element-wise
        tail of the backward step's drive assembly, in the historical
        order.
        """
        return drive + a_mul * self.dphi(nonlinearity, pre_next) * g_next

    def first_order_filter(self, x, coef: float, zi):
        """Solve ``y_n = x_n + coef * y_{n-1}`` along the last axis.

        ``zi`` is the SciPy ``lfilter`` initial condition with trailing axis
        1 (i.e. ``y_0 = x_0 + zi``); this recursion is the Eq.-13 node chain
        of the forward pass and the reversed Eq.-30 chain of the backward
        pass.  Returns ``y`` with the shape of ``x``.
        """
        raise NotImplementedError

    def first_order_filter_stacked(self, x, coefs, zi):
        """Per-candidate :meth:`first_order_filter` along a leading axis.

        ``x`` is ``(K, ..., n)`` and candidate ``k`` solves
        ``y_n = x_n + coefs[k] * y_{n-1}`` along the last axis with its own
        initial condition ``zi[k]`` (trailing axis 1).  ``coefs`` is host
        control data — a plain 1-D NumPy array of K filter coefficients,
        exactly like the scalar ``coef`` of :meth:`first_order_filter`.

        This is the candidate-axis analogue of the Eq.-13/Eq.-30 node
        chain: one call sweeps K ``(A, B)`` candidates.  The NumPy
        reference loops candidates over the identical SciPy ``lfilter``
        call, so each row is bit-identical to a scalar sweep of that
        candidate; Torch extends the cached Toeplitz-of-powers closed form
        to a ``(K, n, n)`` stack evaluated by one batched matmul.
        """
        raise NotImplementedError

    def lfilter_general(self, b, a, x, axis: int = -1):
        """Arbitrary-order IIR filter (SciPy ``lfilter`` semantics).

        Only required when :attr:`has_general_lfilter` is True; the
        identity-reservoir flat-chain fast path uses it, every other hot-
        path filter is first-order and goes through
        :meth:`first_order_filter`.
        """
        raise NotImplementedError

    def identity_chain(self, j, A, B, states) -> None:
        """Write an identity reservoir's trajectory into ``states``.

        On the flat index ``t = (k-1) N_x + n`` the identity trajectory is
        ONE linear recurrence, ``x_t = A j_t + B x_{t-1} + A x_{t-N_x}``:
        the order-``N_x`` filter ``A / (1 - B z^-1 - A z^-N_x)`` over each
        row's ``T N_x`` drive.  ``j`` is the ``(N, T, N_x)`` masked drive.
        Scalar ``A``/``B`` fill ``states[:, 1:, :]`` of an
        ``(N, T+1, N_x)`` trace; ``(K,)`` host vectors fill each
        candidate's slice of a ``(K, N, T+1, N_x)`` one.

        Only called when :attr:`has_general_lfilter` is True.  This version
        makes one :meth:`lfilter_general` call per candidate.
        """
        for a_val, b_val, out in _per_candidate(A, B, states):
            out[:, 1:, :] = self._lfilter_chain(j, a_val, b_val)

    def _lfilter_chain(self, j, a_val: float, b_val: float):
        """One candidate's flat chain; returns the ``(N, T, N_x)`` states."""
        n, t_len, nx = j.shape
        a_poly = np.zeros(nx + 1)
        a_poly[0] = 1.0
        a_poly[1] -= b_val
        a_poly[nx] -= a_val
        x_flat = self.lfilter_general([a_val], a_poly,
                                      j.reshape(n, t_len * nx), axis=-1)
        return x_flat.reshape(n, t_len, nx)

    # -------------------------------------------------------------- #
    # misc
    # -------------------------------------------------------------- #

    def synchronize(self) -> None:
        """Block until queued device work finishes (timing fairness)."""

    @contextmanager
    def errstate(self):
        """Suppress overflow/invalid warnings during a divergent sweep."""
        yield

    def __repr__(self) -> str:  # pragma: no cover - trivial
        dev = f", device={self.device!r}" if self.device else ""
        return f"{type(self).__name__}(name={self.name!r}{dev})"

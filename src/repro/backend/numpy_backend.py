"""The reference backend: NumPy + SciPy, bit-identical to the seed code.

Every method delegates to exactly the NumPy/SciPy call the pre-backend hot
path made (same functions, same argument order), so a pipeline routed
through :class:`NumpyBackend` reproduces the historical results *bit for
bit* — ``tests/test_backend.py`` pins this with hard-coded gradients, and
the seed-trajectory pins in ``tests/test_batched_training.py`` ride on it.

One method has a second kernel with the same bits: a wide
:meth:`NumpyBackend.identity_chain` runs every row as one NumPy recurrence
instead of one SciPy ``lfilter`` call per candidate (docs/ARCHITECTURE.md,
"The identity chain").
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np
from scipy.signal import lfilter

from repro.backend.base import ArrayBackend, _per_candidate

__all__ = ["NumpyBackend"]

#: the identity chain runs as one NumPy recurrence once a step's block of
#: states (rows x N_x values, rows = candidates x samples) is at least this
#: wide; narrower sweeps run SciPy's lfilter, whose cost per row grows as
#: N_x^2 but carries no per-position Python overhead.  Measured crossover
#: on a 2-core x86_64 Xeon: about 2000 at N_x = 30 to 3100 at N_x = 10
#: (docs/ARCHITECTURE.md, "The identity chain")
_RECURRENCE_MIN_WIDTH = 2400


class NumpyBackend(ArrayBackend):
    """CPU reference backend (NumPy arrays, SciPy filters).

    Parameters
    ----------
    dtype:
        Working float precision: ``"float64"`` (default — the bit-pinned
        reference; every operation below is then byte-for-byte the
        historical call) or ``"float32"`` (opt-in reduced precision,
        validated against the float64 reference by rtol-bounded parity
        tests).
    """

    name = "numpy"
    float64 = np.float64
    device = "cpu"
    has_general_lfilter = True

    def __init__(self, dtype: str = "float64"):
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        self.dtype_name = dtype
        self.float_dtype = np.float64 if dtype == "float64" else np.float32

    def asarray(self, a, dtype=None):
        out = np.asarray(a, dtype=dtype)
        # float32 mode narrows incoming double-precision data; the default
        # float64 mode never touches the array (bit-pinned reference path)
        if (dtype is None and self.float_dtype is not np.float64
                and out.dtype == np.float64):
            out = out.astype(self.float_dtype)
        return out

    def to_numpy(self, a):
        return np.asarray(a)

    def zeros(self, shape):
        return np.zeros(shape, dtype=self.float_dtype)

    def empty(self, shape):
        return np.empty(shape, dtype=self.float_dtype)

    def atleast_2d(self, a):
        return np.atleast_2d(a)

    def flip(self, a, axis: int):
        # the slice spelling the hot path historically used; a view, no copy
        index = [slice(None)] * a.ndim
        index[axis] = slice(None, None, -1)
        return a[tuple(index)]

    def roll(self, a, shift: int, axis: int):
        return np.roll(a, shift, axis=axis)

    def concatenate(self, arrays: Sequence, axis: int = 0):
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays: Sequence, axis: int = 0):
        return np.stack(arrays, axis=axis)

    def take(self, a, indices, axis: int = 0):
        return np.take(a, indices, axis=axis)

    def swapaxes(self, a, axis1: int, axis2: int):
        return np.swapaxes(a, axis1, axis2)

    def einsum(self, subscripts: str, *operands):
        return np.einsum(subscripts, *operands)

    def exp(self, a):
        return np.exp(a)

    def log(self, a):
        return np.log(a)

    def abs(self, a):
        return np.abs(a)

    def maximum_scalar(self, a, value: float):
        return np.maximum(a, value)

    def isfinite(self, a):
        return np.isfinite(a)

    def any(self, a, axis: Optional[int] = None):
        return np.any(a, axis=axis)

    def sum(self, a, axis: Optional[int] = None, keepdims: bool = False):
        return np.sum(a, axis=axis, keepdims=keepdims)

    def mean(self, a, axis: Optional[int] = None):
        return np.mean(a, axis=axis)

    def max(self, a, axis: Optional[int] = None, keepdims: bool = False):
        return np.max(a, axis=axis, keepdims=keepdims)

    def phi(self, nonlinearity, s):
        return nonlinearity.phi(s)

    def dphi(self, nonlinearity, s):
        return nonlinearity.dphi(s)

    def streaming_masked_drive(self, mask, u):
        # one GEMM per time step: the (N, 1, C) @ (C, N_x) kernel is the
        # same whatever chunk length the stream arrives in, so streaming
        # drives are bit-identical across any chunking of the same series
        # (BLAS picks shape-dependent kernels for a full-chunk GEMM, which
        # shifts last-ulp bits between chunk sizes)
        u = np.asarray(u, dtype=np.float64)
        n, t_len, _ = u.shape
        out = np.empty((n, t_len, mask.n_nodes))
        for k in range(t_len):
            out[:, k, :] = mask.apply(u[:, k:k + 1, :])[:, 0, :]
        return self.asarray(out)

    def first_order_filter(self, x, coef: float, zi):
        y, _ = lfilter([1.0], np.array([1.0, -coef]), x, axis=-1, zi=zi)
        if y.dtype != self.float_dtype:  # float32 mode: lfilter upcasts
            y = y.astype(self.float_dtype)
        return y

    def first_order_filter_stacked(self, x, coefs, zi):
        # candidate rows are swept by the very lfilter call the scalar path
        # makes, so row k is bit-identical to a scalar sweep with coefs[k]
        out = np.empty_like(x)
        for k, coef in enumerate(coefs):
            out[k], _ = lfilter([1.0], np.array([1.0, -coef]), x[k],
                                axis=-1, zi=zi[k])
        return out

    def lfilter_general(self, b, a, x, axis: int = -1):
        return lfilter(b, a, x, axis=axis)

    def identity_chain(self, j, A, B, states) -> None:
        """``lfilter`` per candidate, or one recurrence once wide enough."""
        n, _, nx = j.shape
        # (at N_x = 1 both taps share one coefficient, -(B + A), which the
        # recurrence does not round the same way)
        if (nx < 2 or np.size(A) * n * nx < _RECURRENCE_MIN_WIDTH
                or not _recurrence_is_exact()):
            super().identity_chain(j, A, B, states)
            return
        redo = _identity_recurrence(j, A, B, states)
        for (a_val, b_val, out), rows in zip(_per_candidate(A, B, states),
                                             redo.reshape(-1, n)):
            rows = np.flatnonzero(rows)
            if rows.size:
                out[rows, 1:, :] = self._lfilter_chain(j[rows], a_val, b_val)

    @contextmanager
    def errstate(self):
        with np.errstate(over="ignore", invalid="ignore"):
            yield


def _identity_recurrence(j, A, B, states) -> np.ndarray:
    """The identity flat chain of every row as one NumPy recurrence.

    Fills ``states[..., 1:, :]`` (``(N, T+1, N_x)``, or ``(K, N, T+1, N_x)``
    for vector ``A``/``B``) with

        x_t = (A x_{t-N_x} + B x_{t-1}) + A j_t,

    each product and sum rounded on its own, in exactly the order in which
    SciPy's direct-form-II-transposed ``lfilter`` loop evaluates the filter
    of :meth:`ArrayBackend.identity_chain` (its ``N_x - 2`` middle taps are
    zero, so they only carry ``A x_{t-N_x}`` down the delay line).  It
    steps one block of ``N_x`` positions at a time over all rows, so its
    working memory is ``O(N_x x rows)``; it computes in float64 and
    narrows on store, as ``lfilter`` does for a float32 drive.

    The zero taps still multiply: where a row leaves the finite range they
    turn ``inf`` into ``NaN``, and where a sum underflows to ``-0.0`` their
    ``x * 0`` terms may flip its sign.  A row whose recurrence holds
    neither a non-finite value nor a ``-0.0`` therefore matches ``lfilter``
    bit for bit; the returned ``(rows,)`` flags mark every other row, and
    the caller recomputes those with ``lfilter``.
    """
    n, t_len, nx = j.shape
    n_cand = np.size(A)
    rows = n_cand * n
    if np.ndim(A):
        a_rows, b_rows = np.repeat(A, n), np.repeat(B, n)
    else:
        a_rows, b_rows = np.float64(A), np.float64(B)
    a_drive = np.reshape(A, (1, n_cand, 1))
    blocks = (np.zeros((nx, rows)), np.empty((nx, rows)))
    block_rows = tuple(list(block) for block in blocks)
    feed = np.empty((nx, rows))              # A x(k-1), node-major
    drive = np.empty((nx, n_cand, n))        # A j(k), node-major
    feed_rows, drive_rows = list(feed), list(drive.reshape(nx, rows))
    flat = states.reshape(rows, t_len + 1, nx)
    mul, add = np.multiply, np.add
    for k in range(t_len):
        prev, cur = blocks[k % 2], blocks[(k + 1) % 2]
        mul(a_drive, j[:, k, :].T[:, np.newaxis, :], out=drive)
        mul(prev, a_rows, out=feed)
        last = prev[nx - 1]      # x(k)_0 is x(k-1)_{N_x}
        for x_n, fed, driven in zip(block_rows[(k + 1) % 2], feed_rows,
                                    drive_rows):
            mul(last, b_rows, out=x_n)
            add(x_n, fed, out=x_n)
            add(x_n, driven, out=x_n)
            last = x_n
        flat[:, k + 1, :] = cur.T
    flat = flat.reshape(rows, -1)
    # -0.0 is the one float whose bits read as the smallest signed integer
    bits = flat.view(f"i{flat.itemsize}")
    return (~np.isfinite(flat.sum(axis=1))
            | (bits.min(axis=1) == np.iinfo(bits.dtype).min))


def _exactness_probe():
    """A fixed drive and ``(A, B)`` on which fused multiply-adds change bytes."""
    return np.random.default_rng(0).standard_normal((4, 8, 3)), 0.3, 0.6


@functools.lru_cache(maxsize=None)
def _recurrence_is_exact() -> bool:
    """Whether the recurrence reproduces this SciPy's ``lfilter`` bytes.

    It does when SciPy's compiled loop rounds each product and each sum on
    its own; a build whose compiler contracted them into fused
    multiply-adds rounds differently, and then every sweep keeps
    ``lfilter``.  Checked once per process, on :func:`_exactness_probe`.
    """
    j, a_val, b_val = _exactness_probe()
    states = np.zeros((j.shape[0], j.shape[1] + 1, j.shape[2]))
    _identity_recurrence(j, a_val, b_val, states)
    ref = NumpyBackend()._lfilter_chain(j, a_val, b_val)
    return states[:, 1:, :].tobytes() == ref.tobytes()

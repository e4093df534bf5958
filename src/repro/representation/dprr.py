"""Dot-Product Reservoir Representation (DPRR, paper Sec. 2.2).

Classification needs one fixed-length feature vector per (variable-length)
series.  The DPRR builds it from lag-1 dot products of virtual-node
trajectories plus the plain time sums (paper Eqs. 10–11, 18–19):

.. math::

    r_{(i-1)N_x + j} = \\sum_{k=1}^{T} x(k)_i\\, x(k-1)_j, \\qquad
    r_{N_x^2 + i}    = \\sum_{k=1}^{T} x(k)_i,

giving :math:`N_r = N_x (N_x + 1)` features, i.e.
:math:`r = \\mathrm{vec}\\bigl(\\sum_k x(k)\\,[x(k-1), 1]^T\\bigr)`.

Normalization
-------------
The default (``normalize=None``) keeps the literal paper sums — the SGD
protocol of Sec. 4 (learning rate 1, 25 epochs) is tuned for exactly this
scale, and experiments with a ``1/T`` normalization destabilized training
on long-series datasets.  ``normalize="length"`` divides by ``T``; the
constant is carried through the analytic backward pass, so gradients are
exact either way.

Contraction
-----------
:meth:`DPRR.features` computes the lag-1 block as ``x_kᵀ @ x_prev``: one
``(N_x, T) @ (T, N_x)`` matrix product per sample (and per candidate, for
a stacked trace), routed through an :class:`~repro.backend.ArrayBackend`
— inferred from the source arrays by default, so a device-resident
reservoir trace stays on its device all the way to the feature matrix.
NumPy hands each slice to one BLAS GEMM, so a sample's features have the
same bits whatever the batch size, candidate count or chunking, given one
BLAS thread and the same OpenBLAS kernel (docs/ARCHITECTURE.md, "The DPRR
contraction").

:meth:`DPRR.reference_features` keeps the seed's ``einsum``, which NumPy
runs as its own unbuffered summation loop, many times slower than the
GEMM on a batch.  The paper's per-sample SGD (``batch_size=1``) runs on
it, and its trajectory is pinned bit for bit; the two agree to rounding.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backend import infer_backend, resolve_backend
from repro.reservoir.modular import ReservoirTrace, StreamingResult

__all__ = ["DPRR"]


class DPRR:
    """Dot-product reservoir representation extractor.

    Parameters
    ----------
    normalize:
        ``None`` (default) keeps the literal paper sums;
        ``"length"`` divides them by the series length ``T``.

    Examples
    --------
    >>> dprr = DPRR()
    >>> dprr.n_features(n_nodes=30)
    930
    """

    def __init__(self, normalize: Optional[str] = None):
        if normalize not in (None, "length"):
            raise ValueError(f"normalize must be None or 'length', got {normalize!r}")
        self.normalize = normalize

    @staticmethod
    def n_features(n_nodes: int) -> int:
        """Feature count ``N_r = N_x (N_x + 1)``."""
        return n_nodes * (n_nodes + 1)

    def scale(self, n_steps: int) -> float:
        """The constant multiplying the raw sums (1 or ``1/T``)."""
        return 1.0 / n_steps if self.normalize == "length" else 1.0

    def features(
        self, source: Union[ReservoirTrace, StreamingResult, np.ndarray],
        *, backend=None,
    ) -> np.ndarray:
        """Compute DPRR features ``(N, N_x (N_x + 1))``.

        Candidate-stacked sources (a vector-``(A, B)`` reservoir run, whose
        arrays carry a leading candidate axis) yield ``(K, N, N_x (N_x+1))``
        — K feature matrices from one fused contraction.

        Parameters
        ----------
        source:
            A :class:`ReservoirTrace` (or a raw ``(N, T+1, N_x)`` /
            ``(K, N, T+1, N_x)`` state array including the zero initial
            row), or a :class:`StreamingResult` whose online accumulators
            are reused directly.
        backend:
            :class:`~repro.backend.ArrayBackend` running the contraction;
            ``None`` infers it from the source arrays, so a device-resident
            trace yields device-resident features with no extra threading.
        """
        if isinstance(source, StreamingResult):
            if source.dprr_sums is None:
                raise ValueError(
                    "StreamingResult carries no DPRR accumulators (it was sliced "
                    "from a full trace); pass the trace instead"
                )
            p_acc, s_acc = source.dprr_sums
            xb = infer_backend(p_acc) if backend is None else resolve_backend(backend)
            return self._assemble(xb, p_acc, s_acc, source.n_steps)

        xb, states = self._states(source, backend)
        x_k = states[..., 1:, :]   # x(1) .. x(T)
        # one (N_x, T) @ (T, N_x) GEMM per sample slice; the leading axes
        # cover the samples and, for a stacked trace, the candidates
        p_mat = xb.swapaxes(x_k, -1, -2) @ states[..., :-1, :]
        return self._assemble(xb, p_mat, xb.sum(x_k, axis=-2), x_k.shape[-2])

    def reference_features(
        self, source: Union[ReservoirTrace, np.ndarray],
    ) -> np.ndarray:
        """DPRR features through the seed's ``einsum`` contraction.

        Same input and output as :meth:`features` for a trace, on the
        source's own backend.  This is the paper's per-sample SGD path
        (``BackpropTrainer`` at ``batch_size=1``): its trajectory is pinned
        bit for bit to this order of summation, so it does not share the
        GEMM of :meth:`features`, which agrees with it to rounding.
        """
        xb, states = self._states(source, None)
        x_k = states[..., 1:, :]
        p_mat = xb.einsum("...ti,...tj->...ij", x_k, states[..., :-1, :])
        return self._assemble(xb, p_mat, xb.sum(x_k, axis=-2), x_k.shape[-2])

    @staticmethod
    def _states(source, backend):
        """The ``(backend, states)`` pair of a trace or raw state array."""
        states = source.states if isinstance(source, ReservoirTrace) else source
        xb = infer_backend(states) if backend is None else resolve_backend(backend)
        states = xb.asarray(states)
        if states.ndim not in (3, 4):
            raise ValueError(
                f"states must be (N, T+1, N_x) including the initial row — or "
                f"(K, N, T+1, N_x) for a candidate-stacked trace — got "
                f"{states.shape}"
            )
        if states.shape[-2] < 2:
            raise ValueError("need at least one time step")
        return xb, states

    def _assemble(self, xb, p_mat, s_vec, n_steps: int):
        """Lay out ``[vec(P), s]`` (paper Eqs. 18–19) and apply the scale."""
        p_flat = p_mat.reshape(tuple(p_mat.shape[:-2]) + (-1,))
        raw = xb.concatenate([p_flat, s_vec], axis=-1)
        if self.normalize is None and raw.dtype == xb.float_dtype:
            return raw  # the literal sums need no scaling pass
        return raw * self.scale(n_steps)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DPRR(normalize={self.normalize!r})"

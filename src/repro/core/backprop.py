"""Backpropagation through the DFR stack (paper Sec. 3).

The loss gradient flows backwards through three layers:

1. **Output layer** (Sec. 3.1): closed-form softmax/cross-entropy gradients,
   delegated to :class:`repro.readout.softmax.SoftmaxReadout`.
2. **DPRR layer** (Sec. 3.2): every state ``x(k)_n`` feeds many DPRR entries;
   the summed contribution is the paper's "(bpv)" (Eq. 23).
3. **Reservoir layer** (Sec. 3.3): the recursive state update couples each
   state to its flat-chain successor (via ``B``) and to the same node one
   step later (via ``f'``); Eq. 30 resolves the recursion.

Truncation (Sec. 3.4) keeps only the last ``window`` time steps of this
backward pass.  The paper's equations (33–36) are the ``window = 1`` case;
``window = T`` reproduces full BPTT exactly (pinned by tests), so a single
implementation covers both and everything in between.

Efficient form of the backward chain
------------------------------------
Flattening node indices ``t = (k-1) N_x + n`` turns Eq. 30 into

.. math::

    g_t = \\mathrm{bpv}_t + B\\,g_{t+1} + A\\varphi'(s_{t+N_x})\\,g_{t+N_x},

so, within one time step ``k``, ``g(k)`` solves a *linear backward
recursion* in ``n`` with drive
``e(k)_n = bpv(k)_n + A phi'(s(k+1)_n) g(k+1)_n`` and boundary
``B * g(k+1)_1`` — one reversed :func:`scipy.signal.lfilter` call per step,
mirroring the forward pass.

Array backends
--------------
The batched pass (:func:`batch_reservoir_backward`,
:meth:`BackpropEngine.batch_gradients`) is pure dense array work — einsum
contractions, element-wise shape functions, and first-order filter chains —
so it routes every array op through an
:class:`~repro.backend.ArrayBackend`.  The engine resolves its backend from
its ``backend`` argument, falling back to the ``REPRO_BACKEND`` environment
variable (NumPy when unset); engine outputs always come back as NumPy
arrays, so optimizer updates and telemetry are backend-agnostic.  The
per-sample pass (:func:`reservoir_backward`, the paper's reference SGD
protocol) deliberately stays on NumPy — it is the bit-pinned baseline every
backend is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from repro.backend import default_backend, resolve_backend
from repro.readout.softmax import SoftmaxReadout
from repro.representation.dprr import DPRR
from repro.reservoir.nonlinearity import Identity, Nonlinearity, get_nonlinearity

__all__ = [
    "DFRGradients",
    "BatchGradients",
    "BackpropEngine",
    "reservoir_backward",
    "batch_reservoir_backward",
]


@dataclass
class DFRGradients:
    """Gradients of the per-sample loss w.r.t. every trained parameter."""

    loss: float
    probs: np.ndarray        # (N_y,) predicted probabilities
    d_A: float
    d_B: float
    d_weights: np.ndarray    # (N_y, N_r)
    d_bias: np.ndarray       # (N_y,)
    #: dL/dx(k)_n over the backward window, shape (window, N_x); exposed for
    #: tests and diagnostics
    state_grads: Optional[np.ndarray] = None


@dataclass
class BatchGradients:
    """Gradients of the per-sample losses over a whole minibatch.

    Parameter gradients that are scalars per sample (``d_A``, ``d_B``) stay
    per-row so the caller controls the reduction (and can drop diverged
    rows); the dense output-layer gradients are already averaged over the
    batch, since per-sample ``(N_y, N_r)`` matrices are rank-1 and never
    needed individually.

    A candidate-stacked pass (K ``(A, B)`` candidates trained in one fused
    call) prepends a ``K`` axis to every array: ``losses`` is ``(K, N)``,
    ``d_weights`` a ``(K, N_y, N_r)`` stack, and so on.
    """

    losses: np.ndarray       # (N,) per-sample cross-entropy
    probs: np.ndarray        # (N, N_y) predicted probabilities
    d_A: np.ndarray          # (N,) per-sample dL/dA
    d_B: np.ndarray          # (N,) per-sample dL/dB
    d_weights: np.ndarray    # (N_y, N_r) mean over the batch
    d_bias: np.ndarray       # (N_y,) mean over the batch
    #: dL/dx(k)_n over the backward window, shape (N, window, N_x)
    state_grads: Optional[np.ndarray] = None

    @property
    def stacked(self) -> bool:
        """Whether a leading candidate axis is present."""
        return self.losses.ndim == 2

    @property
    def n_samples(self) -> int:
        return self.losses.shape[-1] if self.stacked else self.losses.shape[0]


def reservoir_backward(
    window_states: np.ndarray,
    window_pre: np.ndarray,
    d_repr: np.ndarray,
    A: float,
    B: float,
    *,
    n_steps: int,
    nonlinearity: Nonlinearity,
) -> tuple:
    """Backward pass through DPRR + reservoir over a window of final steps.

    Parameters
    ----------
    window_states:
        ``(window + 1, N_x)`` states ``x(T-window) .. x(T)`` (for
        ``window = T`` this is the full trace including the zero initial
        state).
    window_pre:
        ``(window, N_x)`` pre-activations ``s(T-window+1) .. s(T)``.
    d_repr:
        ``(N_x (N_x+1),)`` gradient of the loss w.r.t. the *unnormalized*
        DPRR sums (any DPRR normalization constant must already be folded
        in by the caller).
    A, B:
        Reservoir parameters.
    n_steps:
        Total series length ``T`` (needed to detect whether the window
        touches the final step, where the Eq. 23 "next step" term vanishes).

    Returns
    -------
    (d_A, d_B, state_grads):
        Scalar parameter gradients (paper Eqs. 31–32 restricted to the
        window; Eqs. 35–36 for ``window = 1``) and the ``(window, N_x)``
        array of dL/dx(k)_n.
    """
    window_states = np.asarray(window_states, dtype=np.float64)
    window_pre = np.asarray(window_pre, dtype=np.float64)
    window, nx = window_pre.shape
    if window_states.shape != (window + 1, nx):
        raise ValueError(
            f"window_states must be (window+1, N_x) = {(window + 1, nx)}, "
            f"got {window_states.shape}"
        )
    if window > n_steps:
        raise ValueError(f"window {window} exceeds series length {n_steps}")
    d_repr = np.asarray(d_repr, dtype=np.float64).reshape(-1)
    if d_repr.shape[0] != nx * (nx + 1):
        raise ValueError(
            f"d_repr must have N_x(N_x+1) = {nx * (nx + 1)} entries, "
            f"got {d_repr.shape[0]}"
        )
    g_mat = d_repr[: nx * nx].reshape(nx, nx)
    g_sum = d_repr[nx * nx:]

    b_poly = np.array([1.0, -B])
    g_next = np.zeros(nx)        # g(k+1); zero beyond the final step
    d_a = 0.0
    d_b = 0.0
    state_grads = np.zeros((window, nx))
    dphi = nonlinearity.dphi
    phi = nonlinearity.phi

    # walk k = T, T-1, ..., T-window+1; idx indexes rows of the window arrays
    for idx in range(window - 1, -1, -1):
        k_is_last = idx == window - 1  # does this row correspond to k = T?
        x_prev = window_states[idx]        # x(k-1)
        x_here = window_states[idx + 1]    # x(k)
        # Eq. 23: contribution of x(k)_n through the DPRR entries
        bpv = g_mat @ x_prev + g_sum
        if not k_is_last:
            x_next = window_states[idx + 2]
            bpv = bpv + g_mat.T @ x_next
        # Eq. 30, cross-step term A * phi'(s(k+1)) * g(k+1)
        drive = bpv
        if not k_is_last:
            drive = drive + A * dphi(window_pre[idx + 1]) * g_next
        # Eq. 30, B-chain within the step, boundary B * g(k+1)_1
        zi = np.array([B * g_next[0]])
        rev, _ = lfilter([1.0], b_poly, drive[::-1], zi=zi)
        g_here = rev[::-1]
        state_grads[idx] = g_here
        # Eqs. 31-32 restricted to the window (Eqs. 35-36 when window == 1)
        d_a += float(phi(window_pre[idx]) @ g_here)
        x_left = np.concatenate(([x_prev[-1]], x_here[:-1]))
        d_b += float(x_left @ g_here)
        g_next = g_here
    return d_a, d_b, state_grads


def batch_reservoir_backward(
    window_states: np.ndarray,
    window_pre: np.ndarray,
    d_repr: np.ndarray,
    A,
    B,
    *,
    n_steps: int,
    nonlinearity: Nonlinearity,
    backend=None,
) -> tuple:
    """Vectorized :func:`reservoir_backward` over a minibatch.

    Identical mathematics, one batch axis in front of every array: the
    per-step backward recursion is a first-order IIR filter in ``n`` (the
    reversed Eq.-30 chain), so the backend's filter kernel evaluates it for
    all samples at once exactly like the forward pass in
    :mod:`repro.reservoir.modular` — the Python loop is only over the
    ``window`` time steps, not over samples.

    A *candidate* axis stacks in front of the batch axis the same way:
    4-D inputs ``(K, N, window+1, N_x)`` with length-``K`` parameter
    vectors run the backward for K ``(A, B)`` candidates in one fused
    pass (the per-candidate ``B``-chain goes through the backend's stacked
    first-order filter; every einsum simply carries the extra leading
    axis).

    Parameters
    ----------
    window_states:
        ``(N, window + 1, N_x)`` states ``x(T-window) .. x(T)`` per sample
        — or ``(K, N, window+1, N_x)`` per candidate and sample.
    window_pre:
        ``(N, window, N_x)`` (or ``(K, N, window, N_x)``) pre-activations
        ``s(T-window+1) .. s(T)``.
    d_repr:
        ``(N, N_x (N_x+1))`` (or ``(K, N, N_x (N_x+1))``) per-sample
        gradients w.r.t. the *unnormalized* DPRR sums.
    A, B:
        Reservoir parameters: scalars for one shared candidate point, or
        length-``K`` vectors matching a candidate-stacked input.
    n_steps:
        Total series length ``T``.
    backend:
        :class:`~repro.backend.ArrayBackend` executing the pass; ``None``
        is the NumPy reference (bit-identical to the historical
        implementation).  Inputs are converted in; outputs are returned as
        that backend's arrays (the engine converts back to NumPy).

    Returns
    -------
    (d_A, d_B, state_grads):
        ``(N,)`` parameter-gradient vectors and the ``(N, window, N_x)``
        array of dL/dx(k)_n — with a leading ``K`` axis on each for a
        candidate-stacked pass.
    """
    xb = resolve_backend(backend)
    window_states = xb.asarray(window_states, dtype=xb.float_dtype)
    window_pre = xb.asarray(window_pre, dtype=xb.float_dtype)
    if window_pre.ndim not in (3, 4):
        raise ValueError(
            f"window_pre must be (N, window, N_x) or (K, N, window, N_x), "
            f"got shape {window_pre.shape}"
        )
    stacked = window_pre.ndim == 4
    lead = tuple(window_pre.shape[:-2])
    window, nx = window_pre.shape[-2:]
    if tuple(window_states.shape) != lead + (window + 1, nx):
        raise ValueError(
            f"window_states must be {lead + (window + 1, nx)}, "
            f"got {tuple(window_states.shape)}"
        )
    if window > n_steps:
        raise ValueError(f"window {window} exceeds series length {n_steps}")
    d_repr = xb.asarray(d_repr, dtype=xb.float_dtype)
    if tuple(d_repr.shape) != lead + (nx * (nx + 1),):
        raise ValueError(
            f"d_repr must be {lead + (nx * (nx + 1),)}, "
            f"got {tuple(d_repr.shape)}"
        )
    if stacked:
        # scalars broadcast against the candidate axis, mirroring the
        # mixed scalar/vector (A, B) the forward pass accepts; (K,) vectors
        # skip broadcast_to, which is slow next to a minibatch step
        a_vec = np.asarray(A, dtype=np.float64)
        b_vec = np.asarray(B, dtype=np.float64)
        try:
            if a_vec.shape != (lead[0],):
                a_vec = np.broadcast_to(a_vec, (lead[0],))
            if b_vec.shape != (lead[0],):
                b_vec = np.broadcast_to(b_vec, (lead[0],))
        except ValueError:
            raise ValueError(
                f"candidate-stacked inputs need (K,) = ({lead[0]},) parameter "
                f"vectors (or scalars), got A {np.shape(A)} and B {np.shape(B)}"
            ) from None
        a_vec = np.ascontiguousarray(a_vec)
        b_vec = np.ascontiguousarray(b_vec)
        a_mul = xb.asarray(a_vec)[:, None, None]
        b_mul = xb.asarray(b_vec)[:, None, None]
    else:
        A = float(A)
        B = float(B)
        a_mul, b_mul = A, B
    g_mat = d_repr[..., : nx * nx].reshape(lead + (nx, nx))
    g_sum = d_repr[..., nx * nx:]

    g_next = xb.zeros(lead + (nx,))   # g(k+1); zero beyond the final step
    d_a = xb.zeros(lead)
    d_b = xb.zeros(lead)
    state_grads = xb.zeros(lead + (window, nx))

    for idx in range(window - 1, -1, -1):
        k_is_last = idx == window - 1
        x_prev = window_states[..., idx, :]
        x_here = window_states[..., idx + 1, :]
        # Eq. 23, batched: bpv(k) = G x(k-1) + g_sum (+ G^T x(k+1)); the
        # ellipsis carries the batch axis — plus, when stacked, the
        # candidate axis in front of it
        drive = xb.einsum("...ij,...j->...i", g_mat, x_prev) + g_sum
        if not k_is_last:
            x_next = window_states[..., idx + 2, :]
            drive = drive + xb.einsum("...ji,...j->...i", g_mat, x_next)
            # Eq. 30, cross-step term A * phi'(s(k+1)) * g(k+1)
            drive = xb.fused_backward_drive(
                nonlinearity, drive, window_pre[..., idx + 1, :], g_next,
                a_mul)
        # Eq. 30, B-chain within the step, boundary B * g(k+1)_1 per sample
        zi = b_mul * g_next[..., :1]
        if stacked:
            rev = xb.first_order_filter_stacked(xb.flip(drive, -1), b_vec, zi)
        else:
            rev = xb.first_order_filter(xb.flip(drive, -1), B, zi)
        g_here = xb.flip(rev, -1)
        state_grads[..., idx, :] = g_here
        # Eqs. 31-32 restricted to the window, one dot product per sample
        d_a += xb.einsum("...i,...i->...",
                         xb.phi(nonlinearity, window_pre[..., idx, :]), g_here)
        x_left = xb.concatenate([x_prev[..., -1:], x_here[..., :-1]], axis=-1)
        d_b += xb.einsum("...i,...i->...", x_left, g_here)
        g_next = g_here
    return d_a, d_b, state_grads


class BackpropEngine:
    """Gradient computation for the modular-DFR classifier.

    :meth:`sample_gradients` is the per-sample path (the paper's SGD
    protocol); :meth:`batch_gradients` vectorizes the identical mathematics
    over a minibatch sharing one ``(A, B)`` candidate.

    Parameters
    ----------
    nonlinearity:
        The reservoir shape function (must match the forward pass).
    dprr:
        The :class:`~repro.representation.dprr.DPRR` used to build features
        (its normalization constant is folded into the backward pass).
    window:
        Number of final time steps kept in the backward pass; ``1`` is the
        paper's truncated method, ``None`` means full BPTT.
    backend:
        :class:`~repro.backend.ArrayBackend` (or spec string) executing the
        *batched* path; ``None`` defers to the ``REPRO_BACKEND``
        environment variable (NumPy when unset).  The per-sample path is
        always NumPy — it is the pinned reference.
    dtype:
        Working precision for the batched path ("float64" default,
        "float32" opt-in); ignored when ``backend`` is already an
        :class:`~repro.backend.ArrayBackend` instance.  The per-sample
        path stays float64 regardless.
    """

    def __init__(
        self,
        nonlinearity=None,
        dprr: Optional[DPRR] = None,
        window: Optional[int] = 1,
        backend=None,
        dtype: Optional[str] = None,
    ):
        self.nonlinearity = (
            Identity() if nonlinearity is None else get_nonlinearity(nonlinearity)
        )
        self.dprr = dprr if dprr is not None else DPRR()
        if window is not None and window < 1:
            raise ValueError(f"window must be None or >= 1, got {window}")
        self.window = window
        self.backend = (
            default_backend(dtype=dtype) if backend is None
            else resolve_backend(backend, dtype=dtype)
        )

    def effective_window(self, n_steps: int) -> int:
        """The realized window for a series of length ``n_steps``."""
        if self.window is None:
            return n_steps
        return min(self.window, n_steps)

    def sample_gradients(
        self,
        window_states: np.ndarray,
        window_pre: np.ndarray,
        features: np.ndarray,
        readout: SoftmaxReadout,
        target_onehot: np.ndarray,
        A: float,
        B: float,
        *,
        n_steps: int,
        keep_state_grads: bool = False,
    ) -> DFRGradients:
        """Full gradient set for one sample.

        ``window_states``/``window_pre`` must cover
        :meth:`effective_window` steps (a
        :class:`~repro.reservoir.modular.StreamingResult` provides exactly
        this; a full trace sliced with
        :meth:`~repro.reservoir.modular.ReservoirTrace.final_window` works
        too).  ``features`` is the (normalized) DPRR vector of the sample.
        """
        out = readout.loss_and_grads(features, target_onehot)
        # undo the DPRR normalization so d_repr is w.r.t. the raw sums
        d_repr = out.d_features * self.dprr.scale(n_steps)
        d_a, d_b, state_grads = reservoir_backward(
            window_states,
            window_pre,
            d_repr,
            A,
            B,
            n_steps=n_steps,
            nonlinearity=self.nonlinearity,
        )
        return DFRGradients(
            loss=out.loss,
            probs=out.probs,
            d_A=d_a,
            d_B=d_b,
            d_weights=out.d_weights,
            d_bias=out.d_bias,
            state_grads=state_grads if keep_state_grads else None,
        )

    def batch_gradients(
        self,
        window_states: np.ndarray,
        window_pre: np.ndarray,
        features: np.ndarray,
        readout: SoftmaxReadout,
        targets_onehot: np.ndarray,
        A,
        B,
        *,
        n_steps: int,
        keep_state_grads: bool = False,
        weights=None,
        bias=None,
    ) -> BatchGradients:
        """Full gradient set for a minibatch sharing one ``(A, B)`` point.

        Array arguments carry a leading batch axis: ``window_states`` is
        ``(N, window+1, N_x)``, ``window_pre`` is ``(N, window, N_x)``,
        ``features`` is ``(N, N_r)`` and ``targets_onehot`` is ``(N, N_y)``.
        Output-layer gradients come back averaged over the batch; ``d_A``,
        ``d_B`` and ``losses`` stay per-row so callers can mask diverged
        samples before reducing.

        K ``(A, B)`` candidates train in one fused call by stacking a
        candidate axis in front of the batch axis — 4-D
        ``window_states``/``window_pre`` (as produced by a vector-``(A, B)``
        reservoir run), ``(K, N, N_r)`` features, length-``K`` parameter
        vectors, and per-candidate output layers passed as a
        ``(K, N_y, N_r)``/``(K, N_y)`` ``weights``/``bias`` stack (the
        ``readout`` argument then only fixes the layer geometry).  Every
        returned array gains the leading ``K`` axis.

        The whole pass runs on the engine's array backend (inputs are
        converted in, device-resident inputs are consumed as-is), and every
        returned array is NumPy — gradients are tiny next to activations,
        so the transfer cost is negligible and downstream optimizer code
        stays backend-agnostic.
        """
        xb = self.backend
        features = xb.asarray(features, dtype=xb.float_dtype)
        if features.ndim < 2:
            features = xb.atleast_2d(features)
        stacked = features.ndim == 3
        out = readout.batch_loss_and_grads(
            features, targets_onehot, backend=xb, weights=weights, bias=bias,
        )
        # undo the DPRR normalization so d_repr is w.r.t. the raw sums
        d_repr = out.d_features * self.dprr.scale(n_steps)
        d_a, d_b, state_grads = batch_reservoir_backward(
            window_states,
            window_pre,
            d_repr,
            A,
            B,
            n_steps=n_steps,
            nonlinearity=self.nonlinearity,
            backend=xb,
        )
        n = features.shape[-2]
        if stacked:
            # per-candidate reduction: (K, N_y, N) @ (K, N, N_r) — the same
            # BLAS reduction as the 2-D path, once per candidate
            d_weights = xb.swapaxes(out.deltas, -1, -2) @ features / n
        else:
            d_weights = out.deltas.T @ features / n
        return BatchGradients(
            losses=xb.to_numpy(out.losses),
            probs=xb.to_numpy(out.probs),
            d_A=xb.to_numpy(d_a),
            d_B=xb.to_numpy(d_b),
            d_weights=xb.to_numpy(d_weights),
            d_bias=xb.to_numpy(xb.mean(out.deltas, axis=-2)),
            state_grads=xb.to_numpy(state_grads) if keep_state_grads else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        win = "full" if self.window is None else self.window
        return (
            f"BackpropEngine(nonlinearity={self.nonlinearity!r}, "
            f"dprr={self.dprr!r}, window={win})"
        )

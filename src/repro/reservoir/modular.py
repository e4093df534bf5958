"""The modular DFR reservoir (paper Sec. 2.3, Eq. 13).

Model
-----
With mask drive :math:`j(k) = M u(k)` the reservoir state updates as

.. math::

    x(k)_n = A\\,\\varphi\\bigl(j(k)_n + x(k-1)_n\\bigr) + B\\,x(k)_{n-1},
    \\qquad n = 1, \\dots, N_x,

with :math:`x(0) = 0` and the node-chain boundary
:math:`x(k)_0 \\equiv x(k-1)_{N_x}`: the delay line is continuous in time, so
the "previous node" of node 1 at step ``k`` is the last node of step ``k-1``.
Equivalently, flattening ``t = (k-1) N_x + n`` gives one chain

.. math:: x_t = A\\,\\varphi(j_t + x_{t-N_x}) + B\\,x_{t-1}.

Fast evaluation
---------------
The argument of :math:`\\varphi` only involves states of step ``k-1``, so for
a *fixed* step ``k`` the recursion over ``n`` is linear in the unknowns — a
first-order IIR filter with coefficient ``B`` driven by
``c = A * phi(j(k) + x(k-1))``.  :func:`scipy.signal.lfilter` evaluates that
chain in C for the whole batch at once, so the Python-level loop is only over
the ``T`` time steps, for *any* nonlinearity.

Two execution modes are provided:

* :meth:`ModularDFR.run` stores the full state trace ``(N, T+1, N_x)`` —
  needed for full backpropagation-through-time and convenient for analysis;
* :meth:`ModularDFR.run_streaming` accumulates the DPRR representation online
  and retains only the last ``window + 1`` states, exactly the storage regime
  of the paper's truncated backpropagation (Sec. 3.4).

Candidate axis
--------------
``A``/``B`` may also be length-``K`` vectors: one call then sweeps K
``(A, B)`` candidates over the same input batch in a single fused array
program, and every trace array gains a leading candidate axis
(``(K, N, T+1, N_x)`` states, ``(K, N)`` divergence flags).  The masked
drive is computed once for all candidates, and each candidate's node chain
runs through the backend's stacked first-order filter — on NumPy each row
is bit-identical to a scalar sweep of that candidate (pinned by tests), on
Torch/CuPy the whole stack is one batched matmul.

Array backends
--------------
Both sweeps are pure dense array programs, so they route every array op
through an :class:`~repro.backend.ArrayBackend` (constructor argument or a
per-call ``backend=`` override).  The default is the NumPy reference —
bit-identical to the historical implementation; the environment variable
``REPRO_BACKEND`` is deliberately *not* consulted here so that directly
constructed reservoirs keep the paper-pinned numerics (pipeline entry
points thread their backend in explicitly).  Backends without an
arbitrary-order ``lfilter`` (Torch) skip the identity flat-chain fast path
and compute the same trajectory through the per-step first-order chain.

The identity fast path is one backend call,
:meth:`~repro.backend.ArrayBackend.identity_chain`; on NumPy it has two
kernels with the same bits (docs/ARCHITECTURE.md, "The identity chain").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.reservoir.masking import InputMask
from repro.reservoir.nonlinearity import Identity, Nonlinearity, get_nonlinearity
from repro.utils.validation import as_batch

__all__ = ["ModularDFR", "ReservoirTrace", "StreamingResult"]

#: states with magnitude above this are treated as numerically diverged
_DIVERGENCE_LIMIT = 1e100


@dataclass
class ReservoirTrace:
    """Full forward trace of a modular DFR run.

    Attributes
    ----------
    states:
        ``(N, T+1, N_x)`` array; ``states[:, 0]`` is the zero initial state
        and ``states[:, k]`` is :math:`x(k)` for ``k = 1..T``.  Candidate-
        stacked runs (vector ``A``/``B``) prepend a candidate axis:
        ``(K, N, T+1, N_x)``.
    pre_activations:
        ``(N, T, N_x)`` (or ``(K, N, T, N_x)``) array of
        :math:`s(k) = j(k) + x(k-1)`, the argument of the nonlinearity at
        each step (needed by backpropagation).
    diverged:
        ``(N,)`` (or ``(K, N)``) boolean array flagging samples whose state
        left the finite range (possible for unbounded nonlinearities at
        large ``A, B``).

    ``states``/``pre_activations`` are arrays of whichever
    :class:`~repro.backend.ArrayBackend` ran the sweep (NumPy by default);
    ``diverged`` is always a NumPy array — it is control flow, not data.
    """

    states: np.ndarray
    pre_activations: np.ndarray
    diverged: np.ndarray

    @property
    def stacked(self) -> bool:
        """Whether a leading candidate axis is present (vector ``A``/``B``)."""
        return self.states.ndim == 4

    @property
    def n_candidates(self) -> Optional[int]:
        """Candidate-axis length ``K``; ``None`` for a scalar-(A, B) trace."""
        return self.states.shape[0] if self.stacked else None

    @property
    def n_samples(self) -> int:
        return self.states.shape[-3]

    @property
    def n_steps(self) -> int:
        """Series length ``T``."""
        return self.states.shape[-2] - 1

    @property
    def n_nodes(self) -> int:
        return self.states.shape[-1]

    def final_window(self, window: int, *, copy: bool = True) -> "StreamingResult":
        """Slice the last ``window`` steps into a :class:`StreamingResult`.

        Useful to run truncated backpropagation from a full trace; the result
        is identical to what :meth:`ModularDFR.run_streaming` produces with
        the same window (tests pin this equivalence).

        With ``copy=False`` the result holds read-only *views* into this
        trace instead of fresh arrays — the trainer's hot loop takes this
        path, since it slices every sample every epoch and never mutates the
        window.
        """
        window = _check_window(window, self.n_steps)
        window_states = self.states[..., -(window + 1):, :]
        window_pre = self.pre_activations[..., -window:, :]
        diverged = self.diverged
        if copy:
            window_states = _copy_array(window_states)
            window_pre = _copy_array(window_pre)
            diverged = diverged.copy()
        elif isinstance(window_states, np.ndarray):
            # NumPy views can be locked; device tensors have no such flag
            window_states.setflags(write=False)
            window_pre.setflags(write=False)
        return StreamingResult(
            window_states=window_states,
            window_pre_activations=window_pre,
            dprr_sums=None,
            diverged=diverged,
            n_steps=self.n_steps,
        )


@dataclass
class StreamingResult:
    """Memory-bounded forward result (paper's truncated-backprop regime).

    Attributes
    ----------
    window_states:
        ``(N, window+1, N_x)`` — states ``x(T-window) .. x(T)``.  Candidate-
        stacked runs prepend a candidate axis (``(K, N, window+1, N_x)``).
    window_pre_activations:
        ``(N, window, N_x)`` (or ``(K, N, window, N_x)``) —
        ``s(T-window+1) .. s(T)``.
    dprr_sums:
        Optional pair ``(P, s)`` with ``P`` of shape ``(N, N_x, N_x)`` holding
        :math:`\\sum_k x(k) x(k-1)^T` and ``s`` of shape ``(N, N_x)`` holding
        :math:`\\sum_k x(k)` — the *unnormalized* DPRR accumulators
        (paper Eqs. 10–11); candidate-stacked runs prepend the candidate
        axis to both.  ``None`` when the result was sliced from a full
        trace rather than streamed.
    diverged:
        ``(N,)`` (or ``(K, N)``) boolean divergence flags.
    n_steps:
        Total series length ``T`` that was consumed.
    """

    window_states: np.ndarray
    window_pre_activations: np.ndarray
    dprr_sums: Optional[tuple]
    diverged: np.ndarray
    n_steps: int

    @property
    def stacked(self) -> bool:
        """Whether a leading candidate axis is present (vector ``A``/``B``)."""
        return self.window_states.ndim == 4

    @property
    def window(self) -> int:
        return self.window_pre_activations.shape[-2]


def _copy_array(a):
    """Same-device deep copy: NumPy/CuPy spell it ``copy()``, Torch ``clone()``."""
    if hasattr(a, "copy"):
        return a.copy()
    return a.clone()


def _check_window(window: int, n_steps: int) -> int:
    window = int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return min(window, n_steps)


class ModularDFR:
    """Modular delayed-feedback reservoir (paper Eq. 13).

    Parameters
    ----------
    mask:
        The fixed :class:`~repro.reservoir.masking.InputMask`; its row count
        defines the number of virtual nodes ``N_x``.
    nonlinearity:
        Shape function :math:`\\varphi` (name or instance); the paper's
        evaluation uses the identity.
    backend:
        :class:`~repro.backend.ArrayBackend` (or spec string) executing the
        sweeps; ``None`` is the NumPy reference.  Overridable per call via
        ``run(..., backend=...)``.

    Examples
    --------
    >>> mask = InputMask.binary(n_nodes=30, n_channels=3, seed=0)
    >>> dfr = ModularDFR(mask)
    >>> trace = dfr.run(np.random.default_rng(0).normal(size=(8, 50, 3)),
    ...                 A=0.1, B=0.05)
    >>> trace.states.shape
    (8, 51, 30)
    """

    def __init__(self, mask: InputMask, nonlinearity=None, *, backend=None):
        if not isinstance(mask, InputMask):
            mask = InputMask(mask)
        self.mask = mask
        self.nonlinearity: Nonlinearity = (
            Identity() if nonlinearity is None else get_nonlinearity(nonlinearity)
        )
        self.backend: ArrayBackend = resolve_backend(backend)

    @property
    def n_nodes(self) -> int:
        """Number of virtual nodes ``N_x``."""
        return self.mask.n_nodes

    @property
    def n_channels(self) -> int:
        """Number of input channels ``C``."""
        return self.mask.n_channels

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #

    def run(self, u: np.ndarray, A, B, *, backend=None) -> ReservoirTrace:
        """Run the reservoir over a batch, keeping the full state trace.

        Parameters
        ----------
        u:
            Input batch ``(N, T, C)`` (a single ``(T, C)`` sample is also
            accepted).
        A, B:
            The two reservoir parameters of the modular DFR.  Scalars run
            one candidate; length-``K`` vectors sweep K candidates over the
            same batch in one fused program, prepending a candidate axis to
            every trace array.
        backend:
            Per-call override of the reservoir's array backend; the trace
            arrays come back device-resident on that backend.

        Returns
        -------
        ReservoirTrace
        """
        u = as_batch(u)
        A, B, n_cand = _check_params(A, B)
        xb = self.backend if backend is None else resolve_backend(backend)
        j = xb.masked_drive(self.mask, u)  # (N, T, N_x)
        n, t_len, nx = j.shape
        nonlinearity = self.nonlinearity
        stacked = n_cand is not None
        lead = (n_cand, n) if stacked else (n,)

        states = xb.zeros(lead + (t_len + 1, nx))
        pre = xb.empty(lead + (t_len, nx))
        with xb.errstate():
            if isinstance(nonlinearity, Identity) and xb.has_general_lfilter:
                # Identity fast path: on the flat chain t = (k-1) N_x + n the
                # whole trajectory solves ONE linear recurrence
                #   x_t = A j_t + B x_{t-1} + A x_{t-N_x},
                # i.e. a single IIR filter over T*N_x samples per series.
                # The masked drive above is shared by every candidate.
                xb.identity_chain(j, A, B, states)
                # in place: a stacked sweep's j + x sum would be one more
                # trace-sized temporary (same bits: one add per element)
                pre[:] = j
                pre += states[..., :-1, :]
            else:
                a_mul = xb.asarray(A)[:, None, None] if stacked else A
                b_mul = xb.asarray(B)[:, None] if stacked else B
                for k in range(t_len):
                    s, c, zi = xb.fused_filter_prep(
                        nonlinearity, j[:, k, :], states[..., k, :],
                        a_mul, b_mul)
                    pre[..., k, :] = s
                    if stacked:
                        states[..., k + 1, :] = xb.first_order_filter_stacked(
                            c, B, zi)
                    else:
                        states[..., k + 1, :] = xb.first_order_filter(c, B, zi)
        diverged = _divergence_flags(states.reshape(-1, (t_len + 1) * nx), xb)
        return ReservoirTrace(states=states, pre_activations=pre,
                              diverged=diverged.reshape(lead))

    def run_streaming(
        self, u: np.ndarray, A, B, *, window: int = 1,
        backend=None, resume: Optional[StreamingResult] = None,
    ) -> StreamingResult:
        """Run the reservoir keeping only the last ``window + 1`` states.

        The DPRR accumulators (paper Eqs. 10–11, unnormalized) are updated
        online each step, so the peak reservoir-state storage is
        ``(window + 1) * N_x`` values per sample — the storage regime counted
        by :mod:`repro.memory.accounting` and reported in the paper's
        Table 2.  Vector-valued ``A``/``B`` sweep K candidates at once,
        prepending a candidate axis to every result array (peak storage
        scales with K accordingly).

        ``resume`` continues a previous streaming run: pass the
        :class:`StreamingResult` of the preceding chunk (same ``A``/``B``,
        same batch/candidate layout, same ``window``) and this call picks
        up the state ring, pre-activation ring and DPRR accumulators where
        that chunk left them.  Feeding a series chunk by chunk this way is
        bit-identical to one :meth:`run_streaming` call over the
        concatenated series (pinned by tests) — the seam the serving layer
        (:mod:`repro.serve`) builds its per-stream sessions on.  The
        carried arrays are copied, never mutated, so a caller may retain
        the old result.  When resuming, every chunk must be at least
        ``window`` steps long so all chunks agree on the ring width.

        Returns
        -------
        StreamingResult
        """
        u = as_batch(u)
        A, B, n_cand = _check_params(A, B)
        xb = self.backend if backend is None else resolve_backend(backend)
        j = xb.streaming_masked_drive(self.mask, u)
        n, t_len, nx = j.shape
        nonlinearity = self.nonlinearity
        stacked = n_cand is not None
        lead = (n_cand, n) if stacked else (n,)
        a_mul = xb.asarray(A)[:, None, None] if stacked else A
        b_mul = xb.asarray(B)[:, None] if stacked else B

        if resume is None:
            window = _check_window(window, t_len)
            # ring buffer of the last (window + 1) states, logically ordered
            ring = xb.zeros(lead + (window + 1, nx))
            pre_ring = xb.zeros(lead + (window, nx))
            p_acc = xb.zeros(lead + (nx, nx))
            s_acc = xb.zeros(lead + (nx,))
            n_prev = 0
            carried_diverged = None
        else:
            (window, ring, pre_ring, p_acc, s_acc, n_prev,
             carried_diverged) = _resume_state(xb, resume, window, lead,
                                               t_len, nx)
        with xb.errstate():
            for k in range(t_len):
                x_prev = ring[..., -1, :]
                s, c, zi = xb.fused_filter_prep(
                    nonlinearity, j[:, k, :], x_prev, a_mul, b_mul)
                if stacked:
                    x_new = xb.first_order_filter_stacked(c, B, zi)
                else:
                    x_new = xb.first_order_filter(c, B, zi)
                # DPRR accumulation: P += x(k) x(k-1)^T, s += x(k)
                p_acc += x_new[..., :, np.newaxis] * x_prev[..., np.newaxis, :]
                s_acc += x_new
                ring = xb.roll(ring, -1, axis=-2)
                ring[..., -1, :] = x_new
                pre_ring = xb.roll(pre_ring, -1, axis=-2)
                pre_ring[..., -1, :] = s
        diverged = (
            _divergence_flags(ring.reshape(-1, (window + 1) * nx), xb)
            | _divergence_flags(p_acc.reshape(-1, nx * nx), xb)
        ).reshape(lead)
        if carried_diverged is not None:
            diverged = diverged | carried_diverged
        return StreamingResult(
            window_states=ring,
            window_pre_activations=pre_ring,
            dprr_sums=(p_acc, s_acc),
            diverged=diverged,
            n_steps=n_prev + t_len,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ModularDFR(n_nodes={self.n_nodes}, n_channels={self.n_channels}, "
            f"nonlinearity={self.nonlinearity!r})"
        )


def _check_params(A, B) -> tuple:
    """Normalize ``(A, B)`` to scalars or aligned ``(K,)`` vectors.

    Returns ``(A, B, n_candidates)`` where ``n_candidates`` is ``None`` for
    the scalar (single-candidate) case and the common length ``K`` when
    either parameter is a vector (a scalar partner is broadcast to K).
    """
    if np.ndim(A) == 0 and np.ndim(B) == 0:
        A = float(A)
        B = float(B)
        if not np.isfinite(A) or not np.isfinite(B):
            raise ValueError(f"A and B must be finite, got A={A!r}, B={B!r}")
        return A, B, None
    A = np.atleast_1d(np.asarray(A, dtype=np.float64))
    B = np.atleast_1d(np.asarray(B, dtype=np.float64))
    if A.ndim != 1 or B.ndim != 1:
        raise ValueError(
            f"vector A and B must be 1-D candidate lists, got shapes "
            f"{A.shape} and {B.shape}"
        )
    try:
        if A.shape != B.shape:  # broadcast_arrays is slow; skip a no-op
            A, B = np.broadcast_arrays(A, B)
    except ValueError:
        raise ValueError(
            f"A and B candidate vectors must have matching lengths, got "
            f"{A.shape[0]} and {B.shape[0]}"
        ) from None
    A = np.ascontiguousarray(A)
    B = np.ascontiguousarray(B)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("all A and B candidates must be finite")
    return A, B, A.shape[0]


def _resume_state(xb, resume: StreamingResult, window: int, lead: tuple,
                  t_len: int, nx: int):
    """Unpack a carried :class:`StreamingResult` into fresh working state.

    Every carried array is copied onto the executing backend, so the caller
    may keep (or re-use) the old result; accumulator updates never alias it.
    """
    if not isinstance(resume, StreamingResult):
        raise TypeError(
            f"resume must be a StreamingResult from a previous "
            f"run_streaming call, got {type(resume).__name__}"
        )
    if resume.dprr_sums is None:
        raise ValueError(
            "resume result carries no DPRR accumulators (it was sliced from "
            "a full trace); resume only from a run_streaming result"
        )
    window = _check_window(window, t_len + resume.n_steps)
    if resume.window != window:
        raise ValueError(
            f"resume window mismatch: the carried state has window "
            f"{resume.window} but this chunk resolves to {window}; keep "
            f"window <= every chunk length so all chunks agree"
        )
    ring = _copy_array(xb.asarray(resume.window_states))
    expected = tuple(lead) + (window + 1, nx)
    if tuple(ring.shape) != expected:
        raise ValueError(
            f"carried window_states have shape "
            f"{tuple(resume.window_states.shape)}, expected {expected} — a "
            f"resumed chunk must keep the batch/candidate layout of the "
            f"carried stream"
        )
    pre_ring = _copy_array(xb.asarray(resume.window_pre_activations))
    p_acc = _copy_array(xb.asarray(resume.dprr_sums[0]))
    s_acc = _copy_array(xb.asarray(resume.dprr_sums[1]))
    carried_diverged = np.asarray(resume.diverged, dtype=bool)
    return (window, ring, pre_ring, p_acc, s_acc, resume.n_steps,
            carried_diverged)


def _divergence_flags(flat_per_sample, backend=None) -> np.ndarray:
    """Per-sample flag: any non-finite or astronomically large value.

    Always returns a NumPy boolean array, whatever backend produced the
    states — divergence flags are control flow, not hot-path data.
    """
    xb = resolve_backend(backend)
    # over="ignore": the limit itself overflows to inf when cast to a
    # float32 array's dtype, which still compares correctly (non-finite
    # values are caught by the isfinite term)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = ~xb.isfinite(flat_per_sample) | (
            xb.abs(flat_per_sample) > _DIVERGENCE_LIMIT
        )
    # boundary conversion: divergence flags are control flow by contract,
    # so this crossing is booked as boundary_to_host — the serving layer's
    # residency assertion (zero plain to_host per tick) stays clean
    return xb.to_numpy_boundary(xb.any(bad, axis=1)).astype(bool, copy=False)

"""Classic reservoir-computing regression benchmarks.

The DFR literature the paper builds on (Appeltant et al. 2011, Soriano et
al. 2014) validates reservoirs on one-step-ahead regression tasks before
classification.  Two standards are provided:

* :func:`narma10` — the tenth-order nonlinear autoregressive moving-average
  system, the de-facto memory-plus-nonlinearity stress test;
* :func:`mackey_glass_series` — the chaotic Mackey–Glass time series
  (``tau > 16.8``), the classic chaotic-prediction benchmark (and the same
  equation the DFR's nonlinear element is modeled after).

Both return float64 arrays; see ``examples/narma_prediction.py`` for the
standard evaluation loop.  Each family's recursion runs once, as a stream
of chunks (:func:`narma_chunks`, :func:`mackey_glass_chunks`) that carries
O(state) memory; the eager functions concatenate that stream, and the
registered ``narma`` / ``mackey_glass`` generators
(:mod:`repro.data.generators`) serve it as is.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.registry import concat_chunks
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["narma", "narma10", "mackey_glass_series"]


class _ChunkBuffer:
    """Re-chunk aligned per-key array pushes into exact ``chunk_len`` pieces."""

    def __init__(self, keys, chunk_len: int):
        self._parts: Dict[str, List[np.ndarray]] = {k: [] for k in keys}
        self._count = 0
        self._chunk_len = int(chunk_len)

    def push(self, arrays: Dict[str, np.ndarray]) -> None:
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) > 1:
            raise ValueError(f"misaligned chunk push: lengths {lengths}")
        for key, arr in arrays.items():
            self._parts[key].append(arr)
        self._count += next(iter(lengths)) if lengths else 0

    def drain(self, final: bool = False) -> Iterator[Dict[str, np.ndarray]]:
        while (self._count >= self._chunk_len
               or (final and self._count > 0)):
            merged = {k: np.concatenate(v, axis=0)
                      for k, v in self._parts.items()}
            take = min(self._chunk_len, self._count)
            yield {k: arr[:take] for k, arr in merged.items()}
            self._parts = {k: [arr[take:]] for k, arr in merged.items()}
            self._count -= take


def narma(
    n_steps: int, *, order: int = 10, seed: SeedLike = None,
    washout: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate an order-``N`` NARMA input/target pair.

    .. math::

        y_{t+1} = 0.3 y_t + 0.05 y_t \\sum_{i=0}^{N-1} y_{t-i}
                  + 1.5 u_{t-N+1} u_t + 0.1,

    with ``u_t ~ U[0, 0.5]``.  ``order=10`` is the classic NARMA-10 (see
    :func:`narma10`); larger orders lengthen the memory the reservoir must
    hold.  The update saturates so that ``y`` stays in ``[0, 1]``: through
    ``tanh`` above order 10 and a cap at 1 up to it (see
    :func:`narma_step`).  The first ``washout`` steps (transient from the
    zero initial condition; default ``max(50, 5 * order)``) are discarded
    from both arrays.

    Returns
    -------
    (u, y):
        Input and target, each of shape ``(n_steps,)``.
    """
    arrays = concat_chunks(narma_chunks(n_steps, n_steps, order=order,
                                        seed=seed, washout=washout))
    return arrays["u"], arrays["y"]


def narma_chunks(
    n_steps: int, chunk_len: int, *, order: int = 10, seed: SeedLike = None,
    washout: Optional[int] = None,
) -> Iterator[Dict[str, np.ndarray]]:
    """Stream :func:`narma` as ``{"u", "y"}`` chunks of ``chunk_len`` steps.

    Carries the last ``order`` inputs and outputs across chunks; the
    concatenated chunks are :func:`narma`'s arrays for any ``chunk_len``.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if washout is None:
        washout = max(50, 5 * order)
    if washout < order:
        raise ValueError(
            f"washout must cover the order of the system (>= {order})"
        )
    rng = ensure_rng(seed)
    total = n_steps + washout
    # carried state: the last `order` inputs/outputs (chronological)
    u_tail = np.zeros(0)
    y_tail = np.zeros(0)
    produced = 0
    buf = _ChunkBuffer(("u", "y"), chunk_len)
    while produced < total:
        m = min(max(chunk_len, order), total - produced)
        u_ext = np.concatenate([u_tail, rng.uniform(0.0, 0.5, size=m)])
        y_ext = np.concatenate([y_tail, np.zeros(m)])
        tail_len = len(u_tail)
        for j in range(m):
            g = produced + j  # global stream index of this sample
            if g >= order:
                k = tail_len + j
                y_ext[k] = narma_step(y_ext, u_ext, k - 1, order)
        lo = max(washout - produced, 0)
        if lo < m:
            buf.push({"u": u_ext[tail_len + lo: tail_len + m],
                      "y": y_ext[tail_len + lo: tail_len + m]})
        produced += m
        u_tail = u_ext[-order:]
        y_tail = y_ext[-order:]
        yield from buf.drain()
    yield from buf.drain(final=True)


def narma_step(y: np.ndarray, u: np.ndarray, t: int, order: int) -> float:
    """``y[t + 1]`` of the order-``order`` NARMA recursion (see :func:`narma`).

    The textbook update can diverge.  Above order 10, |y| reaches ~1e308
    within a few hundred steps at orders 15 to 30; there the update is
    wrapped in ``tanh``, as is usual for NARMA-20.  At order 10 and below
    a rare input stream runs away too: at ``n_steps=200``, NARMA-10 seeds
    262, 513, 1150 and 6853 overflow and seed 2442 reaches ~7e63.  There
    the update saturates at 1 (``min(update, 1.0)``), which leaves every
    step whose update stays at or below 1 bit for bit unchanged.  Either
    way ``y`` stays in ``[0, 1]``.
    """
    update = (
        0.3 * y[t] + 0.05 * y[t] * y[t - order + 1: t + 1].sum()
        + 1.5 * u[t - order + 1] * u[t] + 0.1
    )
    return np.tanh(update) if order > 10 else min(update, 1.0)


def narma10(
    n_steps: int, *, seed: SeedLike = None, washout: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a NARMA-10 input/target pair (``narma(order=10)``).

    Kept as the named classic.  Bit-identical to the historical
    implementation (pinned in ``tests/test_regression_data.py``) except
    where the order-10 update passes 1, which is now capped (see
    :func:`narma_step`).
    """
    return narma(n_steps, order=10, seed=seed, washout=washout)


def mackey_glass_series(
    n_steps: int,
    *,
    tau: float = 17.0,
    beta: float = 0.2,
    gamma: float = 0.1,
    p: float = 10.0,
    dt: float = 1.0,
    substeps: int = 10,
    seed: SeedLike = None,
    washout: int = 500,
) -> np.ndarray:
    """Integrate the Mackey–Glass delay differential equation.

    .. math::

        \\dot{x}(t) = \\beta \\frac{x(t-\\tau)}{1 + x(t-\\tau)^p}
                      - \\gamma x(t)

    Integrated with RK4-free fixed-step Euler at ``dt / substeps``
    resolution (standard for this benchmark), sampled every ``dt``, with a
    randomized initial history around the fixed point.  ``tau = 17`` gives
    the mildly chaotic regime used throughout the RC literature.

    Returns
    -------
    ndarray of shape ``(n_steps,)``.
    """
    return concat_chunks(mackey_glass_chunks(
        n_steps, n_steps, tau=tau, beta=beta, gamma=gamma, p=p, dt=dt,
        substeps=substeps, seed=seed, washout=washout,
    ))["x"]


def mackey_glass_chunks(
    n_steps: int,
    chunk_len: int,
    *,
    tau: float = 17.0,
    beta: float = 0.2,
    gamma: float = 0.1,
    p: float = 10.0,
    dt: float = 1.0,
    substeps: int = 10,
    seed: SeedLike = None,
    washout: int = 500,
) -> Iterator[Dict[str, np.ndarray]]:
    """Stream :func:`mackey_glass_series` as ``{"x"}`` chunks.

    Carries the last ``tau / (dt / substeps)`` sub-step values across
    chunks; the concatenated chunks are :func:`mackey_glass_series`'s
    array for any ``chunk_len``.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if tau <= 0 or dt <= 0 or substeps < 1:
        raise ValueError("tau, dt must be positive and substeps >= 1")
    rng = ensure_rng(seed)
    h = dt / substeps
    delay = max(1, int(round(tau / h)))
    # carried state: the last `delay` sub-step values of the stream,
    # starting from a randomized history around the fixed point
    carry = 1.2 + 0.1 * rng.standard_normal(delay)
    total_substeps = (n_steps + washout) * substeps
    done = 0
    buf = _ChunkBuffer(("x",), chunk_len)
    block = max(chunk_len * substeps, substeps)
    while done < total_substeps:
        m = min(block, total_substeps - done)
        ext = np.concatenate([carry, np.zeros(m)])
        for j in range(m):
            x_now = ext[delay + j - 1]
            x_delayed = ext[j]
            drive = beta * x_delayed / (1.0 + x_delayed**p) - gamma * x_now
            ext[delay + j] = x_now + h * drive
        # keep every `substeps`-th value, after the first `washout` samples
        idx = np.arange(done, done + m)
        sampled = idx[(idx % substeps == 0) & (idx // substeps >= washout)]
        if sampled.size:
            buf.push({"x": ext[delay + (sampled - done)]})
        done += m
        carry = ext[-delay:]
        yield from buf.drain()
    yield from buf.drain(final=True)

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
standard evaluation loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["narma", "narma10", "mackey_glass_series"]


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
    hold, and their update is saturated with ``tanh`` (see
    :func:`narma_step`).  The first ``washout`` steps (transient from the
    zero initial condition; default ``max(50, 5 * order)``) are discarded
    from both arrays.

    Returns
    -------
    (u, y):
        Input and target, each of shape ``(n_steps,)``.
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
    u = rng.uniform(0.0, 0.5, size=total)
    y = np.zeros(total)
    for t in range(order - 1, total - 1):
        y[t + 1] = narma_step(y, u, t, order)
    return u[washout:], y[washout:]


def narma_step(y: np.ndarray, u: np.ndarray, t: int, order: int) -> float:
    """``y[t + 1]`` of the order-``order`` NARMA recursion (see :func:`narma`).

    Above order 10 the textbook update diverges: |y| reaches ~1e308 within
    a few hundred steps at orders 15 to 30.  There it is wrapped in
    ``tanh``, as is usual for NARMA-20, which keeps ``y`` in ``[0, 1)``.
    Orders up to 10 keep the unsaturated update bit for bit.
    """
    update = (
        0.3 * y[t] + 0.05 * y[t] * y[t - order + 1: t + 1].sum()
        + 1.5 * u[t - order + 1] * u[t] + 0.1
    )
    return np.tanh(update) if order > 10 else update


def narma10(
    n_steps: int, *, seed: SeedLike = None, washout: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a NARMA-10 input/target pair (``narma(order=10)``).

    Kept as the named classic; bit-identical to the historical
    implementation (pinned in ``tests/test_regression_data.py``).
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
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if tau <= 0 or dt <= 0 or substeps < 1:
        raise ValueError("tau, dt must be positive and substeps >= 1")
    rng = ensure_rng(seed)
    h = dt / substeps
    delay_samples = max(1, int(round(tau / h)))
    history = 1.2 + 0.1 * rng.standard_normal(delay_samples)
    total_samples = (n_steps + washout) * substeps
    buf = np.concatenate([history, np.zeros(total_samples)])
    for i in range(total_samples):
        x_now = buf[delay_samples + i - 1] if i > 0 else history[-1]
        x_delayed = buf[i]
        drive = beta * x_delayed / (1.0 + x_delayed**p) - gamma * x_now
        buf[delay_samples + i] = x_now + h * drive
    sampled = buf[delay_samples:][::substeps][: n_steps + washout]
    return sampled[washout:]

"""Gradient-descent optimizers and learning-rate schedules.

The paper trains with plain stochastic gradient descent and a step schedule:
the learning rate starts at 1 and is multiplied by 0.1 at fixed epochs —
{5, 10, 15, 20} for the reservoir parameters and {10, 15, 20} for the output
layer (Sec. 4).  :class:`StepSchedule` encodes exactly that; Momentum and
Adam are provided as extensions for the ablation benches.

Optimizers operate on *parameter dictionaries* mapping names to numpy arrays
(scalars are 0-d arrays), so one optimizer instance can drive the whole
parameter set while per-group learning rates stay with the caller.

Stacked (population) mode
-------------------------
A population trainer (:mod:`repro.core.population`) descends K ``(A, B)``
candidates concurrently, so every parameter array carries a leading
candidate axis: ``A`` is ``(K,)``, the output weights are ``(K, N_y, N_r)``
and so on.  The optimizers support this natively:

* ``reset(n_rows=K)`` switches an optimizer into stacked mode with
  *per-candidate* internal state (velocities, Adam moments, per-row step
  counts);
* ``step(..., mask=row_mask)`` (a boolean ``(K,)`` mask) updates only the
  flagged rows — rows outside the mask keep their parameters *and* their
  optimizer state untouched, exactly as if their member had skipped that
  minibatch.

Learning rates stay scalars: every member of a population is at the same
epoch, so one rate per parameter group serves the whole stack.

Every stacked update is element-wise along the candidate axis, so row ``k``
of a stacked optimizer is bit-identical to an independent scalar-mode
optimizer driving that candidate alone (pinned by
``tests/test_optimizer.py``).  :func:`clip_gradients` likewise computes
*per-candidate* norms when told the gradients are stacked.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "ConstantSchedule",
    "StepSchedule",
    "paper_reservoir_schedule",
    "paper_output_schedule",
    "SGD",
    "MomentumSGD",
    "Adam",
    "get_optimizer",
    "clip_gradients",
]


class ConstantSchedule:
    """A learning rate that never changes."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)

    def lr_at(self, epoch: int) -> float:
        """Learning rate during 1-indexed ``epoch``."""
        return self.lr

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ConstantSchedule(lr={self.lr})"


class StepSchedule:
    """Multiply the learning rate by ``gamma`` at each milestone epoch.

    The milestone applies from the *start* of the listed (1-indexed) epoch:
    with ``initial_lr=1``, ``milestones=(5, 10)`` and ``gamma=0.1``, epochs
    1–4 run at 1.0, epochs 5–9 at 0.1, and epoch 10 onwards at 0.01.
    """

    def __init__(self, initial_lr: float, milestones: Sequence[int], gamma: float = 0.1):
        if initial_lr <= 0:
            raise ValueError(f"initial_lr must be positive, got {initial_lr}")
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        milestones = tuple(int(m) for m in milestones)
        if any(m < 1 for m in milestones):
            raise ValueError("milestones are 1-indexed epochs and must be >= 1")
        if list(milestones) != sorted(set(milestones)):
            raise ValueError("milestones must be strictly increasing")
        self.initial_lr = float(initial_lr)
        self.milestones = milestones
        self.gamma = float(gamma)

    def lr_at(self, epoch: int) -> float:
        """Learning rate during 1-indexed ``epoch``."""
        if epoch < 1:
            raise ValueError(f"epoch is 1-indexed, got {epoch}")
        n_decays = sum(1 for m in self.milestones if epoch >= m)
        return self.initial_lr * self.gamma**n_decays

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StepSchedule(initial_lr={self.initial_lr}, "
            f"milestones={self.milestones}, gamma={self.gamma})"
        )


def paper_reservoir_schedule(initial_lr: float = 1.0) -> StepSchedule:
    """The paper's reservoir-parameter schedule: x0.1 at epochs 5, 10, 15, 20."""
    return StepSchedule(initial_lr, milestones=(5, 10, 15, 20), gamma=0.1)


def paper_output_schedule(initial_lr: float = 1.0) -> StepSchedule:
    """The paper's output-layer schedule: x0.1 at epochs 10, 15, 20."""
    return StepSchedule(initial_lr, milestones=(10, 15, 20), gamma=0.1)


def clip_gradients(grads: Dict[str, np.ndarray], max_norm: float,
                   *, stacked: bool = False):
    """Scale all gradients in place so their L2 norm is <= max_norm.

    Returns the pre-clipping norm.  A ``max_norm`` of ``None`` or ``inf``
    disables clipping.  The paper does not describe its numerical guards;
    clipping is this implementation's (documented) stabilizer for the
    learning-rate-1 regime.

    With ``stacked=True`` every gradient carries a leading candidate axis
    (``(K,)`` scalars, ``(K, N_y, N_r)`` weight stacks, ...) and the norm is
    computed — and the clip applied — *per candidate*: the return value is
    the ``(K,)`` vector of pre-clipping norms, and each row is scaled by its
    own factor, so row ``k`` is bit-identical to a scalar-mode call on that
    candidate's gradients alone.
    """
    if not stacked:
        total = float(np.sqrt(sum(float(np.sum(g**2)) for g in grads.values())))
        if max_norm is None or not np.isfinite(max_norm):
            return total
        if max_norm <= 0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        if total > max_norm and total > 0:
            scale = max_norm / total
            for g in grads.values():
                g *= scale
        return total

    # per-candidate norms: reduce each gradient over its row tail (the
    # reshape keeps the reduction a contiguous last-axis sum, matching the
    # flattened full-array sum the scalar path performs per candidate)
    sq = None
    for g in grads.values():
        arr = np.asarray(g)
        if arr.ndim == 0:
            raise ValueError(
                "stacked=True needs gradients with a leading candidate axis"
            )
        contrib = np.sum((arr**2).reshape(arr.shape[0], -1), axis=-1)
        sq = contrib if sq is None else sq + contrib
    total = np.sqrt(sq)
    if max_norm is None or not np.isfinite(max_norm):
        return total
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    need = (total > max_norm) & (total > 0)
    if need.any():
        scale = np.ones_like(total)
        scale[need] = max_norm / total[need]
        for g in grads.values():
            # rows not clipped multiply by exactly 1.0 (bitwise identity)
            g *= scale.reshape(scale.shape + (1,) * (g.ndim - 1))
    return total


def _rowwise(values, ndim: int):
    """Reshape a per-candidate ``(K,)`` vector (Adam's per-row bias
    corrections) to broadcast over a ``(K, ...)`` parameter tail; scalars
    pass through untouched."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        return values
    return arr.reshape(arr.shape + (1,) * (ndim - arr.ndim))


def _check_mask(mask, stacked: bool):
    """Validate a row mask: stacked mode only, boolean dtype only.

    A mask in scalar mode would boolean-index the *first parameter axis*
    (e.g. the readout's class rows) instead of a candidate axis, and an
    integer index array would silently corrupt Adam's per-row step counts
    (``t += mask`` adds the index *values*) — both are silent misupdates,
    so they fail loudly for every optimizer.
    """
    if mask is None:
        return None
    if not stacked:
        raise ValueError("mask requires stacked mode (reset(n_rows=K))")
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ValueError(
            f"mask must be a boolean row mask, got dtype {mask.dtype}"
        )
    return mask


class SGD:
    """Plain stochastic gradient descent (the paper's optimizer)."""

    def __init__(self):
        self._stacked = False

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
             lrs: Dict[str, float], mask: Optional[np.ndarray] = None) -> None:
        """In-place update ``p -= lr * g`` for every parameter.

        ``mask`` (stacked mode only, boolean) restricts the update to the
        flagged candidate rows; other rows are untouched.
        """
        mask = _check_mask(mask, self._stacked)
        for name, p in params.items():
            lr = lrs[name]
            if mask is None:
                p -= lr * grads[name]
            else:
                upd = lr * grads[name]
                p[mask] = p[mask] - upd[mask]

    def reset(self, n_rows: Optional[int] = None) -> None:
        """No internal state; ``n_rows`` only arms stacked-mode masking."""
        self._stacked = n_rows is not None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "SGD()"


class MomentumSGD:
    """SGD with classical momentum (extension; not used by the paper)."""

    def __init__(self, momentum: float = 0.9):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: Dict[str, np.ndarray] = {}
        self._stacked = False

    def step(self, params, grads, lrs, mask=None) -> None:
        mask = _check_mask(mask, self._stacked)
        for name, p in params.items():
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v_new = self.momentum * v - lrs[name] * grads[name]
            if mask is None:
                self._velocity[name] = v_new
                p += v_new
            else:
                v[mask] = v_new[mask]
                self._velocity[name] = v
                p[mask] = p[mask] + v_new[mask]

    def reset(self, n_rows: Optional[int] = None) -> None:
        self._velocity.clear()
        self._stacked = n_rows is not None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MomentumSGD(momentum={self.momentum})"


class Adam:
    """Adam optimizer (extension; not used by the paper).

    ``reset(n_rows=K)`` switches to stacked mode: the step count ``t`` (and
    with it the bias correction) is tracked *per candidate row*, so a row
    that skips a minibatch (mask) stays bit-identical to an independent
    scalar-mode Adam driving that candidate alone.
    """

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params, grads, lrs, mask=None) -> None:
        stacked = isinstance(self._t, np.ndarray)
        mask = _check_mask(mask, stacked)
        if not stacked:
            self._t += 1
            corr1 = 1 - self.beta1**self._t
            corr2 = 1 - self.beta2**self._t
        else:
            t_new = self._t + (1 if mask is None else
                               mask.astype(np.int64))
            # python-float pow per row keeps the bias correction bitwise
            # identical to a scalar-mode Adam at the same step count (rows
            # outside the mask get a placeholder — their values are never
            # written back)
            corr1 = np.array([1 - self.beta1 ** int(t) if t > 0 else 1.0
                              for t in t_new])
            corr2 = np.array([1 - self.beta2 ** int(t) if t > 0 else 1.0
                              for t in t_new])
        for name, p in params.items():
            g = grads[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(p)
                v = np.zeros_like(p)
            m_new = self.beta1 * m + (1 - self.beta1) * g
            v_new = self.beta2 * v + (1 - self.beta2) * g**2
            m_hat = m_new / _rowwise(corr1, p.ndim)
            v_hat = v_new / _rowwise(corr2, p.ndim)
            upd = lrs[name] * m_hat / (np.sqrt(v_hat) + self.eps)
            if mask is None:
                self._m[name] = m_new
                self._v[name] = v_new
                p -= upd
            else:
                m[mask] = m_new[mask]
                v[mask] = v_new[mask]
                self._m[name] = m
                self._v[name] = v
                p[mask] = p[mask] - upd[mask]
        if stacked:
            self._t = t_new if mask is None else np.where(mask, t_new, self._t)

    def reset(self, n_rows: Optional[int] = None) -> None:
        self._m.clear()
        self._v.clear()
        self._t = 0 if n_rows is None else np.zeros(int(n_rows), dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Adam(beta1={self.beta1}, beta2={self.beta2}, eps={self.eps})"


_OPTIMIZERS = {"sgd": SGD, "momentum": MomentumSGD, "adam": Adam}


def get_optimizer(spec):
    """Resolve an optimizer name or pass an instance through."""
    if isinstance(spec, (SGD, MomentumSGD, Adam)):
        return spec
    if isinstance(spec, str):
        try:
            return _OPTIMIZERS[spec]()
        except KeyError:
            known = ", ".join(sorted(_OPTIMIZERS))
            raise ValueError(f"unknown optimizer {spec!r}; known: {known}") from None
    raise TypeError(f"optimizer must be a name or instance, got {type(spec).__name__}")

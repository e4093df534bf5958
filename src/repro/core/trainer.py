"""SGD training of the DFR parameters by backpropagation (paper Sec. 4).

The training protocol reproduced here is exactly the paper's:

* parameters ``A``, ``B`` initialized to 0.01 each, output layer ``W``, ``b``
  initialized to zeros;
* per-sample stochastic gradient descent for 25 epochs (``batch_size=1``;
  larger minibatches trade the paper's update granularity for throughput
  and train as a population of one, see docs/ARCHITECTURE.md, "Where
  minibatch SGD runs");
* learning rates start at 1; the reservoir rate decays x0.1 at epochs
  5/10/15/20, the output rate at 10/15/20;
* backpropagation truncated to the final reservoir state (``window=1``),
  with full BPTT available for comparison (``window=None``).

Numerical guards (the paper is silent on these; both are configurable and
documented): global gradient-norm clipping, and clamping ``A``, ``B`` to a
positive box so the identity-shape reservoir cannot be driven into
divergence by one bad step.  Divergent forward passes are skipped and
counted rather than allowed to poison the parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.backend import resolve_backend
from repro.core.backprop import BackpropEngine
from repro.core.optimizer import StepSchedule, clip_gradients, get_optimizer
from repro.readout.softmax import SoftmaxReadout, one_hot
from repro.representation.dprr import DPRR
from repro.reservoir.modular import ModularDFR
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import as_batch, ensure_1d_labels

__all__ = ["TrainerConfig", "EpochStats", "TrainingResult", "BackpropTrainer"]


@dataclass
class TrainerConfig:
    """Hyperparameters of the backpropagation phase (defaults = the paper)."""

    epochs: int = 25
    #: samples per SGD update; 1 = the paper's per-sample protocol (kept
    #: numerically identical to the original loop), > 1 = minibatch SGD,
    #: gradients averaged over the batch's non-diverged rows (where it runs:
    #: docs/ARCHITECTURE.md, "Where minibatch SGD runs")
    batch_size: int = 1
    lr_reservoir: float = 1.0
    lr_output: float = 1.0
    reservoir_milestones: tuple = (5, 10, 15, 20)
    output_milestones: tuple = (10, 15, 20)
    lr_decay: float = 0.1
    init_A: float = 0.01
    init_B: float = 0.01
    #: truncation window; 1 = the paper's method, None = full BPTT
    window: Optional[int] = 1
    #: global L2 gradient-norm clip (None disables); implementation guard
    grad_clip: Optional[float] = 10.0
    #: separate magnitude clip for the scalar dA/dB gradients, so one noisy
    #: sample cannot jump the reservoir into the unstable region
    reservoir_grad_clip: Optional[float] = 1.0
    #: clamp box for A and B after each update; the default upper bound is
    #: the top of the paper's own grid-search range (10^-0.25 ~ 0.562),
    #: i.e. the region the paper considers meaningful
    param_min: float = 1e-6
    param_max: float = 10 ** (-0.25)
    #: multiplicative pull-back applied to A and B when a forward pass
    #: diverges, so training recovers instead of skipping samples forever
    divergence_shrink: float = 0.7
    shuffle: bool = True
    optimizer: str = "sgd"
    #: array backend for minibatch SGD (``batch_size > 1``): a name
    #: such as "numpy" / "torch" / "torch:cuda:0" / "cupy", or None to
    #: defer to the ``REPRO_BACKEND`` environment variable (NumPy when
    #: unset).  The ``batch_size=1`` per-sample path is the paper's pinned
    #: NumPy reference and ignores this knob.
    backend: Optional[str] = None
    #: working float precision of minibatch SGD: None defers to the
    #: spec's ``@dtype`` suffix / ``REPRO_DTYPE`` (float64 when unset);
    #: "float32" opts into single precision (rtol-bounded, see
    #: docs/ARCHITECTURE.md).  The per-sample path stays float64.
    dtype: Optional[str] = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.dtype not in (None, "float64", "float32"):
            raise ValueError(
                f"dtype must be None, 'float64' or 'float32', "
                f"got {self.dtype!r}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be None or >= 1, got {self.window}")
        if self.param_min <= 0 or self.param_max <= self.param_min:
            raise ValueError("need 0 < param_min < param_max")
        if not 0.0 < self.divergence_shrink < 1.0:
            raise ValueError(
                f"divergence_shrink must lie in (0, 1), got {self.divergence_shrink}"
            )


@dataclass
class EpochStats:
    """Per-epoch training telemetry."""

    epoch: int
    mean_loss: float
    accuracy: float
    lr_reservoir: float
    lr_output: float
    A: float
    B: float
    n_skipped: int = 0


@dataclass
class TrainingResult:
    """Outcome of the backpropagation phase."""

    A: float
    B: float
    readout: SoftmaxReadout
    history: List[EpochStats] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.history[-1].mean_loss if self.history else float("nan")


class BackpropTrainer:
    """Trains ``(A, B, W, b)`` of a modular-DFR classifier by SGD.

    :meth:`fit` runs the paper's per-sample loop at ``batch_size=1``; a
    larger ``batch_size`` trains as a population of one in
    :class:`~repro.core.population.PopulationTrainer` (docs/ARCHITECTURE.md,
    "Where minibatch SGD runs").

    Parameters
    ----------
    reservoir:
        The :class:`~repro.reservoir.modular.ModularDFR` (mask and
        nonlinearity fixed; ``A`` and ``B`` are what gets trained).
    n_classes:
        Number of output classes.
    dprr:
        Feature extractor; defaults to a length-normalized DPRR.
    config:
        :class:`TrainerConfig`; defaults to the paper's protocol.
    seed:
        Seed for shuffling.
    """

    def __init__(
        self,
        reservoir: ModularDFR,
        n_classes: int,
        *,
        dprr: Optional[DPRR] = None,
        config: Optional[TrainerConfig] = None,
        seed: SeedLike = None,
    ):
        self.reservoir = reservoir
        self.n_classes = int(n_classes)
        self.dprr = dprr if dprr is not None else DPRR()
        self.config = config if config is not None else TrainerConfig()
        self.rng = ensure_rng(seed)
        self._numpy = resolve_backend(None)
        # the per-sample loop's engine; minibatch SGD builds its own
        self.engine = BackpropEngine(
            reservoir.nonlinearity, dprr=self.dprr, window=self.config.window,
            backend=self._numpy,
        )

    def _pull_back(self, params) -> None:
        """Shrink A and B after a divergent forward pass (recovery guard)."""
        params["A"] *= self.config.divergence_shrink
        params["B"] *= self.config.divergence_shrink
        np.clip(params["A"], self.config.param_min, self.config.param_max,
                out=params["A"])
        np.clip(params["B"], self.config.param_min, self.config.param_max,
                out=params["B"])

    def _apply_update(self, params, grads, optimizer, lr_r: float,
                      lr_o: float) -> None:
        """Clip, step and clamp."""
        cfg = self.config
        clip_gradients(grads, cfg.grad_clip)
        if cfg.reservoir_grad_clip is not None:
            np.clip(grads["A"], -cfg.reservoir_grad_clip,
                    cfg.reservoir_grad_clip, out=grads["A"])
            np.clip(grads["B"], -cfg.reservoir_grad_clip,
                    cfg.reservoir_grad_clip, out=grads["B"])
        optimizer.step(
            params, grads, {"A": lr_r, "B": lr_r, "W": lr_o, "b": lr_o}
        )
        np.clip(params["A"], cfg.param_min, cfg.param_max, out=params["A"])
        np.clip(params["B"], cfg.param_min, cfg.param_max, out=params["B"])

    def fit(self, u: np.ndarray, y: np.ndarray) -> TrainingResult:
        """Run the full SGD protocol on a training set.

        Parameters
        ----------
        u:
            Training inputs ``(N, T, C)`` (standardize beforehand; the
            pipeline does this automatically).
        y:
            Integer labels ``(N,)``.
        """
        if self.config.batch_size > 1:
            # imported here: population.py imports this module
            from repro.core.population import PopulationTrainer

            return PopulationTrainer(
                self.reservoir, self.n_classes, dprr=self.dprr,
                config=self.config, seed=self.rng,
            ).fit(u, y).members[0].result
        start = time.perf_counter()
        u = as_batch(u)
        y = ensure_1d_labels(y, n_samples=u.shape[0])
        if y.size and y.max() >= self.n_classes:
            raise ValueError(
                f"label {y.max()} out of range for {self.n_classes} classes"
            )
        cfg = self.config
        targets = one_hot(y, self.n_classes)
        n_samples, t_len, _ = u.shape

        res_schedule = StepSchedule(
            cfg.lr_reservoir, cfg.reservoir_milestones, cfg.lr_decay
        )
        out_schedule = StepSchedule(cfg.lr_output, cfg.output_milestones, cfg.lr_decay)
        optimizer = get_optimizer(cfg.optimizer)
        optimizer.reset()

        readout = SoftmaxReadout(self.dprr.n_features(self.reservoir.n_nodes),
                                 self.n_classes)
        params = {
            "A": np.array(float(cfg.init_A)),
            "B": np.array(float(cfg.init_B)),
            "W": readout.weights,
            "b": readout.bias,
        }
        window = self.engine.effective_window(t_len)
        use_full_trace = cfg.window is None
        backward_window = t_len if use_full_trace else window

        history: List[EpochStats] = []
        for epoch in range(1, cfg.epochs + 1):
            lr_r = res_schedule.lr_at(epoch)
            lr_o = out_schedule.lr_at(epoch)
            order = self.rng.permutation(n_samples) if cfg.shuffle else np.arange(
                n_samples
            )
            losses, n_correct, n_skipped = self._epoch_per_sample(
                u, y, targets, order, params, readout, optimizer,
                backward_window, t_len, lr_r, lr_o,
            )
            n_seen = len(losses)
            history.append(
                EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)) if n_seen else float("inf"),
                    accuracy=n_correct / n_seen if n_seen else 0.0,
                    lr_reservoir=lr_r,
                    lr_output=lr_o,
                    A=float(params["A"]),
                    B=float(params["B"]),
                    n_skipped=n_skipped,
                )
            )
        return TrainingResult(
            A=float(params["A"]),
            B=float(params["B"]),
            readout=readout,
            history=history,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _epoch_per_sample(self, u, y, targets, order, params, readout,
                          optimizer, backward_window, t_len, lr_r, lr_o):
        """One epoch of the paper's per-sample SGD (``batch_size=1``).

        This is the seed training loop verbatim; the ``batch_size=1``
        trajectory is pinned bit-for-bit by regression tests, so any change
        here must keep the arithmetic (and its order) intact.
        """
        losses = []
        n_correct = 0
        n_skipped = 0
        for idx in order:
            a_val = float(params["A"])
            b_val = float(params["B"])
            sample = u[idx: idx + 1]
            # The full trace is computed for speed (the identity shape
            # admits a single-filter forward); the backward pass then
            # consumes only the truncation window, so the *mathematics*
            # is identical to the memory-bounded streaming execution
            # (ModularDFR.run_streaming), as pinned by tests.  The NumPy
            # backend is forced here: this loop is the paper's reference
            # protocol, pinned bit-for-bit regardless of REPRO_BACKEND.
            trace = self.reservoir.run(sample, a_val, b_val,
                                       backend=self._numpy)
            if trace.diverged[0]:
                n_skipped += 1
                self._pull_back(params)
                continue
            # the seed's einsum, not the batched GEMM: the pinned
            # trajectory depends on its order of summation
            feats = self.dprr.reference_features(trace)[0]
            win = trace.final_window(backward_window, copy=False)
            grads_out = self.engine.sample_gradients(
                win.window_states[0],
                win.window_pre_activations[0],
                feats,
                readout,
                targets[idx],
                a_val,
                b_val,
                n_steps=t_len,
            )
            losses.append(grads_out.loss)
            if int(np.argmax(grads_out.probs)) == y[idx]:
                n_correct += 1
            grads = {
                "A": np.array(grads_out.d_A),
                "B": np.array(grads_out.d_B),
                "W": grads_out.d_weights,
                "b": grads_out.d_bias,
            }
            self._apply_update(params, grads, optimizer, lr_r, lr_o)
        return losses, n_correct, n_skipped

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BackpropTrainer(reservoir={self.reservoir!r}, "
            f"n_classes={self.n_classes}, config={self.config!r})"
        )

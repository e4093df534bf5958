"""Population gradient descent: K restarts of the paper's BP+GD, fused.

The paper's headline result is that backpropagation + gradient descent
(Sec. 4) finds good DFR parameters far faster than grid search — but a
gradient run is only as good as its starting point, so in practice one runs
many restarts.  Run sequentially, K restarts cost K full
:meth:`~repro.core.trainer.BackpropTrainer.fit` loops.  This module descends
all K starting points *concurrently* instead: the candidate-axis-vectorized
engine (PR 4) already sweeps K ``(A, B)`` points through one fused
``(K, N, ...)`` forward/backward, so a population of restarts becomes one
device-sized array program per minibatch — per-candidate optimizer state
(:mod:`repro.core.optimizer` stacked mode), per-candidate learning
trajectories, one shared data pass.

Numerical contract (pinned by ``tests/test_population.py``):

* a population of one with ``batch_size=1`` *is* the paper's per-sample SGD
  — :class:`PopulationTrainer` delegates to
  :class:`~repro.core.trainer.BackpropTrainer` outright, so the pinned
  NumPy reference trajectory is reproduced bit for bit;
* everything else — any population at ``batch_size > 1``, including the
  population of one that ``BackpropTrainer.fit`` trains at that batch size
  — runs :meth:`PopulationTrainer._fused_epoch` (docs/ARCHITECTURE.md,
  "Where minibatch SGD runs"), and member ``k`` of a
  fused K-member run is bit-identical (on NumPy) to a population of one
  started from that member's ``(A, B)`` with the same seed — including
  optimizer moments, learning-rate schedule state, divergence pull-backs,
  and the gradient-clip arithmetic.  All members share one shuffle stream
  (common random numbers): every member sees the same sample order each
  epoch, which is what lets the forward/backward fuse, and is the usual
  variance-reduction choice when comparing restarts.

Every member trains for the full ``epochs`` budget on a stack whose
width never changes, so all members share one epoch and one learning rate
per parameter group at every step.

``REPRO_POPULATION`` resolves the population size for entry points that do
not receive an explicit one (``DFRClassifier(search="descent")``,
``repro-bench table1 --search descent``), mirroring ``REPRO_WORKERS`` /
``REPRO_CANDIDATE_BLOCK_SIZE``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.backprop import BackpropEngine
from repro.core.optimizer import StepSchedule, clip_gradients, get_optimizer
from repro.core.trainer import (
    BackpropTrainer,
    EpochStats,
    TrainerConfig,
    TrainingResult,
)
from repro.readout.softmax import SoftmaxReadout, one_hot
from repro.representation.dprr import DPRR
from repro.reservoir.modular import ModularDFR
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import (
    as_batch,
    check_at_least,
    ensure_1d_labels,
    env_knob,
)

__all__ = [
    "POPULATION_ENV_VAR",
    "DEFAULT_POPULATION",
    "resolve_population",
    "draw_starting_points",
    "chunked_population_fit",
    "MemberResult",
    "PopulationResult",
    "PopulationTrainer",
]

#: environment variable consulted when no explicit population size is given
POPULATION_ENV_VAR = "REPRO_POPULATION"

#: default restart count for descent-based search entry points: enough
#: starts to cover the paper's multi-modal (A, B) landscape, small enough
#: that the fused stack stays comfortably in memory
DEFAULT_POPULATION = 8


def resolve_population(population: Optional[int] = None,
                       default: int = DEFAULT_POPULATION) -> int:
    """Resolve an effective population size (>= 1).

    Explicit ``population`` wins; ``None`` consults ``REPRO_POPULATION``;
    absent/invalid both, ``default`` applies.  Env values are best-effort
    fleet-wide hints (invalid ones fall back to the default rather than
    raising in every entry point); explicit values below 1 raise.
    """
    return env_knob(population, POPULATION_ENV_VAR, int, default,
                    lambda n: check_at_least(n, 1, name="population"),
                    lenient=True)


def draw_starting_points(
    rng: np.random.Generator,
    population: int,
    a_range: Tuple[float, float],
    b_range: Tuple[float, float],
    *,
    init_A: float,
    init_B: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Starting ``(A, B)`` points for a population of descent restarts.

    Member 0 always starts at ``(init_A, init_B)`` — the paper's
    initialization — so a population of one reproduces the paper's protocol
    without consuming any randomness; members 1..K-1 are drawn log-uniform
    over the given log10 box (the same distribution
    :class:`~repro.core.hyperopt.RandomSearch` samples).
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    a0 = np.empty(population)
    b0 = np.empty(population)
    a0[0] = float(init_A)
    b0[0] = float(init_B)
    for i in range(1, population):
        a0[i] = 10.0 ** rng.uniform(*a_range)
        b0[i] = 10.0 ** rng.uniform(*b_range)
    return a0, b0


def chunked_population_fit(
    reservoir: ModularDFR,
    n_classes: int,
    u: np.ndarray,
    y: np.ndarray,
    a0: np.ndarray,
    b0: np.ndarray,
    *,
    dprr: Optional[DPRR] = None,
    config: Optional[TrainerConfig] = None,
    shuffle_seed: int,
    block_size: int,
) -> "PopulationResult":
    """Train ONE logical population in fused chunks of ``block_size``.

    Bounds the stacked-trace memory at any population size: each chunk is a
    separate :meth:`PopulationTrainer.fit` over at most ``block_size``
    members.  Every chunk re-seeds the same shuffle stream
    (``shuffle_seed``), so all members see identical sample orders and the
    outcome does not depend on how the population was chunked (pinned by
    ``tests/test_population.py``).  Because a chunk is a *slice* of one
    population, single-member per-sample delegation applies only when the
    whole population is one member — otherwise a trailing chunk of one
    would train through different arithmetic than the same member in a
    wider chunk.

    Returns the merged :class:`PopulationResult`; members keep their
    population-wide indices.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    k = len(a0)
    members: List[MemberResult] = []
    elapsed = 0.0
    for lo in range(0, k, block_size):
        hi = min(lo + block_size, k)
        trainer = PopulationTrainer(
            reservoir, n_classes, dprr=dprr, config=config,
            delegate_single=(k == 1),
            seed=shuffle_seed,
        )
        chunk = trainer.fit(u, y, a0[lo:hi], b0[lo:hi])
        for offset, member in enumerate(chunk.members):
            member.index = lo + offset
            members.append(member)
        elapsed += chunk.elapsed_seconds
    return PopulationResult(members=members, elapsed_seconds=elapsed)


@dataclass
class MemberResult:
    """One population member's training outcome."""

    index: int
    init_A: float
    init_B: float
    result: TrainingResult


@dataclass
class PopulationResult:
    """Outcome of one fused population-descent run."""

    members: List[MemberResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def population(self) -> int:
        return len(self.members)

    def results(self) -> List[TrainingResult]:
        """Per-member :class:`~repro.core.trainer.TrainingResult`, in order."""
        return [m.result for m in self.members]


class PopulationTrainer:
    """Descend K ``(A, B)`` starting points through one fused program.

    The constructor mirrors :class:`~repro.core.trainer.BackpropTrainer`
    (same reservoir / DPRR / :class:`~repro.core.trainer.TrainerConfig`
    contract — inputs must be standardized by the caller); :meth:`fit` takes
    per-member initial parameters and trains the whole population through
    the candidate-stacked engine, one fused forward/backward per minibatch.

    Parameters
    ----------
    reservoir, n_classes, dprr, config, seed:
        As for :class:`~repro.core.trainer.BackpropTrainer`.  ``seed``
        drives the *shared* shuffle stream (all members see the same sample
        order; see the module docstring).
    delegate_single:
        Whether a population of one at ``batch_size=1`` delegates to the
        per-sample :class:`~repro.core.trainer.BackpropTrainer` reference
        (the default, and the ``population=1`` bit-parity contract).  A
        caller that splits ONE logical population across several ``fit``
        calls (:meth:`PopulationDescent.descend` chunking) passes ``False``
        so a trailing chunk of one trains through the same fused arithmetic
        as every other chunk — otherwise chunking could change a member's
        trajectory.
    """

    def __init__(
        self,
        reservoir: ModularDFR,
        n_classes: int,
        *,
        dprr: Optional[DPRR] = None,
        config: Optional[TrainerConfig] = None,
        delegate_single: bool = True,
        seed: SeedLike = None,
    ):
        self.reservoir = reservoir
        self.n_classes = int(n_classes)
        self.dprr = dprr if dprr is not None else DPRR()
        self.config = config if config is not None else TrainerConfig()
        self.delegate_single = bool(delegate_single)
        self.rng = ensure_rng(seed)
        self.engine = BackpropEngine(
            reservoir.nonlinearity, dprr=self.dprr, window=self.config.window,
            backend=self.config.backend,
        )
        self.backend = self.engine.backend

    # ------------------------------------------------------------------ #
    # fused helpers (stacked forms of BackpropTrainer's private methods)  #
    # ------------------------------------------------------------------ #

    def _pull_back_row(self, params: Dict[str, np.ndarray], row: int,
                       count: int) -> None:
        """Row-wise ``BackpropTrainer._pull_back``, ``count`` times over.

        Operates on a length-1 view so the in-place multiply and clip use
        the exact array arithmetic of the scalar trainer.
        """
        shrink = self.config.divergence_shrink ** count
        for name in ("A", "B"):
            view = params[name][row:row + 1]
            view *= shrink
            np.clip(view, self.config.param_min, self.config.param_max,
                    out=view)

    def _apply_update_stacked(self, params, grads, optimizer, lr_r, lr_o,
                              mask: Optional[np.ndarray]) -> None:
        """Stacked ``BackpropTrainer._apply_update``: clip, step and clamp.

        Per-candidate clip norms, one stacked optimizer step (rows outside
        ``mask`` — members whose whole minibatch diverged — are untouched,
        as if the member skipped the step), then the parameter box clamp.
        ``lr_r``/``lr_o`` are the epoch's scalar learning rates, shared by
        every member.  Row ``k`` is bit-identical to the scalar
        ``_apply_update`` on that member's gradients, which the minibatch
        goldens in ``tests/test_batched_training.py`` (recorded from a
        scalar minibatch loop) hold.
        """
        cfg = self.config
        clip_gradients(grads, cfg.grad_clip, stacked=True)
        if cfg.reservoir_grad_clip is not None:
            np.clip(grads["A"], -cfg.reservoir_grad_clip,
                    cfg.reservoir_grad_clip, out=grads["A"])
            np.clip(grads["B"], -cfg.reservoir_grad_clip,
                    cfg.reservoir_grad_clip, out=grads["B"])
        optimizer.step(
            params, grads, {"A": lr_r, "B": lr_r, "W": lr_o, "b": lr_o},
            mask=mask,
        )
        np.clip(params["A"], cfg.param_min, cfg.param_max, out=params["A"])
        np.clip(params["B"], cfg.param_min, cfg.param_max, out=params["B"])

    def _fused_epoch(self, u, y, targets, order, params, readout_geom,
                     optimizer, backward_window, t_len, lr_r, lr_o):
        """One epoch of minibatch SGD for the whole stack.

        The one minibatch SGD loop (``batch_size > 1``, any population
        size): every minibatch shares one ``(A, B)`` snapshot per member
        and runs ONE vector-``(A, B)`` forward and one candidate-stacked
        backward for all members; gradients are averaged over each
        member's non-diverged rows.  Members with diverged samples in the
        minibatch leave the fused call: each diverged row pulls the
        member's ``(A, B)`` back once, and its valid rows train as a
        sub-batch sliced from the already-computed stacked trace — the
        stacked forward rows are bit-identical to scalar runs, so a
        member's arithmetic does not depend on its neighbours.
        """
        cfg = self.config
        xb = self.backend
        k_members = params["A"].shape[0]
        batch_size = cfg.batch_size
        losses: List[List[float]] = [[] for _ in range(k_members)]
        n_correct = np.zeros(k_members, dtype=np.int64)
        n_skipped = np.zeros(k_members, dtype=np.int64)
        for start in range(0, order.shape[0], batch_size):
            sel = order[start: start + batch_size]
            a_snap = params["A"].copy()
            b_snap = params["B"].copy()
            trace = self.reservoir.run(u[sel], a_snap, b_snap, backend=xb)
            div = np.asarray(trace.diverged)          # (K, n) — always NumPy
            n_div = div.sum(axis=1)
            win = trace.final_window(backward_window, copy=False)
            if not n_div.any():
                # no member diverged: the fused outputs are the gradients,
                # with no scatter and no copies of the parameter stacks.
                # Each step reuses the last step's freed pages whatever
                # order its temporaries die in (docs/ARCHITECTURE.md,
                # "Heap policy").
                feats = self.dprr.features(trace, backend=xb)
                out = self.engine.batch_gradients(
                    win.window_states, win.window_pre_activations, feats,
                    readout_geom, targets[sel], a_snap, b_snap, n_steps=t_len,
                    weights=params["W"], bias=params["b"],
                )
                for k, rows in enumerate(out.losses.tolist()):
                    losses[k].extend(rows)
                n_correct += np.count_nonzero(
                    out.probs.argmax(axis=-1) == y[sel], axis=-1)
                grads = {
                    "A": out.d_A.mean(axis=-1),
                    "B": out.d_B.mean(axis=-1),
                    "W": out.d_weights,
                    "b": out.d_bias,
                }
                # a float32 engine's gradients widen, as the scatter below does
                grads = {name: g.astype(np.float64, copy=False)
                         for name, g in grads.items()}
                self._apply_update_stacked(params, grads, optimizer, lr_r,
                                           lr_o, mask=None)
                continue
            grads = {
                "A": np.zeros(k_members),
                "B": np.zeros(k_members),
                "W": np.zeros_like(params["W"]),
                "b": np.zeros_like(params["b"]),
            }
            step_mask = np.ones(k_members, dtype=bool)
            clean = np.flatnonzero(n_div == 0)
            if clean.size:
                out = self.engine.batch_gradients(
                    xb.take(win.window_states, clean, axis=0),
                    xb.take(win.window_pre_activations, clean, axis=0),
                    self.dprr.features(
                        xb.take(trace.states, clean, axis=0), backend=xb
                    ),
                    readout_geom, targets[sel], a_snap[clean], b_snap[clean],
                    n_steps=t_len,
                    weights=params["W"][clean], bias=params["b"][clean],
                )
                grads["A"][clean] = out.d_A.mean(axis=-1)
                grads["B"][clean] = out.d_B.mean(axis=-1)
                grads["W"][clean] = out.d_weights
                grads["b"][clean] = out.d_bias
                pred = out.probs.argmax(axis=-1)       # (K_clean, n)
                for pos, k in enumerate(clean):
                    losses[k].extend(out.losses[pos].tolist())
                    n_correct[k] += int(np.count_nonzero(pred[pos] == y[sel]))
            for k in np.flatnonzero(n_div > 0):
                k = int(k)
                n_div_k = int(n_div[k])
                n_skipped[k] += n_div_k
                self._pull_back_row(params, k, count=n_div_k)
                if n_div_k == sel.shape[0]:
                    # the whole minibatch diverged for this member: no
                    # update at all this step
                    step_mask[k] = False
                    continue
                valid = np.flatnonzero(~div[k])
                kept = sel[~div[k]]
                feats_k = self.dprr.features(
                    xb.take(trace.states[k], valid, axis=0), backend=xb
                )
                out_k = self.engine.batch_gradients(
                    xb.take(win.window_states[k], valid, axis=0),
                    xb.take(win.window_pre_activations[k], valid, axis=0),
                    feats_k, readout_geom, targets[kept],
                    float(a_snap[k]), float(b_snap[k]),
                    n_steps=t_len,
                    weights=params["W"][k], bias=params["b"][k],
                )
                losses[k].extend(out_k.losses.tolist())
                n_correct[k] += int(np.count_nonzero(
                    out_k.probs.argmax(axis=1) == y[kept]
                ))
                grads["A"][k] = out_k.d_A.mean()
                grads["B"][k] = out_k.d_B.mean()
                grads["W"][k] = out_k.d_weights
                grads["b"][k] = out_k.d_bias
            self._apply_update_stacked(
                params, grads, optimizer, lr_r, lr_o,
                mask=None if step_mask.all() else step_mask,
            )
        return losses, n_correct, n_skipped

    # ------------------------------------------------------------------ #
    # the public protocol                                                 #
    # ------------------------------------------------------------------ #

    def _delegate_single(self, u, y, a0: float, b0: float,
                         start: float) -> PopulationResult:
        """Population of one at ``batch_size=1``: the paper's reference.

        Runs :class:`~repro.core.trainer.BackpropTrainer` outright (same
        rng object, same config with the member's initialization), so the
        per-sample SGD trajectory is the pinned seed protocol bit for bit.
        """
        trainer = BackpropTrainer(
            self.reservoir, self.n_classes, dprr=self.dprr,
            config=replace(self.config, init_A=float(a0), init_B=float(b0)),
            seed=self.rng,
        )
        result = trainer.fit(u, y)
        return PopulationResult(
            members=[MemberResult(index=0, init_A=float(a0),
                                  init_B=float(b0), result=result)],
            elapsed_seconds=time.perf_counter() - start,
        )

    def fit(self, u: np.ndarray, y: np.ndarray,
            init_A=None, init_B=None) -> PopulationResult:
        """Descend every member of the population on a training set.

        Parameters
        ----------
        u:
            Training inputs ``(N, T, C)`` (standardize beforehand, exactly
            like :meth:`BackpropTrainer.fit`).
        y:
            Integer labels ``(N,)``.
        init_A, init_B:
            Per-member starting parameters: scalars or matching ``(K,)``
            vectors (a scalar partner broadcasts).  ``None`` defaults to
            the config's ``init_A``/``init_B`` — a population of one at the
            paper's initialization.
        """
        start = time.perf_counter()
        u = as_batch(u)
        y = ensure_1d_labels(y, n_samples=u.shape[0])
        if y.size and y.max() >= self.n_classes:
            raise ValueError(
                f"label {y.max()} out of range for {self.n_classes} classes"
            )
        cfg = self.config
        a0 = np.atleast_1d(np.asarray(
            cfg.init_A if init_A is None else init_A, dtype=np.float64))
        b0 = np.atleast_1d(np.asarray(
            cfg.init_B if init_B is None else init_B, dtype=np.float64))
        if a0.ndim != 1 or b0.ndim != 1:
            raise ValueError(
                f"init_A and init_B must be scalars or 1-D member vectors, "
                f"got shapes {a0.shape} and {b0.shape}"
            )
        try:
            a0, b0 = (np.ascontiguousarray(x)
                      for x in np.broadcast_arrays(a0, b0))
        except ValueError:
            raise ValueError(
                f"init_A and init_B must have matching lengths, got "
                f"{a0.shape[0]} and {b0.shape[0]}"
            ) from None
        if not (np.isfinite(a0).all() and np.isfinite(b0).all()):
            raise ValueError("all initial (A, B) members must be finite")
        k_total = a0.shape[0]

        if k_total == 1 and cfg.batch_size == 1 and self.delegate_single:
            return self._delegate_single(u, y, a0[0], b0[0], start)

        targets = one_hot(y, self.n_classes)
        n_samples, t_len, _ = u.shape
        res_schedule = StepSchedule(
            cfg.lr_reservoir, cfg.reservoir_milestones, cfg.lr_decay
        )
        out_schedule = StepSchedule(cfg.lr_output, cfg.output_milestones,
                                    cfg.lr_decay)
        optimizer = get_optimizer(cfg.optimizer)
        optimizer.reset(n_rows=k_total)

        n_feats = self.dprr.n_features(self.reservoir.n_nodes)
        readout_geom = SoftmaxReadout(n_feats, self.n_classes)
        params = {
            "A": a0.copy(),
            "B": b0.copy(),
            "W": np.zeros((k_total, self.n_classes, n_feats)),
            "b": np.zeros((k_total, self.n_classes)),
        }
        window = self.engine.effective_window(t_len)
        backward_window = t_len if cfg.window is None else window

        histories: List[List[EpochStats]] = [[] for _ in range(k_total)]
        for epoch in range(1, cfg.epochs + 1):
            lr_r = res_schedule.lr_at(epoch)
            lr_o = out_schedule.lr_at(epoch)
            order = (self.rng.permutation(n_samples) if cfg.shuffle
                     else np.arange(n_samples))
            losses, n_correct, n_skipped = self._fused_epoch(
                u, y, targets, order, params, readout_geom, optimizer,
                backward_window, t_len, lr_r, lr_o,
            )
            for k, history in enumerate(histories):
                n_seen = len(losses[k])
                history.append(EpochStats(
                    epoch=epoch,
                    mean_loss=(float(np.mean(losses[k])) if n_seen
                               else float("inf")),
                    accuracy=(float(n_correct[k] / n_seen)
                              if n_seen else 0.0),
                    lr_reservoir=lr_r,
                    lr_output=lr_o,
                    A=float(params["A"][k]),
                    B=float(params["B"][k]),
                    n_skipped=int(n_skipped[k]),
                ))

        elapsed = time.perf_counter() - start
        members = []
        for k in range(k_total):
            readout = SoftmaxReadout(n_feats, self.n_classes)
            readout.weights = params["W"][k].copy()
            readout.bias = params["b"][k].copy()
            members.append(MemberResult(
                index=k,
                init_A=float(a0[k]),
                init_B=float(b0[k]),
                result=TrainingResult(
                    A=float(params["A"][k]), B=float(params["B"][k]),
                    readout=readout, history=histories[k],
                    elapsed_seconds=elapsed,
                ),
            ))
        return PopulationResult(members=members, elapsed_seconds=elapsed)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PopulationTrainer(reservoir={self.reservoir!r}, "
            f"n_classes={self.n_classes}, config={self.config!r})"
        )

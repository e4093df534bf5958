"""Grid-search baseline for DFR parameter optimization (paper Sec. 4.1).

The comparison protocol reproduced from the paper:

* the search box is ``A in [10^-3.75, 10^-0.25]`` and
  ``B in [10^-2.75, 10^-0.25]`` in log space; ``beta`` ranges over the same
  four candidates as the proposed method;
* a grid of ``d`` *divisions* splits each range into ``d`` equal log-space
  sections and evaluates the section midpoints ("the grid divisions are
  performed equally"), i.e. ``d^2`` reservoir sweeps, each paying a full
  ridge fit per ``beta``;
* the division count is increased ``d = 1, 2, 3, ...`` until the selected
  configuration's test accuracy reaches the backpropagation result —
  cumulative over all levels, since one cannot know in advance which ``d``
  suffices ("early stopping of grid search is practically challenging");
* within a grid, the winning ``(A, B, beta)`` is the one with the highest
  validation accuracy (cross-entropy as tiebreak) — the same criterion the
  proposed method uses for ``beta`` — and the test set plays no role in
  selection.

:class:`RecursiveGridSearch` implements the alternative the paper discusses
around Fig. 6: recursively zooming into the best coarse-grid cell.  It is
linear-time but can lock onto a local optimum when the coarse level is
misleading — the failure mode Fig. 6 illustrates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import DFRFeatureExtractor, FixedParamsEvaluation
from repro.core.selection import best_evaluation, better_evaluation, selection_key
from repro.exec import Candidate, CandidateExecutor, EvaluationContext, make_executor
from repro.readout.ridge import PAPER_BETAS
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "PAPER_A_RANGE",
    "PAPER_B_RANGE",
    "grid_values",
    "GridLevelResult",
    "GridSearchOutcome",
    "GridSearch",
    "RecursiveLevel",
    "RecursiveGridSearch",
]

#: the paper's log10 search ranges for A and B
PAPER_A_RANGE = (-3.75, -0.25)
PAPER_B_RANGE = (-2.75, -0.25)


def grid_values(lo_exp: float, hi_exp: float, divisions: int) -> np.ndarray:
    """Midpoints of ``divisions`` equal log-space sections of ``[10^lo, 10^hi]``.

    With one division the single value is the geometric midpoint of the
    range; with two, the midpoints of the two halves; and so on.
    """
    if divisions < 1:
        raise ValueError(f"divisions must be >= 1, got {divisions}")
    if hi_exp <= lo_exp:
        raise ValueError(f"need lo < hi, got [{lo_exp}, {hi_exp}]")
    edges = np.linspace(lo_exp, hi_exp, divisions + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return 10.0**mids


@dataclass
class GridLevelResult:
    """Outcome of one full grid at a fixed division count.

    ``elapsed_seconds`` is the wall-clock of the whole level submission
    (what a user waits for, including executor overhead);
    ``compute_seconds`` sums the per-candidate evaluation times across
    workers.  Serially the two nearly coincide; under a multiprocess
    executor their ratio is the realized speedup.
    """

    divisions: int
    evaluations: List[FixedParamsEvaluation]
    best: FixedParamsEvaluation
    elapsed_seconds: float
    compute_seconds: float = 0.0

    @property
    def n_points(self) -> int:
        return len(self.evaluations)

    def accuracy_matrix(self) -> np.ndarray:
        """Test accuracies as a ``(divisions, divisions)`` matrix (A x B)."""
        mat = np.full((self.divisions, self.divisions), np.nan)
        for i, ev in enumerate(self.evaluations):
            mat[i // self.divisions, i % self.divisions] = ev.test_accuracy
        return mat


@dataclass
class GridSearchOutcome:
    """Outcome of the cumulative until-target protocol (paper Table 1)."""

    target_accuracy: float
    reached: bool
    divisions: int                      # the paper's "gs divs" column
    achieved_accuracy: float
    best: FixedParamsEvaluation
    total_seconds: float                # the paper's "gs time" column (wall)
    total_points: int
    levels: List[GridLevelResult] = field(default_factory=list)
    #: summed per-candidate evaluation time across all levels and workers;
    #: ``total_seconds / total_compute_seconds`` < 1 measures parallel gain
    total_compute_seconds: float = 0.0


class CandidateSearch:
    """Shared plumbing of every search: search box, executor, context.

    Parameters
    ----------
    extractor:
        A fitted :class:`~repro.core.pipeline.DFRFeatureExtractor` (shared
        with the backpropagation pipeline for a fair comparison).  Its
        ``feature_batch_size`` chunks each candidate's reservoir sweeps
        (bounds per-worker peak memory; no numerical effect).
    a_range, b_range:
        Log10 ranges; default to the paper's.
    betas:
        Ridge candidates per grid point.
    val_fraction, seed:
        Holdout protocol for the selection criterion.
    workers:
        Worker-process count for candidate evaluation; ``None`` defers to
        the ``REPRO_WORKERS`` environment variable, 0/1 is serial.  Serial
        and parallel runs are bit-identical.
    backend:
        Array-backend spec for candidate evaluation (e.g. ``"torch"``,
        ``"cupy"``); routes the sweep through a
        :class:`~repro.exec.BackendExecutor` (or stamps the spec onto the
        worker contexts when combined with ``workers``).
    executor_kind:
        Force an executor kind (``"serial"``, ``"vectorized"``,
        ``"multiprocess"``, ``"multiprocess+vectorized"``); ``None`` defers
        to the ``REPRO_EXECUTOR`` environment variable, then to the
        ``workers``/``backend`` resolution.  ``"vectorized"`` fuses each
        submission's candidates into stacked ``(K, N, ...)`` sweeps —
        bit-identical to serial on NumPy.
    candidate_block_size:
        Candidates fused per sweep by a vectorized executor; ``None``
        defers to ``REPRO_CANDIDATE_BLOCK_SIZE`` (default 16).
    executor:
        A pre-built :class:`~repro.exec.CandidateExecutor`; overrides
        ``workers``/``backend``/``executor_kind`` when given.
    """

    def __init__(
        self,
        extractor: DFRFeatureExtractor,
        *,
        a_range: Tuple[float, float] = PAPER_A_RANGE,
        b_range: Tuple[float, float] = PAPER_B_RANGE,
        betas: Sequence[float] = PAPER_BETAS,
        val_fraction: float = 0.2,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        executor_kind: Optional[str] = None,
        candidate_block_size: Optional[int] = None,
        executor: Optional[CandidateExecutor] = None,
        seed: SeedLike = None,
    ):
        self.extractor = extractor
        self.a_range = tuple(a_range)
        self.b_range = tuple(b_range)
        self.betas = tuple(betas)
        self.val_fraction = float(val_fraction)
        #: array-backend spec the search was built with (descent threads it
        #: into its trainer config; the executor already carries it)
        self.backend = backend
        #: candidates fused per sweep (descent also chunks its fused
        #: *training* stacks by this; None defers to the env default)
        self.candidate_block_size = candidate_block_size
        self.executor = (executor if executor is not None
                         else make_executor(workers, backend=backend,
                                            kind=executor_kind,
                                            candidate_block_size=candidate_block_size))
        self._rng = ensure_rng(seed)

    def _make_context(self, u_train, y_train, u_test, y_test, n_classes,
                      base_seed: Optional[int] = None) -> EvaluationContext:
        return EvaluationContext.from_data(
            self.extractor.snapshot(),
            u_train, y_train, u_test, y_test,
            betas=self.betas,
            val_fraction=self.val_fraction,
            n_classes=n_classes,
            base_seed=base_seed,
        )


class GridSearch(CandidateSearch):
    """Exhaustive ``(A, B, beta)`` grid search over the paper's box.

    Takes the :class:`CandidateSearch` parameters; each grid level is one
    executor submission.
    """

    def run_level(
        self,
        u_train,
        y_train,
        u_test,
        y_test,
        divisions: int,
        *,
        n_classes: Optional[int] = None,
        context: Optional[EvaluationContext] = None,
    ) -> GridLevelResult:
        """Evaluate one complete ``divisions x divisions`` grid.

        All ``d^2`` candidates are submitted to the executor as one batch,
        so a multiprocess executor shards the whole level across workers.
        ``context`` lets a multi-level caller reuse one submission context
        (and thereby one worker pool) across levels; it must describe the
        same data arguments.
        """
        start = time.perf_counter()
        a_vals = grid_values(*self.a_range, divisions)
        b_vals = grid_values(*self.b_range, divisions)
        # one fixed split per level keeps the criterion comparable across
        # points (same rule as the proposed method's beta selection)
        split_seed = int(self._rng.integers(2**31 - 1))
        if context is None:
            context = self._make_context(u_train, y_train, u_test, y_test,
                                         n_classes)
        candidates = [
            Candidate(index=i * divisions + j, A=float(a_val), B=float(b_val),
                      seed=split_seed)
            for i, a_val in enumerate(a_vals)
            for j, b_val in enumerate(b_vals)
        ]
        report = self.executor.run(context, candidates)
        evaluations = report.evaluations()
        return GridLevelResult(
            divisions=divisions,
            evaluations=evaluations,
            best=best_evaluation(evaluations),
            elapsed_seconds=time.perf_counter() - start,
            compute_seconds=report.compute_seconds,
        )

    def search_until(
        self,
        u_train,
        y_train,
        u_test,
        y_test,
        target_accuracy: float,
        *,
        max_divisions: int = 20,
        n_classes: Optional[int] = None,
    ) -> GridSearchOutcome:
        """The paper's Table 1 protocol: grow the grid until parity.

        Division counts 1, 2, ... are run in turn; total time and point
        counts accumulate across levels.  The search stops at the first
        level whose *selected* configuration reaches ``target_accuracy`` on
        the test set, or at ``max_divisions``.
        """
        if max_divisions < 1:
            raise ValueError(f"max_divisions must be >= 1, got {max_divisions}")
        levels: List[GridLevelResult] = []
        total_seconds = 0.0
        total_compute = 0.0
        total_points = 0
        best_overall: Optional[FixedParamsEvaluation] = None
        # one context for all levels: a multiprocess executor keeps its
        # worker pool (and the shipped data) alive across the whole search
        context = self._make_context(u_train, y_train, u_test, y_test, n_classes)
        for divisions in range(1, max_divisions + 1):
            level = self.run_level(
                u_train, y_train, u_test, y_test, divisions,
                n_classes=n_classes, context=context,
            )
            levels.append(level)
            total_seconds += level.elapsed_seconds
            total_compute += level.compute_seconds
            total_points += level.n_points
            if better_evaluation(level.best, best_overall):
                best_overall = level.best
            if level.best.test_accuracy >= target_accuracy:
                return GridSearchOutcome(
                    target_accuracy=target_accuracy,
                    reached=True,
                    divisions=divisions,
                    achieved_accuracy=level.best.test_accuracy,
                    best=level.best,
                    total_seconds=total_seconds,
                    total_points=total_points,
                    levels=levels,
                    total_compute_seconds=total_compute,
                )
        return GridSearchOutcome(
            target_accuracy=target_accuracy,
            reached=False,
            divisions=max_divisions,
            achieved_accuracy=levels[-1].best.test_accuracy,
            best=best_overall,
            total_seconds=total_seconds,
            total_points=total_points,
            levels=levels,
            total_compute_seconds=total_compute,
        )


@dataclass
class RecursiveLevel:
    """One zoom level of the recursive grid search."""

    a_box: Tuple[float, float]          # log10 bounds searched at this level
    b_box: Tuple[float, float]
    a_values: np.ndarray
    b_values: np.ndarray
    val_loss_matrix: np.ndarray         # (d, d), selection tiebreak
    val_accuracy_matrix: np.ndarray     # (d, d), selection criterion
    accuracy_matrix: np.ndarray         # (d, d), test accuracy (reporting)
    best_index: Tuple[int, int]
    best: FixedParamsEvaluation


class RecursiveGridSearch:
    """Coarse-to-fine "zoom" grid search (the Fig. 6 alternative).

    Each level lays a ``divisions x divisions`` grid over the current box,
    then shrinks the box to the section of the best (lowest validation
    loss) grid point and recurses.  Linear in the number of levels, but the
    zoom commits to the coarse level's winner — when the accuracy landscape
    is rugged (Fig. 6), the refined grid can miss the global optimum
    entirely.  Keyword arguments other than ``divisions`` are the
    :class:`CandidateSearch` parameters, forwarded to the per-level
    :class:`GridSearch`.
    """

    def __init__(self, extractor: DFRFeatureExtractor, *,
                 divisions: int = 5, **kwargs):
        if divisions < 2:
            raise ValueError(f"divisions must be >= 2 to zoom, got {divisions}")
        self.divisions = int(divisions)
        self._grid = GridSearch(extractor, **kwargs)
        self.a_range = self._grid.a_range
        self.b_range = self._grid.b_range

    def run(
        self,
        u_train,
        y_train,
        u_test,
        y_test,
        *,
        n_levels: int = 2,
        n_classes: Optional[int] = None,
    ) -> List[RecursiveLevel]:
        """Run ``n_levels`` of zooming; returns one record per level."""
        if n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {n_levels}")
        a_box = self.a_range
        b_box = self.b_range
        levels = []
        d = self.divisions
        # the context is range-independent, so all zoom levels share it
        # (and, under a multiprocess executor, one worker pool)
        context = self._grid._make_context(u_train, y_train, u_test, y_test,
                                           n_classes)
        for _ in range(n_levels):
            self._grid.a_range = a_box
            self._grid.b_range = b_box
            level_result = self._grid.run_level(
                u_train, y_train, u_test, y_test, d,
                n_classes=n_classes, context=context,
            )
            val_mat = np.array(
                [ev.val_loss for ev in level_result.evaluations]
            ).reshape(d, d)
            val_acc = np.array(
                [ev.val_accuracy for ev in level_result.evaluations]
            ).reshape(d, d)
            acc_mat = level_result.accuracy_matrix()
            # selection: the shared rule (highest validation accuracy, CE
            # loss then smallest (A, B) as tiebreaks); on a grid the (A, B)
            # tiebreak equals the lowest flat index, matching the historical
            # lexsort behaviour
            evals = level_result.evaluations
            flat_best = min(range(len(evals)),
                            key=lambda i: selection_key(evals[i]))
            bi, bj = flat_best // d, flat_best % d
            a_vals = grid_values(*a_box, d)
            b_vals = grid_values(*b_box, d)
            levels.append(
                RecursiveLevel(
                    a_box=a_box,
                    b_box=b_box,
                    a_values=a_vals,
                    b_values=b_vals,
                    val_loss_matrix=val_mat,
                    val_accuracy_matrix=val_acc,
                    accuracy_matrix=acc_mat,
                    best_index=(bi, bj),
                    best=level_result.evaluations[flat_best],
                )
            )
            # zoom into the winning section of each axis
            a_edges = np.linspace(a_box[0], a_box[1], d + 1)
            b_edges = np.linspace(b_box[0], b_box[1], d + 1)
            a_box = (float(a_edges[bi]), float(a_edges[bi + 1]))
            b_box = (float(b_edges[bj]), float(b_edges[bj + 1]))
        return levels

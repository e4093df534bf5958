"""Candidate tasks and the picklable evaluation context.

The execution layer separates *what* a search evaluates from *where* it
runs.  A search builds one :class:`EvaluationContext` per submission — the
dataset arrays, an :class:`~repro.core.pipeline.ExtractorConfig` snapshot of
the feature pipeline, the scoring protocol, and optionally an array-backend
spec — plus a list of lightweight :class:`Candidate` records.  Executors
(serial, multiprocess, or array-backend) then map
:func:`evaluate_candidate` over the candidates; because the context is a
plain picklable bundle and the per-candidate seed is a pure function of the
candidate, the results are bit-identical no matter how the work is sharded.

Failure semantics: :func:`evaluate_candidate` never raises — a candidate
whose evaluation throws becomes a failed :class:`CandidateResult` whose
traceback rides along in ``error``, and
:meth:`SubmissionReport.evaluations` maps it to the
:meth:`~repro.core.pipeline.FixedParamsEvaluation.failed` sentinel that the
shared selection rule (:mod:`repro.core.selection`) ranks strictly last.
One bad ``(A, B)`` point therefore never kills a sweep.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import (
    DFRFeatureExtractor,
    ExtractorConfig,
    FixedParamsEvaluation,
    evaluate_fixed_params,
    evaluate_fixed_params_block,
)
from repro.exec.seeding import derive_candidate_seed
from repro.readout.ridge import PAPER_BETAS
from repro.utils.validation import as_batch, ensure_1d_labels

__all__ = [
    "Candidate",
    "CandidateResult",
    "SubmissionReport",
    "EvaluationContext",
    "evaluate_candidate",
]


@dataclass
class Candidate:
    """One ``(A, B)`` point submitted for evaluation.

    ``seed`` is the holdout-split seed for this candidate; when ``None``,
    the executor derives it from the context's ``base_seed`` and the
    candidate ``index`` (spawn-key splitting), so the value never depends
    on worker count or scheduling order.
    """

    index: int
    A: float
    B: float
    seed: Optional[int] = None


@dataclass
class CandidateResult:
    """Outcome of one candidate: an evaluation or a captured failure."""

    candidate: Candidate
    evaluation: Optional[FixedParamsEvaluation]
    error: Optional[str] = None
    compute_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SubmissionReport:
    """All results of one submission, with the two timing views.

    ``wall_seconds`` is the elapsed wall-clock of the whole submission (what
    a user waits for — under parallel execution this is *less* than the work
    done); ``compute_seconds`` sums the per-candidate evaluation times
    across workers (the work actually performed).  Their ratio is the
    realized speedup.
    """

    results: List[CandidateResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: work units re-submitted after a transient in-worker failure
    retries: int = 0
    #: work units re-submitted after a lost worker (broken pool / timeout)
    redispatches: int = 0

    @property
    def compute_seconds(self) -> float:
        return sum(r.compute_seconds for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def evaluations(self) -> List[FixedParamsEvaluation]:
        """Evaluations in candidate order; failures become sentinel records.

        A candidate whose worker raised is mapped to
        :meth:`~repro.core.pipeline.FixedParamsEvaluation.failed` (infinite
        loss, zero accuracy, the captured traceback in ``error``) so the
        search that submitted it keeps running and ranks it last.
        """
        out = []
        for r in self.results:
            if r.ok:
                out.append(r.evaluation)
            else:
                out.append(FixedParamsEvaluation.failed(
                    r.candidate.A, r.candidate.B, error=r.error,
                ))
        return out


@dataclass
class EvaluationContext:
    """Everything a worker needs to score candidates, in picklable form.

    The feature pipeline travels as an :class:`ExtractorConfig` (small
    arrays and scalars) rather than a live extractor; each process rebuilds
    the extractor once per submission and reuses it for all its candidates.
    """

    extractor: ExtractorConfig
    u_train: np.ndarray
    y_train: np.ndarray
    u_test: np.ndarray
    y_test: np.ndarray
    betas: Tuple[float, ...] = PAPER_BETAS
    val_fraction: float = 0.2
    n_classes: Optional[int] = None
    #: fallback entropy for candidates submitted without an explicit seed
    base_seed: Optional[int] = None
    #: array-backend spec overriding the extractor's own for this
    #: submission (how :class:`~repro.exec.BackendExecutor` re-targets
    #: evaluation); None keeps the snapshot's backend
    backend: Optional[str] = None

    def __post_init__(self):
        if isinstance(self.extractor, DFRFeatureExtractor):
            self.extractor = self.extractor.snapshot()
        self._built: Optional[DFRFeatureExtractor] = None

    @classmethod
    def from_data(
        cls,
        extractor,
        u_train: np.ndarray,
        y_train: np.ndarray,
        u_test: np.ndarray,
        y_test: np.ndarray,
        *,
        betas: Sequence[float] = PAPER_BETAS,
        val_fraction: float = 0.2,
        n_classes: Optional[int] = None,
        base_seed: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> "EvaluationContext":
        """Build a context from raw search inputs (the one canonical path).

        Normalizes the data shapes and snapshots a live extractor; every
        search layer constructs its submission context through here.
        """
        return cls(
            extractor=extractor,
            u_train=as_batch(u_train),
            y_train=ensure_1d_labels(y_train),
            u_test=as_batch(u_test),
            y_test=ensure_1d_labels(y_test),
            betas=tuple(betas),
            val_fraction=float(val_fraction),
            n_classes=n_classes,
            base_seed=base_seed,
            backend=backend,
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_built"] = None  # never ship the rebuilt extractor
        return state

    def _get_extractor(self) -> DFRFeatureExtractor:
        if self._built is None:
            config = self.extractor
            if self.backend is not None:
                # the override replaces the snapshot's spec before anything
                # resolves it, so a spec this host cannot run is never tried
                config = replace(config, backend=self.backend)
            self._built = config.build()
        return self._built

    def candidate_seed(self, candidate: Candidate) -> Optional[int]:
        """The split seed for ``candidate`` (explicit, derived, or None)."""
        if candidate.seed is not None:
            return int(candidate.seed)
        if self.base_seed is not None:
            return derive_candidate_seed(self.base_seed, candidate.index)
        return None

    def evaluate(self, candidate: Candidate) -> FixedParamsEvaluation:
        """Score one candidate through the shared fixed-params protocol."""
        return evaluate_fixed_params(
            self._get_extractor(),
            self.u_train, self.y_train, self.u_test, self.y_test,
            candidate.A, candidate.B,
            betas=self.betas,
            val_fraction=self.val_fraction,
            n_classes=self.n_classes,
            seed=self.candidate_seed(candidate),
        )

    def evaluate_block(
        self, candidates: Sequence[Candidate]
    ) -> List[FixedParamsEvaluation]:
        """Score a block of candidates through ONE fused reservoir sweep.

        The candidate axis is stacked in front of the sample axis, so the
        whole block pays a single standardize/mask/reservoir/DPRR program
        (see :func:`~repro.core.pipeline.evaluate_fixed_params_block`);
        per-candidate seeds follow the same explicit/derived precedence as
        :meth:`evaluate`.  Results come back in candidate order; a
        candidate whose scoring fails yields the
        :meth:`~repro.core.pipeline.FixedParamsEvaluation.failed` sentinel
        for its row only.
        """
        return evaluate_fixed_params_block(
            self._get_extractor(),
            self.u_train, self.y_train, self.u_test, self.y_test,
            [c.A for c in candidates], [c.B for c in candidates],
            betas=self.betas,
            val_fraction=self.val_fraction,
            n_classes=self.n_classes,
            seeds=[self.candidate_seed(c) for c in candidates],
        )


def evaluate_candidate(context: EvaluationContext,
                       candidate: Candidate) -> CandidateResult:
    """Evaluate one candidate, timing it and capturing any exception.

    This single function is the compute path of *every* executor — serial
    and worker processes alike — which is what makes serial and parallel
    execution bit-identical.  An exception marks the candidate failed
    without propagating, so one bad point never kills a whole search.
    """
    start = time.perf_counter()
    try:
        evaluation = context.evaluate(candidate)
        return CandidateResult(
            candidate=candidate,
            evaluation=evaluation,
            compute_seconds=time.perf_counter() - start,
        )
    except Exception:
        return CandidateResult(
            candidate=candidate,
            evaluation=None,
            error=traceback.format_exc(limit=10),
            compute_seconds=time.perf_counter() - start,
        )

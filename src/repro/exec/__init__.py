"""Unified candidate-execution layer for the ``(A, B)`` searches.

Every baseline search in this repo (grid, random, annealing) scores
independent ``(A, B)`` candidates through the identical
:func:`~repro.core.pipeline.evaluate_fixed_params` protocol.  This package
is the single seam those searches submit work through:

* :class:`Candidate` / :class:`EvaluationContext` — a picklable description
  of one point and of everything needed to score it;
* :class:`SerialExecutor` / :class:`MultiprocessExecutor` — in-process and
  process-pool execution with identical (bit-for-bit) results;
* :class:`BackendExecutor` — in-process, device-resident evaluation on a
  :mod:`repro.backend` array backend (GPU-scale sweeps through the same
  context/candidate protocol; ``backend="numpy"`` is bit-identical to
  :class:`SerialExecutor`);
* :class:`VectorizedExecutor` — candidate-axis fusion: blocks of K
  candidates run as ONE stacked ``(K, N, ...)`` array program instead of K
  dispatches, bit-identical to :class:`SerialExecutor` on NumPy and fully
  device-resident on an accelerator backend;
* :func:`derive_candidate_seed` — spawn-key seed splitting, so per-candidate
  randomness never depends on worker count or scheduling;
* :func:`make_executor` / :func:`resolve_workers` — the ``workers`` /
  ``REPRO_WORKERS`` knob (plus the ``backend`` spec, the ``REPRO_EXECUTOR``
  kind override, and the ``candidate_block_size`` /
  ``REPRO_CANDIDATE_BLOCK_SIZE`` fusion knob) shared by the classifier,
  the searches, and the ``repro-bench`` CLI.  The supervision settings
  of :class:`MultiprocessExecutor` (``max_retries``, ``backoff_ms``,
  ``task_timeout_ms``) are constructor arguments only.

See ``docs/ARCHITECTURE.md`` for how this seam relates to the
:class:`~repro.backend.ArrayBackend` seam one layer below it.
"""

from repro.exec.context import (
    Candidate,
    CandidateResult,
    EvaluationContext,
    SubmissionReport,
    evaluate_candidate,
)
from repro.exec.executors import (
    BLOCK_SIZE_ENV_VAR,
    DEFAULT_CANDIDATE_BLOCK_SIZE,
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF_MS,
    EXECUTOR_ENV_VAR,
    WORKERS_ENV_VAR,
    BackendExecutor,
    CandidateExecutor,
    MultiprocessExecutor,
    SerialExecutor,
    VectorizedExecutor,
    make_executor,
    resolve_candidate_block_size,
    resolve_executor_kind,
    resolve_workers,
)
from repro.exec.seeding import derive_candidate_seed, derive_candidate_seeds

__all__ = [
    "Candidate",
    "CandidateResult",
    "EvaluationContext",
    "SubmissionReport",
    "evaluate_candidate",
    "CandidateExecutor",
    "SerialExecutor",
    "BackendExecutor",
    "MultiprocessExecutor",
    "VectorizedExecutor",
    "WORKERS_ENV_VAR",
    "EXECUTOR_ENV_VAR",
    "BLOCK_SIZE_ENV_VAR",
    "DEFAULT_CANDIDATE_BLOCK_SIZE",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RETRY_BACKOFF_MS",
    "make_executor",
    "resolve_executor_kind",
    "resolve_candidate_block_size",
    "resolve_workers",
    "derive_candidate_seed",
    "derive_candidate_seeds",
]

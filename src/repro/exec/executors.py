"""Pluggable candidate executors: serial, process-pool, backend, vectorized.

Every ``(A, B)`` candidate of the baseline searches (grid, random,
annealing) is an independent reservoir sweep, so there are three natural
scaling axes: candidate-level parallelism across *processes*
(:class:`MultiprocessExecutor`), device-resident evaluation on an
accelerator *array backend* (:class:`BackendExecutor`, backed by
:mod:`repro.backend`), and candidate-axis *vectorization*
(:class:`VectorizedExecutor`), which packs a block of K candidates into
one fused array program — the candidate axis stacked next to the sample
axis — instead of K independent dispatches.
:class:`CandidateExecutor` is the seam all search layers submit through,
so the axes compose with the searches unchanged.

Guarantees shared by all executors:

* **determinism** — results are returned in candidate order, and each
  candidate's evaluation depends only on the context and the candidate
  (explicit or spawn-key-derived seed), never on worker count, block size,
  or schedule;
* **fault isolation** — a candidate whose evaluation raises is returned as
  a failed :class:`~repro.exec.context.CandidateResult` instead of killing
  the submission (row-wise inside a vectorized block);
* **two timing views** — wall-clock of the whole submission plus summed
  per-candidate compute seconds, so realized speedup is measurable.

The two axes also *stack*: ``executor_kind="multiprocess+vectorized"``
shards candidates across worker processes whose workers each evaluate
fused candidate-axis blocks — ``REPRO_WORKERS`` composing with
``REPRO_CANDIDATE_BLOCK_SIZE``.

Worker selection: an explicit ``workers`` argument wins; ``None`` falls
back to the ``REPRO_WORKERS`` environment variable; absent both, execution
is serial.  The ``REPRO_EXECUTOR`` variable force-selects an executor
*kind* (``serial`` / ``vectorized`` / ``multiprocess`` /
``multiprocess+vectorized``) the same way — this is how CI routes the
whole test suite through the multiprocess, vectorized, and two-level
paths — and ``REPRO_CANDIDATE_BLOCK_SIZE`` tunes the fused block size of
the vectorized executor (standalone or inside workers).

Supervision: :class:`MultiprocessExecutor` runs every submission under a
supervision loop — per-dispatch heartbeat, optional per-task timeout
(``task_timeout_ms``), dead-worker detection with pool rebuild, and
bounded retry with exponential backoff (``max_retries`` /
``backoff_ms``).  These are constructor arguments only: the environment
picks the executor, not how it supervises.  Lost or transiently failed
work units are re-dispatched through the same per-candidate seed
derivation, so a recovered run is bit-identical to a fault-free one on
NumPy; a unit that keeps failing resolves to failed
:class:`CandidateResult` records (the ``failed()`` sentinel downstream)
instead of sinking the search.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.exec.context import (
    Candidate,
    CandidateResult,
    EvaluationContext,
    SubmissionReport,
    evaluate_candidate,
)
from repro.faults import FaultInjected
from repro import faults
from repro.utils.validation import check_at_least, check_choice, env_knob

__all__ = [
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
    "resolve_workers",
    "resolve_executor_kind",
    "resolve_candidate_block_size",
    "make_executor",
]

#: environment variable consulted when no explicit worker count is given
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: environment variable force-selecting an executor kind for
#: default-constructed searches ("serial", "vectorized", "multiprocess")
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: environment variable tuning the vectorized executor's fused block size
BLOCK_SIZE_ENV_VAR = "REPRO_CANDIDATE_BLOCK_SIZE"

#: default bounded-retry budget per work unit before the failed() sentinel
DEFAULT_MAX_RETRIES = 3

#: default base backoff between re-dispatches (doubles per attempt)
DEFAULT_RETRY_BACKOFF_MS = 10.0

#: supervision wake interval while dispatches are in flight (consulted
#: only when a task timeout is set)
_HEARTBEAT_MS = 200.0

#: default candidates per fused block: large enough to amortize the shared
#: standardize/mask phase, small enough that a block's stacked trace
#: (K x N x (T+1) x N_x doubles) stays comfortably in memory
DEFAULT_CANDIDATE_BLOCK_SIZE = 16

_EXECUTOR_KINDS = ("serial", "vectorized", "multiprocess",
                   "multiprocess+vectorized")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve an effective worker count (>= 1).

    Explicit ``workers`` wins; ``None`` consults ``REPRO_WORKERS``; an
    unset/invalid variable means serial.  Values below 1 clamp to 1.
    """
    return env_knob(workers, WORKERS_ENV_VAR, int, 1,
                    lambda n: max(1, int(n)), lenient=True)


def resolve_executor_kind(kind: Optional[str] = None) -> Optional[str]:
    """Resolve an executor-kind override (explicit wins over the env).

    ``None`` consults ``REPRO_EXECUTOR``; unset/empty means no override
    (the default ``workers``/``backend`` resolution applies).  Anything
    other than ``serial``, ``vectorized``, ``multiprocess`` or
    ``multiprocess+vectorized`` raises.
    """
    return env_knob(kind, EXECUTOR_ENV_VAR, str, None,
                    lambda k: check_choice(k, _EXECUTOR_KINDS,
                                           name="executor kind"))


def resolve_candidate_block_size(block_size: Optional[int] = None) -> int:
    """Resolve the vectorized executor's fused block size (>= 1).

    Explicit ``block_size`` wins; ``None`` consults
    ``REPRO_CANDIDATE_BLOCK_SIZE``; absent/invalid both, the default of
    ``DEFAULT_CANDIDATE_BLOCK_SIZE`` applies.  Env values are best-effort
    fleet-wide hints: anything invalid (non-numeric or < 1) falls back to
    the default rather than raising in every default-constructed search.
    """
    return env_knob(block_size, BLOCK_SIZE_ENV_VAR, int,
                    DEFAULT_CANDIDATE_BLOCK_SIZE,
                    lambda n: check_at_least(n, 1, name="candidate block size"),
                    lenient=True)


class CandidateExecutor:
    """Protocol: map an :class:`EvaluationContext` over candidates.

    Implementations must return one :class:`CandidateResult` per candidate,
    in submission order, and must not propagate per-candidate exceptions.
    """

    #: effective worker count (1 for serial executors)
    workers: int = 1
    #: array-backend spec stamped onto submitted contexts (None: untouched)
    backend_spec: Optional[str] = None
    #: whether submitting a whole batch at once buys this executor anything
    #: (process-level overlap, or candidate-axis fusion).  Speculative
    #: annealing keys its lazy-vs-eager decision on this: executors that
    #: evaluate candidates one by one anyway (serial, backend) are handed
    #: proposals lazily so nothing is wasted, while batch-preferring
    #: executors receive the whole speculative batch eagerly and the
    #: discarded tail is counted as real (wasted) evaluations.
    prefers_batch: bool = False

    def _apply_backend(self, context: EvaluationContext) -> EvaluationContext:
        """Stamp :attr:`backend_spec` onto ``context`` (cached per source).

        The retargeted copy is cached by source-context identity so that
        repeated submissions of one context — annealing rounds, the levels
        of a recursive grid — keep hitting the same object (extractor reuse
        in-process, pool reuse across processes).
        """
        if self.backend_spec is None or context.backend == self.backend_spec:
            return context
        if getattr(self, "_retarget_source", None) is not context:
            self._retargeted = replace(context, backend=self.backend_spec)
            self._retarget_source = context
        return self._retargeted

    def run(self, context: EvaluationContext,
            candidates: Sequence[Candidate]) -> SubmissionReport:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (worker processes); idempotent."""

    def __enter__(self) -> "CandidateExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(workers={self.workers})"


# Executors holding worker pools register here so an interrupted search
# (KeyboardInterrupt, sys.exit mid-run) cannot leak worker processes: the
# atexit sweep closes whatever is still alive at interpreter shutdown.
_LIVE_EXECUTORS: "weakref.WeakSet[CandidateExecutor]" = weakref.WeakSet()


@atexit.register
def _close_live_executors() -> None:
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def _run_serially(context: EvaluationContext,
                  candidates: Sequence[Candidate]) -> List[CandidateResult]:
    return [evaluate_candidate(context, c) for c in candidates]


class SerialExecutor(CandidateExecutor):
    """In-process sequential evaluation (the reference implementation)."""

    workers = 1

    def run(self, context: EvaluationContext,
            candidates: Sequence[Candidate]) -> SubmissionReport:
        start = time.perf_counter()
        results = _run_serially(self._apply_backend(context), candidates)
        return SubmissionReport(
            results=results, wall_seconds=time.perf_counter() - start,
        )


class BackendExecutor(SerialExecutor):
    """In-process evaluation on a chosen array backend (device-resident).

    Candidates are scored sequentially in this process, but every reservoir
    sweep and DPRR contraction of every candidate runs on the given
    :mod:`repro.backend` backend — this is the execution mode for a single
    accelerator, where one GPU evaluating dense batched sweeps replaces a
    pool of CPU workers.  The override travels as a *spec string* on the
    submission context, so it composes with the searches unchanged and
    (being picklable) also survives a trip into worker processes.

    Parameters
    ----------
    backend:
        Backend spec (``"torch"``, ``"torch:cuda:1"``, ``"cupy"``,
        ``"numpy"``); ``None`` defers to ``REPRO_BACKEND``.  The spec is
        resolved eagerly, so requesting an uninstalled backend fails at
        construction time, not mid-search.

    With ``backend="numpy"`` this is bit-identical to
    :class:`SerialExecutor` (pinned by ``tests/test_backend.py``): it *is*
    the serial executor, with a spec to stamp.
    """

    def __init__(self, backend: Optional[str] = None):
        from repro.backend import BACKEND_ENV_VAR, resolve_backend

        def resolvable(spec: str) -> str:
            resolve_backend(spec)
            return spec

        #: spec applied to submitted contexts; None means no override
        self.backend_spec = env_knob(backend, BACKEND_ENV_VAR, str, None,
                                     resolvable)
        #: resolved backend (eager, so a missing library fails here)
        self.backend = resolve_backend(self.backend_spec)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BackendExecutor(backend={self.backend.name!r})"


class VectorizedExecutor(CandidateExecutor):
    """Fuse blocks of K candidates into one stacked array program.

    Candidates are chunked into blocks of ``block_size`` and each block is
    evaluated by a *single* reservoir/DPRR sweep with the candidate axis
    stacked in front of the sample axis
    (:meth:`~repro.exec.context.EvaluationContext.evaluate_block`): the
    standardizer, the mask drive, and every batched contraction are shared
    by the whole block instead of being redone per candidate, and on an
    accelerator backend the block is one resident ``(K, N, ...)`` program
    instead of K kernel dispatches.  On the NumPy backend results are
    bit-identical to :class:`SerialExecutor` (pinned by tests).

    Fault isolation is row-wise, and every failure funnels through the
    ordinary serial path so failure *records* match serial execution bit
    for bit: a candidate with non-finite parameters is scored serially up
    front, a candidate whose per-candidate scoring raises inside the block
    is re-scored serially (its row only — a deterministic failure
    reproduces the exact serial record, a transient one recovers), and a
    block whose fused sweep fails outright falls back to serial evaluation
    of all its candidates.

    Parameters
    ----------
    block_size:
        Candidates fused per sweep; ``None`` resolves through
        ``REPRO_CANDIDATE_BLOCK_SIZE`` (default
        ``DEFAULT_CANDIDATE_BLOCK_SIZE``).  Peak trace memory scales
        linearly with the block size.
    backend:
        Optional array-backend spec stamped onto submitted contexts
        (resolved eagerly, so an uninstalled backend fails at construction
        time); ``None`` leaves the context's own backend in place.
    """

    workers = 1
    prefers_batch = True

    def __init__(self, block_size: Optional[int] = None,
                 backend: Optional[str] = None):
        self.block_size = resolve_candidate_block_size(block_size)
        self.backend_spec = backend
        if backend is not None:
            from repro.backend import resolve_backend

            resolve_backend(backend)

    def run(self, context: EvaluationContext,
            candidates: Sequence[Candidate]) -> SubmissionReport:
        start = time.perf_counter()
        context = self._apply_backend(context)
        results: List[Optional[CandidateResult]] = [None] * len(candidates)
        fusable = []
        for pos, candidate in enumerate(candidates):
            if math.isfinite(candidate.A) and math.isfinite(candidate.B):
                fusable.append((pos, candidate))
            else:
                # non-finite parameters would poison the whole stacked
                # sweep; score them serially so they fail exactly as they
                # would under the serial executor
                results[pos] = evaluate_candidate(context, candidate)
        for lo in range(0, len(fusable), self.block_size):
            chunk = fusable[lo:lo + self.block_size]
            block = [candidate for _, candidate in chunk]
            t0 = time.perf_counter()
            try:
                evaluations = context.evaluate_block(block)
            except Exception:
                # a failed fused sweep must not cost any results: evaluate
                # the block's candidates the ordinary serial way instead
                for pos, candidate in chunk:
                    results[pos] = evaluate_candidate(context, candidate)
                continue
            per_candidate = (time.perf_counter() - t0) / len(chunk)
            for (pos, candidate), evaluation in zip(chunk, evaluations):
                if faults.should_corrupt_row(candidate.index):
                    # injected corruption: the fused row cannot be trusted,
                    # so recover it through the same serial re-score path a
                    # genuinely bad row takes — bit-identical by design
                    results[pos] = evaluate_candidate(context, candidate)
                elif evaluation.error is not None:
                    # a row whose scoring raised inside the block is
                    # re-scored through the ordinary serial path: a
                    # deterministic failure reproduces the exact serial
                    # failure record (traceback and all, keeping the
                    # bit-parity invariant for failures too), a transient
                    # one simply recovers
                    results[pos] = evaluate_candidate(context, candidate)
                else:
                    results[pos] = CandidateResult(
                        candidate=candidate, evaluation=evaluation,
                        compute_seconds=per_candidate,
                    )
        return SubmissionReport(
            results=results, wall_seconds=time.perf_counter() - start,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"VectorizedExecutor(block_size={self.block_size})"


# module-level worker state: the context is shipped once per worker via the
# pool initializer instead of once per candidate
_WORKER_CONTEXT: Optional[EvaluationContext] = None
#: in-worker vectorized executor for two-level fusion (None: plain mapping)
_WORKER_VECTORIZED: Optional["VectorizedExecutor"] = None


def _usable_cpus() -> List[int]:
    """The CPUs this process may run on (affinity-aware on Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))  # pragma: no cover - non-Linux


def _start_on(cpu: int) -> None:
    """Move this process onto ``cpu``, then restore its affinity mask.

    A placement, not a pin: the scheduler may still move the process
    later.  Linux places a forked worker by its estimate of each CPU's
    spare capacity, and on a virtual machine whose other vCPU shows steal
    or interrupt time it put every worker of a pool on the same vCPU,
    where two workers ran a grid level slower than one process
    (docs/ARCHITECTURE.md, "Worker processes").
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, allowed)
    except OSError:  # pragma: no cover - cpu left this process's set
        pass


def _init_worker(context: EvaluationContext,
                 vectorized_block_size: Optional[int] = None,
                 placement=None) -> None:
    """Install the shipped context and start on this worker's own CPU.

    ``placement`` is ``(cpus, started)``: the pool's CPU list and a shared
    counter of the workers started so far, which picks this worker's CPU.
    """
    global _WORKER_CONTEXT, _WORKER_VECTORIZED
    if placement is not None:
        cpus, started = placement
        with started.get_lock():
            index = started.value
            started.value += 1
        _start_on(cpus[index % len(cpus)])
    _WORKER_CONTEXT = context
    _WORKER_VECTORIZED = (
        None if vectorized_block_size is None
        else VectorizedExecutor(block_size=vectorized_block_size)
    )


def _worker_evaluate_many(task) -> List[CandidateResult]:
    """Evaluate one dispatch group of candidates in a worker process.

    ``task`` is ``(candidates, attempt)``: the attempt number travels with
    the group so the fault seam — consulted per candidate *before*
    evaluation — stops firing once a re-dispatched group has outlived a
    fault's ``times`` budget.  Ordinary evaluation failures are captured
    by :func:`evaluate_candidate` (data, not infrastructure); only
    injected/transient faults propagate out of this wrapper.
    """
    candidates, attempt = task
    out = []
    for candidate in candidates:
        faults.on_worker_candidate(candidate.index, attempt)
        out.append(evaluate_candidate(_WORKER_CONTEXT, candidate))
    return out


def _worker_evaluate_block(task) -> List[CandidateResult]:
    """Two-level fusion: one worker dispatch evaluates a fused block.

    The in-worker :class:`VectorizedExecutor` runs the block as one stacked
    candidate-axis sweep against the worker-resident context; its row-wise
    fault isolation means a bad candidate fails alone here exactly as it
    would in-process.  ``task`` is ``(candidates, attempt)`` exactly as in
    :func:`_worker_evaluate_many`.
    """
    candidates, attempt = task
    for candidate in candidates:
        faults.on_worker_candidate(candidate.index, attempt)
    return list(_WORKER_VECTORIZED.run(_WORKER_CONTEXT, candidates).results)


class MultiprocessExecutor(CandidateExecutor):
    """Shard candidates across a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    workers:
        Worker count; ``None`` resolves through ``REPRO_WORKERS``.  The
        pool runs ``min(workers, usable cores)`` processes
        (:attr:`processes`): a candidate is CPU-bound, so a process beyond
        the cores adds a fork and a context transfer and no throughput.
        Each process starts on its own core.  Neither choice changes a
        result.
    chunksize:
        Candidates per dispatch *group*; ``None`` picks
        ``ceil(n / (4 * workers))`` — small enough to balance load, large
        enough to amortize IPC.  The group is both the IPC unit and the
        retry / re-dispatch unit of the supervision loop.  Under two-level
        fusion the group is one fused *block* (the block is already the
        IPC granularity).
    vectorized_block_size:
        Two-level fusion (``executor_kind="multiprocess+vectorized"``):
        when set, each worker evaluates its share as fused
        :class:`VectorizedExecutor` blocks of this many candidates —
        process sharding across cores *and* candidate-axis fusion within
        each process (``REPRO_WORKERS`` composes with
        ``REPRO_CANDIDATE_BLOCK_SIZE``).  Results stay bit-identical to
        serial execution on NumPy: both levels preserve candidate order
        and the vectorized level is itself bit-identical to serial.
        ``None`` (default) maps plain per-candidate evaluation.
    max_retries:
        Bounded retry budget per dispatch group (``0`` disables retries).
        A group still failing after the budget resolves to failed
        :class:`CandidateResult` records — the ``failed()`` sentinel
        downstream — instead of sinking (or hanging) the search.
    backoff_ms:
        Base pause before a re-dispatch, doubling per attempt (capped at
        1 s).
    task_timeout_ms:
        Per-dispatch-group timeout; ``0`` (the default) disables it.  An
        overdue group's worker processes are terminated — wedged-worker
        recovery — and the group re-dispatches like any other lost unit.
        While a timeout is set, the supervision loop wakes every 200 ms
        to read the groups' stopwatches.

    The context (data arrays + extractor config) is pickled once per worker
    through the pool initializer; each candidate then costs only a few
    floats of IPC.  The pool persists across :meth:`run` calls that submit
    the *same* context object (e.g. every speculative-annealing round, or
    all levels of one ``search_until``), so repeated submissions pay the
    process spawn and context transfer once.  Submitting a different
    context replaces the pool.  Single-candidate submissions with no live
    pool are evaluated in-process.

    **Supervision.**  Every dispatch group is submitted as a future and
    watched with a heartbeat.  A hard worker crash breaks the pool: all
    in-flight groups are marked lost, the pool is rebuilt, and the lost
    groups re-dispatch (``SubmissionReport.redispatches``).  A transient
    in-worker failure — :class:`~repro.faults.FaultInjected` from the
    fault seam, or any unexpected wrapper exception — retries the same
    way (``SubmissionReport.retries``), with exponential backoff between
    waves.  Because per-candidate seeds derive from the context and
    candidate index alone (never from scheduling), a re-dispatched group
    reproduces exactly what the lost worker would have produced, so a
    recovered run is bit-identical to a fault-free one on NumPy.
    Ordinary evaluation errors are *results* (captured by
    :func:`evaluate_candidate`) and are never retried.

    The executor is a context manager (``with MultiprocessExecutor(...)``)
    and registers with an atexit sweep, so interrupted searches don't
    leak worker processes; call :meth:`close` to release them
    deterministically.
    """

    def __init__(self, workers: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 vectorized_block_size: Optional[int] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
                 task_timeout_ms: float = 0.0):
        self.workers = resolve_workers(workers)
        #: live worker processes: the worker count, capped at usable cores
        self.processes = min(self.workers, len(_usable_cpus()))
        self.chunksize = (None if chunksize is None
                          else check_at_least(chunksize, 1, name="chunksize"))
        self.vectorized_block_size = (
            None if vectorized_block_size is None
            else check_at_least(vectorized_block_size, 1,
                                name="vectorized_block_size"))
        self.max_retries = check_at_least(max_retries, 0, name="max_retries")
        self.backoff_ms = check_at_least(backoff_ms, 0, name="backoff_ms",
                                         cast=float)
        self.task_timeout_ms = check_at_least(
            task_timeout_ms, 0, name="task_timeout_ms", cast=float)
        #: lifetime supervision counters, summed across submissions
        self.total_retries = 0
        self.total_redispatches = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_context: Optional[EvaluationContext] = None
        _LIVE_EXECUTORS.add(self)

    @property
    def prefers_batch(self) -> bool:
        # with a single worker there is no overlap to buy, so speculative
        # callers should hand candidates over lazily, exactly like serial —
        # unless the workers fuse blocks, where a batch buys candidate-axis
        # fusion even on one process
        return self.workers > 1 or self.vectorized_block_size is not None

    def _chunksize(self, n_candidates: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, -(-n_candidates // (4 * self.workers)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_context = None

    def _get_pool(self, context: EvaluationContext) -> ProcessPoolExecutor:
        if self._pool is None or self._pool_context is not context:
            self.close()
            # one CPU per worker, so the pool starts spread over the cores
            placement = (_usable_cpus(), multiprocessing.Value("i", 0))
            self._pool = ProcessPoolExecutor(
                max_workers=self.processes,
                initializer=_init_worker,
                initargs=(context, self.vectorized_block_size, placement),
            )
            self._pool_context = context
        return self._pool

    def _terminate_workers(self) -> bool:
        """Hard-kill the pool's worker processes (wedged-task recovery).

        Termination surfaces as a broken pool, which the supervision loop
        already knows how to recover from.  Returns False when no worker
        processes could be found to kill.
        """
        processes = getattr(self._pool, "_processes", None)
        if not processes:
            return False
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass
        return True

    def _backoff_s(self, attempt: int) -> float:
        if self.backoff_ms <= 0:
            return 0.0
        return min(self.backoff_ms * (2.0 ** max(attempt - 1, 0)), 1000.0) / 1e3

    def run(self, context: EvaluationContext,
            candidates: Sequence[Candidate]) -> SubmissionReport:
        start = time.perf_counter()
        context = self._apply_backend(context)
        reusable = self._pool is not None and self._pool_context is context
        if len(candidates) < 2 and not reusable:
            results = _run_serially(context, candidates)
            return SubmissionReport(
                results=results, wall_seconds=time.perf_counter() - start,
            )
        if self.vectorized_block_size is not None:
            group_size = self.vectorized_block_size
            worker_fn = _worker_evaluate_block
        else:
            group_size = self._chunksize(len(candidates))
            worker_fn = _worker_evaluate_many
        groups = [(lo, list(candidates[lo:lo + group_size]))
                  for lo in range(0, len(candidates), group_size)]
        results: List[Optional[CandidateResult]] = [None] * len(candidates)
        # attempts charge the bounded retry budget and only grow on
        # *attributed* failures; requeues drive backoff and travel to the
        # workers so the fault seam sees every re-dispatch
        attempts: Dict[int, int] = {gi: 0 for gi in range(len(groups))}
        requeues: Dict[int, int] = {gi: 0 for gi in range(len(groups))}
        last_error: Dict[int, str] = {}
        retries = redispatches = 0
        pending: Dict[object, tuple] = {}  # future -> (group idx, t0)
        ready: List[int] = list(range(len(groups)))
        # after a pool break the culprit is unknowable (every in-flight
        # future fails at once), so nobody is charged and re-dispatch runs
        # in probe mode — one group in flight at a time — where a repeat
        # break is attributable to the single running group.  A poisoned
        # group therefore exhausts ITS budget without draining anyone
        # else's, and collateral groups always recover.
        probe = False

        def record(gi: int, group_results: List[CandidateResult]) -> None:
            lo = groups[gi][0]
            for offset, result in enumerate(group_results):
                results[lo + offset] = result

        def give_up(gi: int) -> None:
            for offset, candidate in enumerate(groups[gi][1]):
                results[groups[gi][0] + offset] = CandidateResult(
                    candidate=candidate, evaluation=None,
                    error=last_error.get(gi, "worker lost"),
                )

        timeout_s = (self.task_timeout_ms / 1e3
                     if self.task_timeout_ms > 0 else None)
        while ready or pending:
            while ready and (not probe or not pending):
                gi = ready.pop(0)
                if attempts[gi] > self.max_retries:
                    give_up(gi)
                    continue
                if requeues[gi] > 0:
                    backoff = self._backoff_s(requeues[gi])
                    if backoff > 0:
                        time.sleep(backoff)
                pool = self._get_pool(context)
                fut = pool.submit(
                    worker_fn, (groups[gi][1], requeues[gi]))
                pending[fut] = (gi, time.monotonic())
                if probe:
                    break
            if not pending:
                continue
            beat = _HEARTBEAT_MS / 1e3 if timeout_s is not None else None
            done, _ = wait(set(pending), timeout=beat,
                           return_when=FIRST_COMPLETED)
            if not done and timeout_s is not None:
                now = time.monotonic()
                overdue = [(f, gi) for f, (gi, t0) in pending.items()
                           if now - t0 > timeout_s]
                if overdue:
                    # a hung task is attributable by its own stopwatch:
                    # charge it, then kill the workers — the break is
                    # handled below as an ordinary lost-worker event
                    for _f, gi in overdue:
                        attempts[gi] += 1
                        last_error[gi] = (
                            f"task timed out after {self.task_timeout_ms:g} ms"
                        )
                    if not self._terminate_workers():
                        # pathological fallback (no reachable worker
                        # handles): abandon the overdue futures so the
                        # loop cannot spin forever
                        for fut, gi in overdue:
                            pending.pop(fut)
                            give_up(gi)
                continue
            lost: List[int] = []
            transient: List[int] = []
            broken = False
            for fut in done:
                gi, _t0 = pending.pop(fut)
                try:
                    record(gi, fut.result())
                except BrokenProcessPool as exc:
                    broken = True
                    lost.append(gi)
                    last_error.setdefault(gi, f"worker lost: {exc!r}")
                except Exception as exc:
                    transient.append(gi)
                    attempts[gi] += 1  # attributed: its own future raised
                    last_error[gi] = f"{type(exc).__name__}: {exc}"
            if broken:
                # the pool is unusable: every other in-flight group is
                # lost too (harvest any that finished first), rebuild
                for fut, (gi, _t0) in list(pending.items()):
                    harvested = False
                    if fut.done():
                        try:
                            record(gi, fut.result())
                            harvested = True
                        except Exception as exc:
                            last_error.setdefault(
                                gi, f"worker lost: {exc!r}")
                    else:
                        last_error.setdefault(
                            gi, "worker lost: pool broke mid-flight")
                    if not harvested:
                        lost.append(gi)
                pending.clear()
                self.close()
                if probe and len(lost) == 1:
                    # single-flight probe: the break IS this group's fault
                    attempts[lost[0]] += 1
                probe = True
            for gi in lost:
                redispatches += 1
                requeues[gi] += 1
                ready.append(gi)
            for gi in transient:
                retries += 1
                requeues[gi] += 1
                ready.append(gi)
        self.total_retries += retries
        self.total_redispatches += redispatches
        return SubmissionReport(
            results=results, wall_seconds=time.perf_counter() - start,
            retries=retries, redispatches=redispatches,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        if self.vectorized_block_size is not None:
            return (f"MultiprocessExecutor(workers={self.workers}, "
                    f"vectorized_block_size={self.vectorized_block_size})")
        return f"MultiprocessExecutor(workers={self.workers})"


def make_executor(workers: Optional[int] = None,
                  backend: Optional[str] = None,
                  kind: Optional[str] = None,
                  candidate_block_size: Optional[int] = None,
                  ) -> CandidateExecutor:
    """Build the executor for an effective worker count (and backend).

    An executor ``kind`` — explicit, or forced fleet-wide through the
    ``REPRO_EXECUTOR`` environment variable — wins outright:
    ``"vectorized"`` yields a :class:`VectorizedExecutor` (block size from
    ``candidate_block_size`` / ``REPRO_CANDIDATE_BLOCK_SIZE``),
    ``"multiprocess"`` a :class:`MultiprocessExecutor`,
    ``"multiprocess+vectorized"`` the two-level composition — process
    sharding across ``REPRO_WORKERS`` workers, each evaluating fused
    candidate-axis blocks of ``REPRO_CANDIDATE_BLOCK_SIZE`` — and
    ``"serial"`` the plain serial path.  Without a kind override,
    ``resolve_workers(workers) == 1`` yields a :class:`SerialExecutor` —
    or a :class:`BackendExecutor` when an explicit ``backend`` spec is
    given; anything larger a :class:`MultiprocessExecutor` (workers then
    inherit the backend override through the pickled context).
    """
    kind = resolve_executor_kind(kind)
    n = resolve_workers(workers)
    if kind == "vectorized":
        return VectorizedExecutor(candidate_block_size, backend=backend)
    if kind == "serial" or (kind is None and n == 1):
        if backend is not None:
            return BackendExecutor(backend)
        return SerialExecutor()
    block = (resolve_candidate_block_size(candidate_block_size)
             if kind == "multiprocess+vectorized" else None)
    executor = MultiprocessExecutor(n, vectorized_block_size=block)
    if backend is not None:
        from repro.backend import resolve_backend

        resolve_backend(backend)  # fail fast on an uninstalled backend
        executor.backend_spec = backend
    return executor

"""Continuous-batching scheduler over the fused candidate/batch axes.

The training stack earned its throughput by turning per-candidate,
per-sample Python loops into one fused array program (PR 4/5).  Serving
has the same shape of problem from the other direction: many independent
*streams* trickle chunks in at their own pace, and scoring each chunk
alone wastes the very batch axis the reservoir sweep vectorizes over.

:class:`ServeEngine` closes that gap with continuous batching:

* ``submit()`` appends a chunk to its session's FIFO queue and makes the
  session's head schedulable — nothing is computed on the submit path.
* ``tick()`` asks the :class:`~repro.serve.scheduler.DeadlineScheduler`
  which (pipeline fingerprint, chunk length) buckets are *due* — full, or
  holding a head chunk whose deadline (minus the slack margin) has
  arrived — and launches one fused ``run_streaming`` per due bucket.
  Sessions ride the **batch axis**; when the packed sessions belong to
  *different* deployed models that share a feature pipeline (equal
  :meth:`~repro.serve.model_store.ServableModel.fingerprint`), the models'
  ``(A, B)`` pairs ride the **candidate axis** of the same sweep — one
  ``(K, N, T)`` program serves K heterogeneous models over N streams.
* Each session's resumable reservoir state lives **backend-native** in a
  :class:`~repro.serve.carry.CarryStore` between ticks: the batch is
  assembled device-side before the sweep and sliced back device-side
  after it, and arrays cross to the host only at declared boundaries
  (final features/scores, divergence flags, checkpoints) — so torch/CuPy
  serving pays zero per-tick device-to-host round-trips for resident
  sessions (assertable via ``backend.transfers``).

The tick itself is split into three phases: *prepare* (under the engine
lock: select due buckets, mark their sessions in-flight, assemble inputs
and carries), *sweep* (off-lock: the fused array program — so submits
from other threads, or an asyncio event loop, never wait on compute), and
*commit* (under the lock: advance sessions, store carries, score, resolve
results).  :class:`~repro.serve.async_engine.AsyncServeEngine` builds its
background tick loop on exactly this property.

Batching never changes answers on the NumPy backend: the streaming drive
is evaluated step-wise (chunk- and batch-invariant bits), and every other
op in the sweep — standardization, the per-step element-wise chain, the
``lfilter`` recursion, the DPRR accumulators — is per-sample independent.
A ``max_batch=64`` engine is therefore *bit-identical* to a
``max_batch=1`` engine replaying the same chunks (pinned by tests); the
knobs trade latency against throughput, never correctness.

Scheduling knobs (constructor arguments):

* ``max_batch`` — most sessions per fused sweep (default 32).
* ``deadline_ms`` — default per-chunk deadline budget (default 0: due
  immediately).  Overridable per session (``open_session``) and per chunk
  (``submit``).
* ``slack_margin_ms`` — fire a due bucket this early (``"auto"`` = an
  EWMA of measured sweep durations, so results *land* before deadlines
  instead of starting at them; default 0 preserves the legacy
  fire-at-deadline behavior).
* ``idle_ttl_ms`` — checkpoint-and-evict sessions idle longer than this
  (default 0: never); a submit to an evicted session restores it
  transparently.
* ``max_pending`` — bound on queued chunks per session (default 0:
  unbounded); a submit over the bound raises
  :class:`Backpressure` (the async engine turns that into an awaitable
  wait).  ``max_pending_total`` bounds the engine-wide queue the same way.
* ``sweep_retries`` — fused-sweep attempts per bucket before the engine
  falls back to serial per-session sweeps (default 1 retry); a session
  whose *serial* sweep still fails has its head chunk failed (an
  ``error`` :class:`ChunkResult`), never a hung future.
* ``shed_after_ms`` — optional overload shedding: a deadline chunk whose
  due time is already more than this grace past is dropped with an
  ``Overloaded`` result instead of cascading misses onto the queue behind
  it (default off).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import faults
from repro.backend import default_backend, resolve_backend
from repro.reservoir.modular import StreamingResult, _copy_array
from repro.serve.carry import CarryStore, carry_from_doc
from repro.serve.model_store import ServableModel
from repro.serve.scheduler import DeadlineScheduler
from repro.serve.session import PendingChunk, StreamSession
from repro.utils.validation import check_at_least, check_document

__all__ = [
    "DEFAULT_MAX_BATCH",
    "SESSION_FORMAT",
    "SESSION_FORMAT_VERSION",
    "Backpressure",
    "Overloaded",
    "ChunkResult",
    "TickReport",
    "ServeEngine",
]

DEFAULT_MAX_BATCH = 32


class Backpressure(RuntimeError):
    """A submit would exceed a pending-queue bound.

    The synchronous engine raises this immediately;
    :class:`~repro.serve.async_engine.AsyncServeEngine` catches it and
    awaits queue space instead, so async callers see an awaitable stall,
    never an exception.
    """


class Overloaded(RuntimeError):
    """A chunk was shed because its deadline was hopelessly past.

    Raised from the futures of shed chunks on the async engine; carried
    as the ``error`` of the shed chunk's :class:`ChunkResult` on the
    synchronous one.
    """

#: magic string identifying a serialized session checkpoint
SESSION_FORMAT = "repro-serve-session"
#: session-checkpoint schema version; bump on any field change
SESSION_FORMAT_VERSION = 1

_SESSION_KEYS = {"format", "format_version", "session_id", "model_name",
                 "fingerprint", "n_steps", "next_seq", "deadline_ms",
                 "window", "carry"}


def _check_budget(deadline_ms) -> float:
    """A per-chunk deadline budget in milliseconds: finite and >= 0.

    A budget of 0 means "due immediately": the chunk's deadline equals its
    arrival, every tick fires it, and it is excluded from violation
    accounting — exactly the never-defer default.
    """
    return check_at_least(deadline_ms, 0, name="deadline_ms", cast=float,
                          finite=True)


@dataclass
class ChunkResult:
    """One scored chunk, handed back in completion order."""

    session_id: str
    model_name: str
    seq: int                      # per-session chunk index
    n_steps: int                  # cumulative stream length after this chunk
    features: np.ndarray          # (N_r,) DPRR features of the whole stream
    scores: Optional[np.ndarray]  # (N_y,) readout scores, None w/o readout
    label: Optional[int]          # argmax class, None without a readout
    diverged: bool
    arrival: float                # engine-clock submit time
    completed: float              # engine-clock completion time
    batch_sessions: int           # sessions in the fused sweep that scored it
    batch_models: int             # distinct models on that sweep's candidate axis
    deadline: Optional[float] = None  # absolute due time; None w/o a budget
    error: Optional[str] = None   # failure description; None for a scored chunk
    shed: bool = False            # True: dropped by overload shedding

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.completed - self.arrival) * 1e3

    @property
    def slack_ms(self) -> Optional[float]:
        """Milliseconds to spare against the deadline (negative = missed)."""
        if self.deadline is None:
            return None
        return (self.deadline - self.completed) * 1e3

    @property
    def violated(self) -> bool:
        slack = self.slack_ms
        return slack is not None and slack < 0.0


@dataclass
class TickReport:
    """What one scheduler tick did."""

    processed: int = 0            # chunks completed this tick
    sweeps: int = 0               # fused reservoir sweeps launched
    rows_computed: int = 0        # sum of K * N over the sweeps
    deferred: bool = False        # True: every waiting bucket was held back
    queue_depth: int = 0          # schedulable session heads after the tick
    occupancy: float = 0.0        # processed / (sweeps * max_batch)
    violations: int = 0           # deadline chunks completed past their due
    min_slack_ms: Optional[float] = None  # tightest slack seen this tick
    evicted: int = 0              # idle sessions checkpointed out
    sweep_retries: int = 0        # fused sweeps re-attempted after a failure
    serial_fallbacks: int = 0     # buckets that fell back to serial sweeps
    failed_chunks: int = 0        # head chunks failed after all recovery
    shed: int = 0                 # chunks dropped by overload shedding


class _Deployment:
    """A deployed model plus its rebuilt feature pipeline."""

    __slots__ = ("model", "extractor", "fingerprint", "n_channels",
                 "_readout_native")

    def __init__(self, model: ServableModel, backend_spec: Optional[str]):
        self.model = model
        # rebuild under the *engine's* backend spec (precision suffix
        # included), not the snapshot's preference — one engine, one
        # numerics contract; the snapshot's spec is never resolved
        cfg = model.config
        self.extractor = replace(cfg, backend=backend_spec).build()
        self.fingerprint = model.fingerprint()
        self.n_channels = int(np.asarray(cfg.mask_matrix).shape[1])
        self._readout_native = None

    def readout_native(self, xb) -> tuple:
        """The ridge readout's arrays on the engine backend, cached.

        Uploaded once per deployment (an input-boundary ``asarray``), so
        per-tick scoring stays device-resident.  Kept in the backend's
        double precision to mirror ``RidgeModel.scores`` exactly — on
        NumPy the native scoring path is bit-identical to it.
        """
        if self._readout_native is None:
            r = self.model.readout
            f64 = xb.float64
            self._readout_native = (
                xb.asarray(np.asarray(r.feature_mean), dtype=f64),
                xb.asarray(np.asarray(r.feature_std), dtype=f64),
                xb.asarray(np.asarray(r.coef), dtype=f64),
                xb.asarray(np.asarray(r.intercept), dtype=f64),
            )
        return self._readout_native


class _PlannedBucket:
    """One due bucket, frozen under the lock for an off-lock sweep."""

    __slots__ = ("sids", "t_len", "dep", "model_names", "model_row", "k",
                 "u_std", "a_par", "b_par", "resume", "heads")

    def __init__(self, sids, t_len, dep, model_names, model_row, k, u_std,
                 a_par, b_par, resume, heads):
        self.sids = sids
        self.t_len = t_len
        self.dep = dep
        self.model_names = model_names
        self.model_row = model_row
        self.k = k
        self.u_std = u_std
        self.a_par = a_par
        self.b_par = b_par
        self.resume = resume
        self.heads = heads


class ServeEngine:
    """Streaming inference engine with continuous batching.

    Parameters
    ----------
    max_batch, deadline_ms, slack_margin_ms, idle_ttl_ms, max_pending:
        Scheduling knobs; see the module docstring.
    window:
        Streaming ring width handed to ``run_streaming``.  Every submitted
        chunk must be at least this many steps long (the resumable-state
        ring invariant); serving needs no backprop window, so the default
        1 keeps per-stream state minimal.
    backend:
        Array backend spec for the fused sweeps, its ``@dtype`` suffix
        choosing the precision (``"numpy@float32"``); ``None`` defers to
        ``REPRO_BACKEND``.  The bitwise batched-equals-serial contract
        holds on NumPy; device backends serve under the usual tolerance
        contract.
    clock:
        Monotonic time source (seconds); injectable for deterministic
        scheduling tests (and replaced wholesale by the virtual-clock
        replay mode via :meth:`set_clock`).  Defaults to
        :func:`time.monotonic`.

    All public methods take an internal lock; fused sweeps run *outside*
    it, so submits may race ticks from other threads (or an event loop)
    without waiting on compute.
    """

    def __init__(self, *, max_batch: int = DEFAULT_MAX_BATCH,
                 deadline_ms: float = 0.0,
                 slack_margin_ms=0.0,
                 idle_ttl_ms: float = 0.0,
                 max_pending: int = 0,
                 max_pending_total: int = 0,
                 sweep_retries: int = 1,
                 shed_after_ms: Optional[float] = None,
                 window: int = 1,
                 backend: Optional[str] = None,
                 clock: Optional[Callable[[], float]] = None):
        self.max_batch = check_at_least(max_batch, 1, name="max_batch")
        self.deadline_ms = _check_budget(deadline_ms)
        if slack_margin_ms == "auto":
            self._auto_margin = True
            self._fixed_margin_s = 0.0
        else:
            self._auto_margin = False
            margin = float(slack_margin_ms)
            if not np.isfinite(margin) or margin < 0.0:
                raise ValueError(
                    f"slack_margin_ms must be 'auto' or a finite number "
                    f">= 0, got {slack_margin_ms!r}"
                )
            self._fixed_margin_s = margin / 1e3
        self.idle_ttl_ms = check_at_least(idle_ttl_ms, 0, name="idle_ttl_ms",
                                          cast=float, finite=True)
        self.max_pending = check_at_least(max_pending, 0, name="max_pending")
        self.max_pending_total = check_at_least(max_pending_total, 0,
                                                name="max_pending_total")
        self.sweep_retries = check_at_least(sweep_retries, 0,
                                            name="sweep_retries")
        self.shed_after_ms = (
            0.0 if shed_after_ms is None
            else check_at_least(shed_after_ms, 0, name="shed_after_ms",
                                cast=float, finite=True))
        self.window = check_at_least(window, 1, name="window")
        self._backend_spec = backend
        self.backend = (default_backend() if backend is None
                        else resolve_backend(backend))
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.RLock()
        self._deployments: Dict[str, _Deployment] = {}
        self._sessions: Dict[str, StreamSession] = {}
        self._scheduler = DeadlineScheduler()
        self._carries = CarryStore(self.backend)
        self._evicted: Dict[str, dict] = {}
        #: why a session id is no longer open ("closed" / "evicted") —
        #: what turns the bare KeyError into an actionable error
        self._retired: Dict[str, str] = {}
        self._results: deque = deque()
        self._session_counter = 0
        # lifetime stats
        self.total_ticks = 0
        self.total_sweeps = 0
        self.total_sweep_attempts = 0
        self.total_sweep_retries = 0
        self.total_serial_fallbacks = 0
        self.total_chunks = 0
        self.total_rows_computed = 0
        self.total_deadline_chunks = 0
        self.total_violations = 0
        self.total_evictions = 0
        self.total_restores = 0
        self.total_failed_chunks = 0
        self.total_shed = 0
        self.total_backpressure = 0
        self.min_slack_ms: Optional[float] = None

    @property
    def margin_s(self) -> float:
        """Current slack margin in seconds (EWMA when ``"auto"``)."""
        if self._auto_margin:
            return self._scheduler.sweep_ewma_s
        return self._fixed_margin_s

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Swap the engine's time source (virtual-clock replay mode)."""
        with self._lock:
            self._clock = clock

    def now(self) -> float:
        """The engine clock's current reading (seconds)."""
        return self._clock()

    # -------------------------------------------------------------- #
    # deployment / session lifecycle
    # -------------------------------------------------------------- #

    def deploy(self, model: ServableModel) -> str:
        """Register a model for serving; returns its deployment name."""
        with self._lock:
            if model.name in self._deployments:
                raise ValueError(f"model {model.name!r} is already deployed")
            dep = _Deployment(model, self._backend_spec)
            self._deployments[model.name] = dep
            return model.name

    def models(self) -> List[str]:
        with self._lock:
            return list(self._deployments)

    def sessions(self) -> List[str]:
        """Ids of the currently open (non-evicted) sessions."""
        with self._lock:
            return list(self._sessions)

    def open_session(self, model_name: str, *,
                     deadline_ms: Optional[float] = None) -> str:
        """Open a stream against a deployed model; returns the session id.

        ``deadline_ms`` sets this session's default per-chunk budget;
        ``None`` inherits the engine default.
        """
        with self._lock:
            if model_name not in self._deployments:
                raise KeyError(f"no deployed model named {model_name!r}")
            budget = (self.deadline_ms if deadline_ms is None
                      else _check_budget(deadline_ms))
            self._session_counter += 1
            session_id = f"s{self._session_counter:05d}"
            self._sessions[session_id] = StreamSession(
                session_id, model_name, deadline_ms=budget,
                opened_at=self._clock(),
            )
            return session_id

    def close_session(self, session_id: str, *, discard: bool = False) -> None:
        """Retire a session; refuses while chunks are pending unless told."""
        with self._lock:
            if session_id in self._evicted and session_id not in self._sessions:
                del self._evicted[session_id]
                return
            sess = self._session(session_id)
            if (sess.pending or sess.in_flight) and not discard:
                raise RuntimeError(
                    f"session {session_id!r} has {len(sess.pending)} pending "
                    f"chunk(s); drain() first or pass discard=True"
                )
            self._scheduler.remove(session_id)
            sess.closed = True
            self._carries.pop(session_id)
            del self._sessions[session_id]
            self._retire(session_id, "closed")

    def submit(self, session_id: str, chunk: np.ndarray, *,
               deadline_ms: Optional[float] = None) -> int:
        """Queue a ``(T, C)`` chunk on a session; returns its sequence no.

        Nothing is computed here — the chunk waits for the next
        :meth:`tick`.  ``T`` must be at least the engine ``window`` (every
        resumed chunk has to fill the state ring) and ``C`` must match the
        model's channel count.  ``deadline_ms`` overrides the session's
        default budget for this chunk only.  Submitting to an evicted
        session restores it transparently from its checkpoint.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2:
            raise ValueError(
                f"chunk must be (T, C), got shape {chunk.shape}"
            )
        with self._lock:
            if session_id in self._evicted and session_id not in self._sessions:
                self.restore_session(self._evicted[session_id])
            sess = self._session(session_id)
            dep = self._deployments[sess.model_name]
            if chunk.shape[1] != dep.n_channels:
                raise ValueError(
                    f"chunk has {chunk.shape[1]} channels, model "
                    f"{sess.model_name!r} expects {dep.n_channels}"
                )
            if chunk.shape[0] < self.window:
                raise ValueError(
                    f"chunk has {chunk.shape[0]} steps, need >= window="
                    f"{self.window} (streaming ring invariant)"
                )
            if self.max_pending > 0 and len(sess.pending) >= self.max_pending:
                self.total_backpressure += 1
                raise Backpressure(
                    f"session {session_id!r} already queues "
                    f"{len(sess.pending)} chunk(s) (max_pending="
                    f"{self.max_pending}); tick/drain the engine or raise "
                    f"max_pending"
                )
            if self.max_pending_total > 0:
                queued = sum(len(s.pending) for s in self._sessions.values())
                if queued >= self.max_pending_total:
                    self.total_backpressure += 1
                    raise Backpressure(
                        f"engine already queues {queued} chunk(s) across "
                        f"sessions (max_pending_total="
                        f"{self.max_pending_total})"
                    )
            budget = (sess.deadline_ms if deadline_ms is None
                      else _check_budget(deadline_ms))
            pending = sess.enqueue(chunk, self._clock(), budget)
            if len(sess.pending) == 1 and not sess.in_flight:
                self._schedule_head(sess)
            return pending.seq

    # -------------------------------------------------------------- #
    # checkpoint / restore / eviction
    # -------------------------------------------------------------- #

    def checkpoint_session(self, session_id: str) -> dict:
        """Snapshot an idle session as a versioned JSON-ready document.

        The carry crosses the backend seam once (a declared boundary) as
        float64 lists; on NumPy the round trip through
        :meth:`restore_session` is bit-exact (CPython ``json`` preserves
        finite doubles).  Refuses while chunks are pending or in flight —
        a checkpoint must capture a quiescent stream.
        """
        with self._lock:
            sess = self._session(session_id)
            if sess.pending or sess.in_flight:
                raise RuntimeError(
                    f"session {session_id!r} has pending or in-flight "
                    f"chunks; drain() before checkpointing"
                )
            dep = self._deployments[sess.model_name]
            return {
                "format": SESSION_FORMAT,
                "format_version": SESSION_FORMAT_VERSION,
                "session_id": sess.session_id,
                "model_name": sess.model_name,
                "fingerprint": dep.fingerprint,
                "n_steps": int(sess.n_steps),
                "next_seq": int(sess.next_seq),
                "deadline_ms": float(sess.deadline_ms),
                "window": int(self.window),
                "carry": self._carries.to_host_doc(session_id),
            }

    def restore_session(self, doc: dict) -> str:
        """Re-open a checkpointed session; strict on schema and pipeline.

        The document must target a *currently deployed* model whose
        pipeline fingerprint matches the checkpoint — restoring a carry
        into different numerics would serve subtly wrong scores — and
        whose carry fits the engine window and the model's node count.
        Every check runs before the session is registered, so a refused
        restore leaves the engine unchanged.
        """
        check_document(doc, _SESSION_KEYS, what="session document",
                       fmt=SESSION_FORMAT, version=SESSION_FORMAT_VERSION)
        with self._lock:
            session_id = str(doc["session_id"])
            if session_id in self._sessions:
                raise ValueError(
                    f"session {session_id!r} is already open"
                )
            model_name = str(doc["model_name"])
            dep = self._deployments.get(model_name)
            if dep is None:
                raise KeyError(
                    f"checkpoint targets model {model_name!r}, which is "
                    f"not deployed"
                )
            if doc["fingerprint"] != dep.fingerprint:
                raise ValueError(
                    f"checkpoint fingerprint does not match the deployed "
                    f"{model_name!r} pipeline; refusing to restore a carry "
                    f"into different numerics"
                )
            if int(doc["window"]) != self.window:
                raise ValueError(
                    f"checkpoint was taken at window {doc['window']}, "
                    f"engine runs window {self.window}"
                )
            carry = carry_from_doc(self.backend, doc["carry"])
            if carry is not None:
                w, nx = self.window, int(dep.model.config.n_nodes)
                want = [(w + 1, nx), (w, nx), (nx, nx), (nx,)]
                got = [tuple(a.shape[1:]) for a in (
                    carry.window_states, carry.window_pre_activations,
                    *carry.dprr_sums)]
                if got != want:
                    raise ValueError(
                        f"checkpoint carry shapes {got} (ring, "
                        f"pre-activations, p_sum, s_sum) do not fit window "
                        f"{w} and {nx} nodes; expected {want}"
                    )
            sess = StreamSession(
                session_id, model_name,
                deadline_ms=float(doc["deadline_ms"]),
                opened_at=self._clock(),
            )
            sess.n_steps = int(doc["n_steps"])
            sess.next_seq = int(doc["next_seq"])
            self._sessions[session_id] = sess
            if carry is not None:
                self._carries.put(session_id, carry)
            self._evicted.pop(session_id, None)
            self._retired.pop(session_id, None)
            self.total_restores += 1
            # keep the id space collision-free after restores
            try:
                numeric = int(session_id.lstrip("s"))
            except ValueError:
                numeric = 0
            self._session_counter = max(self._session_counter, numeric)
            return session_id

    def evicted_sessions(self) -> List[str]:
        """Ids currently parked as eviction checkpoints."""
        with self._lock:
            return list(self._evicted)

    def _evict_idle(self, report: TickReport) -> None:
        """Checkpoint-and-drop sessions idle beyond ``idle_ttl_ms``."""
        if self.idle_ttl_ms <= 0.0:
            return
        now = self._clock()
        for sid in list(self._sessions):
            sess = self._sessions[sid]
            if sess.pending or sess.in_flight:
                continue
            if (now - sess.last_active) * 1e3 < self.idle_ttl_ms:
                continue
            self._evicted[sid] = self.checkpoint_session(sid)
            self._scheduler.remove(sid)
            self._carries.pop(sid)
            del self._sessions[sid]
            self._retire(sid, "evicted")
            report.evicted += 1
            self.total_evictions += 1

    # -------------------------------------------------------------- #
    # scheduling
    # -------------------------------------------------------------- #

    def tick(self, *, force: bool = False) -> TickReport:
        """Run one scheduler step: pack due buckets, sweep, score.

        The :class:`~repro.serve.scheduler.DeadlineScheduler` yields every
        due (pipeline fingerprint, chunk length) bucket — full, past its
        earliest deadline minus the slack margin, or forced — each as at
        most ``max_batch`` session heads in earliest-deadline-first order,
        and each bucket becomes one fused ``run_streaming`` sweep.  The
        sweeps run *outside* the engine lock (prepare/commit bracket them
        under it), so concurrent submits never wait on compute.

        A failed fused sweep is retried up to ``sweep_retries`` times
        (re-preparing from the untouched carries each time), then the
        bucket falls back to serial per-session sweeps; a session whose
        serial sweep still fails has its head chunk failed as an
        ``error`` :class:`ChunkResult` — one poisoned stream never sinks
        its batch, and no failure mode leaves a chunk in limbo.
        """
        report = TickReport()
        with self._lock:
            tick_ordinal = self.total_ticks
            self.total_ticks += 1
        delay = faults.tick_delay_s(tick_ordinal)
        if delay > 0.0:
            self._apply_delay(delay)
        with self._lock:
            self._evict_idle(report)
            self._shed_overdue(report)
            report.queue_depth = len(self._scheduler)
            if not self._scheduler:
                return report
            now = self._clock()
            plan, held = self._scheduler.select(
                now, force=force, max_batch=self.max_batch,
                margin_s=self.margin_s,
            )
            if not plan:
                report.deferred = held
                return report
        for _, sids in plan:
            self._run_bucket(sids, report)
        with self._lock:
            report.queue_depth = len(self._scheduler)
            if report.sweeps:
                report.occupancy = report.processed / (
                    report.sweeps * self.max_batch)
            self.total_sweeps += report.sweeps
            self.total_chunks += report.processed
            self.total_rows_computed += report.rows_computed
            self.total_violations += report.violations
            if report.min_slack_ms is not None:
                if (self.min_slack_ms is None
                        or report.min_slack_ms < self.min_slack_ms):
                    self.min_slack_ms = report.min_slack_ms
        return report

    def drain(self) -> List[TickReport]:
        """Force ticks until no session has pending or in-flight chunks."""
        reports = []
        while True:
            with self._lock:
                busy = len(self._scheduler) > 0 or any(
                    sess.in_flight or sess.pending
                    for sess in self._sessions.values()
                )
                if not busy:
                    return reports
            reports.append(self.tick(force=True))

    def next_deadline(self) -> Optional[float]:
        """Earliest schedulable deadline (engine-clock), or ``None``.

        The async tick loop sleeps until ``next_deadline() - margin_s``
        instead of polling.
        """
        with self._lock:
            return self._scheduler.next_deadline()

    def pop_results(self) -> List[ChunkResult]:
        """All completed chunk results since the last call, in order."""
        with self._lock:
            out = list(self._results)
            self._results.clear()
            return out

    def stats(self) -> dict:
        """Lifetime scheduling counters (occupancy, deadlines, residency)."""
        with self._lock:
            denom = self.total_sweeps * self.max_batch
            return {
                "ticks": self.total_ticks,
                "sweeps": self.total_sweeps,
                "chunks": self.total_chunks,
                "rows_computed": self.total_rows_computed,
                "mean_occupancy": (self.total_chunks / denom) if denom else 0.0,
                "deadline_chunks": self.total_deadline_chunks,
                "violations": self.total_violations,
                "min_slack_ms": self.min_slack_ms,
                "evictions": self.total_evictions,
                "restores": self.total_restores,
                "sweep_attempts": self.total_sweep_attempts,
                "sweep_retries": self.total_sweep_retries,
                "serial_fallbacks": self.total_serial_fallbacks,
                "failed_chunks": self.total_failed_chunks,
                "shed": self.total_shed,
                "backpressure": self.total_backpressure,
                "carry_domain": self._carries.key,
                "transfers": self.backend.transfers.as_dict(),
            }

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #

    def _retire(self, session_id: str, reason: str) -> None:
        """Remember why an id is gone (bounded: oldest entries roll off)."""
        self._retired[session_id] = reason
        while len(self._retired) > 4096:
            self._retired.pop(next(iter(self._retired)))

    def _session(self, session_id: str) -> StreamSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            pass
        if session_id in self._evicted:
            raise KeyError(
                f"session {session_id!r} was evicted by the idle TTL "
                f"(idle_ttl_ms={self.idle_ttl_ms:g}) but its checkpoint is "
                f"still held: submit() restores it transparently, or call "
                f"restore_session() explicitly"
            )
        reason = self._retired.get(session_id)
        if reason == "evicted":
            raise KeyError(
                f"session {session_id!r} was evicted by the idle TTL "
                f"(idle_ttl_ms={self.idle_ttl_ms:g}) and the engine no "
                f"longer holds its checkpoint; re-open it with "
                f"restore_session(checkpoint) from a saved checkpoint, or "
                f"raise idle_ttl_ms to keep idle sessions resident longer"
            )
        if reason == "closed":
            raise KeyError(
                f"session {session_id!r} was closed; open_session() starts "
                f"a new stream, restore_session(checkpoint) resumes a "
                f"checkpointed one"
            )
        raise KeyError(f"no open session {session_id!r}")

    def _schedule_head(self, sess: StreamSession) -> None:
        """Make a session's (new) head chunk schedulable."""
        dep = self._deployments[sess.model_name]
        key = (dep.fingerprint, sess.head.t_len)
        self._scheduler.enqueue(sess.session_id, key, sess.head.deadline)

    def _prepare_bucket(self, sids: List[str]) -> _PlannedBucket:
        """Freeze one due bucket for an off-lock sweep (lock held).

        Marks every taken session in-flight, stacks the head chunks,
        standardizes them, builds the candidate-axis parameter stacks, and
        assembles the backend-native resume state.
        """
        sessions = [self._sessions[sid] for sid in sids]
        dep = self._deployments[sessions[0].model_name]
        # distinct models of the bucket -> candidate axis (stable order)
        model_names: List[str] = []
        for sess in sessions:
            if sess.model_name not in model_names:
                model_names.append(sess.model_name)
        k = len(model_names)
        model_row = {name: i for i, name in enumerate(model_names)}
        t_len = sessions[0].head.t_len
        chunks = np.stack([sess.head.data for sess in sessions])  # (m, T, C)
        u_std = dep.extractor.standardizer.transform(chunks)
        if k == 1:
            a_par, b_par = dep.model.A, dep.model.B
            lead = (len(sessions),)
        else:
            deps = [self._deployments[name] for name in model_names]
            a_par = np.array([d.model.A for d in deps])
            b_par = np.array([d.model.B for d in deps])
            lead = (k, len(sessions))
        resume = self._assemble_carry(sessions, lead)
        heads = [sess.head for sess in sessions]
        for sess in sessions:
            sess.in_flight = True
        return _PlannedBucket(sids, t_len, dep, model_names, model_row, k,
                              u_std, a_par, b_par, resume, heads)

    def _apply_delay(self, seconds: float) -> None:
        """Serve an injected ``delay_tick`` fault.

        A virtual clock (replay mode) advances logically so no real time
        passes; a wall clock sleeps.  Either way the delay is visible to
        deadline accounting, which is the point of the fault.
        """
        advance = getattr(self._clock, "advance", None)
        if callable(advance):
            advance(seconds)
        else:
            time.sleep(seconds)

    def _shed_overdue(self, report: TickReport) -> None:
        """Drop hopelessly-late deadline chunks as ``Overloaded`` (lock held).

        A head whose deadline is already more than ``shed_after_ms`` past
        cannot be served on time, and sweeping it anyway cascades misses
        onto every chunk queued behind it.  Shedding emits an ``error``
        result (``shed=True``) without touching the carry — the stream
        just has a gap.  Chunks without a deadline budget are never shed.
        """
        if self.shed_after_ms <= 0.0:
            return
        while True:
            now = self._clock()
            cutoff = now - self.shed_after_ms / 1e3
            shed_any = False
            for sid in self._scheduler.overdue(cutoff):
                sess = self._sessions.get(sid)
                if (sess is None or sess.in_flight or not sess.pending
                        or not sess.head.has_deadline):
                    continue
                self._drop_head_as_error(
                    sess, now,
                    f"Overloaded: chunk seq={sess.head.seq} missed its "
                    f"deadline by more than shed_after_ms="
                    f"{self.shed_after_ms:g}; shed without compute",
                    shed=True,
                )
                report.shed += 1
                self.total_shed += 1
                shed_any = True
            if not shed_any:
                return

    def _take_bucket(self, sids: List[str]) -> Optional[_PlannedBucket]:
        """(Re-)claim a bucket's sessions for a sweep attempt (lock held).

        Sessions that vanished between attempts (closed, evicted, or shed
        down to an empty queue) are silently dropped; returns ``None``
        when nothing is left to sweep.  Retries re-prepare from the
        untouched :class:`~repro.serve.carry.CarryStore`, so a failed
        attempt can never leak partial state into the next one.
        """
        live: List[str] = []
        for sid in sids:
            sess = self._sessions.get(sid)
            if sess is None or sess.in_flight or not sess.pending:
                continue
            self._scheduler.remove(sid)
            live.append(sid)
        if not live:
            return None
        return self._prepare_bucket(live)

    def _run_bucket(self, sids: List[str], report: TickReport) -> None:
        """Sweep one due bucket with bounded retry and serial fallback.

        Up to ``1 + sweep_retries`` fused attempts; then each session is
        swept serially so one poisoned stream cannot sink its batchmates;
        a session whose serial sweep still fails has its head chunk
        resolved as an ``error`` result via :meth:`_fail_head`.  Every
        path either commits or resolves each taken chunk — nothing is
        left in flight.
        """
        for attempt in range(1 + self.sweep_retries):
            with self._lock:
                prep = self._take_bucket(sids)
            if prep is None:
                return
            t0 = self._clock()
            try:
                result = self._sweep(prep)
            except Exception:
                with self._lock:
                    self._abort_bucket(prep)
                    if attempt < self.sweep_retries:
                        report.sweep_retries += 1
                        self.total_sweep_retries += 1
                continue
            except BaseException:
                with self._lock:
                    self._abort_bucket(prep)
                raise
            elapsed = self._clock() - t0
            with self._lock:
                if self._auto_margin:
                    self._scheduler.observe_sweep(elapsed)
                self._commit_bucket(prep, result, report)
            return
        with self._lock:
            report.serial_fallbacks += 1
            self.total_serial_fallbacks += 1
        for sid in sids:
            with self._lock:
                prep = self._take_bucket([sid])
            if prep is None:
                continue
            try:
                result = self._sweep(prep)
            except Exception as exc:
                with self._lock:
                    self._abort_bucket(prep)
                    self._fail_head(sid, exc, report)
                continue
            except BaseException:
                with self._lock:
                    self._abort_bucket(prep)
                raise
            with self._lock:
                self._commit_bucket(prep, result, report)

    def _fail_head(self, session_id: str, error: BaseException,
                   report: TickReport) -> None:
        """Resolve a session's head chunk as failed (lock held).

        The carry is untouched (the reservoir never consumed the chunk),
        so the stream continues from the state the failed chunk found —
        the same gap semantics as shedding, but attributed to the sweep
        error instead of overload.
        """
        sess = self._sessions.get(session_id)
        if sess is None or not sess.pending:
            return
        self._drop_head_as_error(
            sess, self._clock(),
            f"sweep failed after {1 + self.sweep_retries} fused "
            f"attempt(s) and a serial retry: "
            f"{type(error).__name__}: {error}",
        )
        report.failed_chunks += 1
        self.total_failed_chunks += 1

    def _drop_head_as_error(self, sess: StreamSession, now: float, error: str,
                            *, shed: bool = False) -> None:
        """Resolve ``sess``'s head chunk as an ``error`` result (lock held).

        The shed and failed-sweep paths share it; the carry is untouched.
        """
        self._scheduler.remove(sess.session_id)
        chunk = sess.drop_head(now)
        self._results.append(ChunkResult(
            session_id=sess.session_id,
            model_name=sess.model_name,
            seq=chunk.seq,
            n_steps=sess.n_steps,
            features=np.zeros(0),
            scores=None,
            label=None,
            diverged=False,
            arrival=chunk.arrival,
            completed=now,
            batch_sessions=0,
            batch_models=0,
            deadline=chunk.deadline if chunk.has_deadline else None,
            error=error,
            shed=shed,
        ))
        if sess.pending:
            self._schedule_head(sess)

    def _sweep(self, prep: _PlannedBucket) -> StreamingResult:
        """The fused array program of one bucket (no lock held)."""
        with self._lock:
            ordinal = self.total_sweep_attempts
            self.total_sweep_attempts += 1
        faults.maybe_raise_sweep(ordinal)
        return prep.dep.extractor.reservoir.run_streaming(
            prep.u_std, prep.a_par, prep.b_par, window=self.window,
            backend=self.backend, resume=prep.resume,
        )

    def _abort_bucket(self, prep: _PlannedBucket) -> None:
        """A sweep failed: put its sessions back where they were (lock held)."""
        for sid in prep.sids:
            sess = self._sessions.get(sid)
            if sess is None:
                continue
            sess.in_flight = False
            if sess.pending and sid not in self._scheduler:
                self._schedule_head(sess)

    def _commit_bucket(self, prep: _PlannedBucket, result: StreamingResult,
                       report: TickReport) -> None:
        """Slice one sweep back into sessions and results (lock held).

        Per-session carries are sliced *device-side* (a same-device copy,
        never a host transfer) and features/scores are computed natively;
        arrays cross to the host only through ``to_numpy_boundary`` when
        the :class:`ChunkResult` is materialized.
        """
        xb = self.backend
        states = result.window_states
        pres = result.window_pre_activations
        p_acc, s_acc = result.dprr_sums
        diverged = np.asarray(result.diverged, dtype=bool)
        k = prep.k
        m = len(prep.sids)
        completed = self._clock()
        for i, sid in enumerate(prep.sids):
            sess = self._sessions.get(sid)
            if sess is None or sess.closed:
                continue  # closed (discarded) while the sweep ran
            row = ((prep.model_row[sess.model_name], i) if k > 1 else (i,))
            carry = StreamingResult(
                window_states=_copy_array(states[row])[None],
                window_pre_activations=_copy_array(pres[row])[None],
                dprr_sums=(_copy_array(p_acc[row])[None],
                           _copy_array(s_acc[row])[None]),
                diverged=np.array([diverged[row]]),
                n_steps=sess.n_steps + prep.t_len,
            )
            chunk = sess.advance(prep.t_len, completed)
            sess.in_flight = False
            self._carries.put(sid, carry)
            dep = self._deployments[sess.model_name]
            feats_native = dep.extractor.dprr.features(carry)  # (1, N_r)
            is_diverged = bool(carry.diverged[0])
            readout = dep.model.readout
            if readout is not None and not is_diverged:
                mean, std, coef, intercept = dep.readout_native(xb)
                z = (xb.asarray(feats_native, dtype=xb.float64) - mean) / std
                scores_native = z @ coef + intercept
                scores = np.asarray(xb.to_numpy_boundary(scores_native))[0]
                label = int(scores.argmax())
            else:
                scores, label = None, None
            feats = np.asarray(xb.to_numpy_boundary(feats_native))[0]
            if chunk.has_deadline:
                slack_ms = (chunk.deadline - completed) * 1e3
                self.total_deadline_chunks += 1
                if slack_ms < 0.0:
                    report.violations += 1
                if (report.min_slack_ms is None
                        or slack_ms < report.min_slack_ms):
                    report.min_slack_ms = slack_ms
            self._results.append(ChunkResult(
                session_id=sess.session_id,
                model_name=sess.model_name,
                seq=chunk.seq,
                n_steps=sess.n_steps,
                features=feats,
                scores=scores,
                label=label,
                diverged=is_diverged,
                arrival=chunk.arrival,
                completed=completed,
                batch_sessions=m,
                batch_models=k,
                deadline=chunk.deadline if chunk.has_deadline else None,
            ))
            report.processed += 1
            if sess.pending:
                self._schedule_head(sess)
        report.sweeps += 1
        report.rows_computed += k * m

    def _assemble_carry(self, sessions: List[StreamSession], lead: tuple
                        ) -> Optional[StreamingResult]:
        """Pack per-session carries into one resumable batch state.

        Fresh sessions (no carry yet) contribute zero rows — exactly the
        fresh-start initial state — so new and resumed streams mix freely
        in one sweep.  For a stacked (K-model) sweep each session's batch-1
        carry is replicated across all K candidate rows; only the row of
        the session's own model is read back afterwards.  All assembly is
        backend-native (the carries already live on the engine backend);
        returns ``None`` when every session is fresh (the plain
        fresh-start path).
        """
        carries = [self._carries.get(sess.session_id) for sess in sessions]
        if all(c is None for c in carries):
            return None
        xb = self.backend
        w = self.window
        nx = int(self._deployments[sessions[0].model_name].model.config.n_nodes)
        stacked = len(lead) == 2
        ring = xb.zeros(lead + (w + 1, nx))
        pre_ring = xb.zeros(lead + (w, nx))
        p_acc = xb.zeros(lead + (nx, nx))
        s_acc = xb.zeros(lead + (nx,))
        diverged = np.zeros(lead, dtype=bool)
        for i, (sess, c) in enumerate(zip(sessions, carries)):
            if c is None:
                continue
            if c.window != w:
                raise ValueError(
                    f"session {sess.session_id!r} carries window "
                    f"{c.window}, engine runs window {w}"
                )
            row = (slice(None), i) if stacked else (i,)
            # broadcast the batch-1 carry across the candidate rows (the
            # trailing dims align; the K axis, when present, replicates)
            ring[row] = c.window_states[0]
            pre_ring[row] = c.window_pre_activations[0]
            p_acc[row] = c.dprr_sums[0][0]
            s_acc[row] = c.dprr_sums[1][0]
            diverged[row] = bool(np.asarray(c.diverged)[0])
        return StreamingResult(
            window_states=ring,
            window_pre_activations=pre_ring,
            dprr_sums=(p_acc, s_acc),
            diverged=diverged,
            n_steps=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ServeEngine(max_batch={self.max_batch}, "
            f"deadline_ms={self.deadline_ms}, window={self.window}, "
            f"backend={self.backend.name!r}, "
            f"models={len(self._deployments)}, "
            f"sessions={len(self._sessions)})"
        )

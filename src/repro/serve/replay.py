"""Seeded traffic replay and latency accounting for the serving engine.

A :class:`ReplayTrace` is a fully deterministic description of load: each
of ``n_sessions`` streams opens against a model and emits
``chunks_per_session`` chunks whose inter-arrival gaps are exponential
(per-stream Poisson arrivals) and whose sample data comes from the same
seeded generator.  Replaying the identical trace through two differently
configured engines is therefore an apples-to-apples comparison — and
because batching is bit-stable on NumPy, their *outputs* must match
exactly even though their batch compositions differ.

:func:`replay` drives an engine with the trace in (compressed) real time:
submit every chunk whose arrival has passed, tick, repeat.  Latency is
wall-clock from submit to completion; throughput counts whole sessions
retired per second.

Two additional drivers share the trace format:

* ``replay(..., clock="virtual")`` replays on a :class:`VirtualClock`
  instead of the wall: time jumps straight from one arrival or deadline
  to the next, so a trace that *describes* seconds of traffic replays in
  milliseconds of CPU with fully deterministic latencies — deadline
  semantics (EDF packing, slack-margin firing, violations) are exercised
  exactly, which is what the replay tests pin;
* :func:`replay_async` drives an :class:`~repro.serve.async_engine.
  AsyncServeEngine` on the real clock: arrivals become ``asyncio.sleep``
  delays and completions are awaited futures, measuring what the
  background tick loop actually delivers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import faults
from repro.serve.engine import ChunkResult, ServeEngine
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["TraceEvent", "ReplayTrace", "poisson_trace", "spec_trace",
           "ReplayReport", "VirtualClock", "replay", "replay_async"]


class VirtualClock:
    """A manually advanced, monotonic time source for deterministic replay.

    Calling it reads the current virtual time (seconds); :meth:`set`
    moves forward to an absolute time (backward moves are ignored — the
    clock never violates monotonicity) and :meth:`advance` steps by a
    delta.  Handed to :meth:`ServeEngine.set_clock`, it makes every
    arrival stamp, deadline and latency a pure function of the trace.
    """

    __slots__ = ("now_s",)

    def __init__(self, start: float = 0.0):
        self.now_s = float(start)

    def __call__(self) -> float:
        return self.now_s

    def set(self, t: float) -> None:
        t = float(t)
        if t > self.now_s:
            self.now_s = t

    def advance(self, dt: float) -> None:
        dt = float(dt)
        if dt < 0.0:
            raise ValueError(f"cannot advance a clock backward by {dt}")
        self.now_s += dt


@dataclass
class TraceEvent:
    """One chunk arrival: stream index, offset seconds, payload."""

    t: float                # arrival offset from trace start (seconds)
    stream: int             # index into ReplayTrace.stream_models
    seq: int                # per-stream chunk number
    data: np.ndarray        # (T, C) input chunk


@dataclass
class ReplayTrace:
    """A deterministic arrival schedule over a set of streams."""

    stream_models: List[str]    # model name per stream
    events: List[TraceEvent]    # sorted by arrival offset
    rate_hz: float
    seed: int

    @property
    def n_sessions(self) -> int:
        return len(self.stream_models)

    @property
    def n_chunks(self) -> int:
        return len(self.events)


def poisson_trace(
    model_names: Sequence[str],
    *,
    n_sessions: int,
    chunks_per_session: int,
    chunk_len: int,
    n_channels: int,
    rate_hz: float = 200.0,
    seed: SeedLike = 0,
) -> ReplayTrace:
    """Build a seeded Poisson-arrival trace.

    Each stream is assigned a model round-robin from ``model_names``, opens
    at an exponential offset from the trace start, and emits its chunks
    with exponential inter-arrival gaps of mean ``1 / rate_hz`` seconds.
    Chunk samples are standard-normal draws from the same seeded generator,
    so two calls with equal arguments yield byte-identical traces.
    """
    if n_sessions < 1 or chunks_per_session < 1:
        raise ValueError("need at least one session and one chunk each")
    if chunk_len < 1 or n_channels < 1:
        raise ValueError("chunk_len and n_channels must be >= 1")
    if not np.isfinite(rate_hz) or rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz!r}")
    rng = ensure_rng(seed)
    stream_models = [model_names[i % len(model_names)]
                     for i in range(n_sessions)]
    events: List[TraceEvent] = []
    for stream in range(n_sessions):
        t = 0.0
        for seq in range(chunks_per_session):
            t += float(rng.exponential(1.0 / rate_hz))
            data = rng.standard_normal((chunk_len, n_channels))
            events.append(TraceEvent(t=t, stream=stream, seq=seq, data=data))
    # stable sort: simultaneous arrivals keep stream order deterministic
    events.sort(key=lambda e: (e.t, e.stream, e.seq))
    seed_tag = int(seed) if isinstance(seed, (int, np.integer)) else -1
    return ReplayTrace(stream_models=stream_models, events=events,
                       rate_hz=float(rate_hz), seed=seed_tag)


def _primary_series(arrays: Dict[str, np.ndarray]) -> np.ndarray:
    """Pick the input series from a generator's array dict as ``(T, C)``."""
    for key in ("u", "x"):
        if key in arrays:
            arr = np.asarray(arrays[key], dtype=np.float64)
            break
    else:
        floats = [k for k, v in arrays.items()
                  if np.issubdtype(np.asarray(v).dtype, np.floating)]
        if not floats:
            raise ValueError(
                f"no float array to serve in generator output: {sorted(arrays)}"
            )
        arr = np.asarray(arrays[floats[0]], dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected a (T,) or (T, C) series, got {arr.shape}")
    return arr


def spec_trace(
    model_names: Sequence[str],
    spec,
    *,
    n_sessions: int,
    chunks_per_session: int,
    chunk_len: int,
    rate_hz: float = 200.0,
    seed: SeedLike = 0,
) -> ReplayTrace:
    """Build a Poisson-arrival trace fed by a registry dataset spec.

    Like :func:`poisson_trace`, but instead of white noise each stream
    replays a *series-kind* :class:`~repro.data.registry.GeneratorSpec`
    (e.g. ``narma``, ``mackey_glass``, ``eeg_pink``, ``am_fm``, or a
    ``drift`` wrapper) through the registry's streaming path: stream ``s``
    regenerates the spec with seed ``spec.seed + s`` and chunks it with
    ``generate_chunks`` — so payloads are bit-identical to eager
    generation, and the whole trace is reproducible from ``(spec, seed)``.
    Arrival times come from an independent ``seed``-derived stream, so the
    schedule and the signal content can be varied separately.

    The spec must yield at least ``chunks_per_session`` full chunks of
    ``chunk_len`` (i.e. cover ``chunks_per_session * chunk_len`` steps).
    """
    from repro.data.registry import GeneratorSpec, generate_chunks, \
        generator_kind

    if n_sessions < 1 or chunks_per_session < 1:
        raise ValueError("need at least one session and one chunk each")
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    if not np.isfinite(rate_hz) or rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz!r}")
    if generator_kind(spec) != "series":
        raise ValueError(
            f"spec_trace needs a series-kind spec, got {spec.label()!r} "
            f"(kind {generator_kind(spec)!r})"
        )
    arrival_rng = ensure_rng(seed)
    stream_models = [model_names[i % len(model_names)]
                     for i in range(n_sessions)]
    events: List[TraceEvent] = []
    for stream in range(n_sessions):
        stream_spec = GeneratorSpec(
            name=spec.name, params=spec.params, seed=spec.seed + stream
        )
        chunks = generate_chunks(stream_spec, chunk_len)
        t = 0.0
        for seq in range(chunks_per_session):
            try:
                arrays = next(chunks)
            except StopIteration:
                raise ValueError(
                    f"spec {spec.label()!r} ran dry after {seq} chunks of "
                    f"{chunk_len}; raise n_steps to cover "
                    f"{chunks_per_session * chunk_len} steps"
                ) from None
            data = _primary_series(arrays)
            if data.shape[0] != chunk_len:
                raise ValueError(
                    f"spec {spec.label()!r} yielded a partial chunk "
                    f"({data.shape[0]} < {chunk_len}); raise n_steps to "
                    f"cover {chunks_per_session * chunk_len} steps"
                )
            t += float(arrival_rng.exponential(1.0 / rate_hz))
            events.append(TraceEvent(t=t, stream=stream, seq=seq, data=data))
    events.sort(key=lambda e: (e.t, e.stream, e.seq))
    seed_tag = int(seed) if isinstance(seed, (int, np.integer)) else -1
    return ReplayTrace(stream_models=stream_models, events=events,
                       rate_hz=float(rate_hz), seed=seed_tag)


@dataclass
class ReplayReport:
    """Throughput/latency summary of one replay run."""

    n_sessions: int
    n_chunks: int
    wall_s: float
    sessions_per_sec: float
    chunks_per_sec: float
    p50_ms: float
    p99_ms: float
    mean_occupancy: float
    sweeps: int
    rows_computed: int
    results: List[ChunkResult]
    deadline_chunks: int = 0    # chunks submitted with a nonzero budget
    violations: int = 0         # of those, how many finished late
    min_slack_ms: Optional[float] = None  # tightest margin to a deadline
    clock: str = "wall"         # "wall" | "virtual" | "async"

    def to_dict(self) -> dict:
        """JSON-ready summary (results themselves excluded)."""
        return {
            "n_sessions": self.n_sessions,
            "n_chunks": self.n_chunks,
            "wall_s": self.wall_s,
            "sessions_per_sec": self.sessions_per_sec,
            "chunks_per_sec": self.chunks_per_sec,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_occupancy": self.mean_occupancy,
            "sweeps": self.sweeps,
            "rows_computed": self.rows_computed,
            "deadline_chunks": self.deadline_chunks,
            "violations": self.violations,
            "min_slack_ms": self.min_slack_ms,
            "clock": self.clock,
        }


def _build_report(trace: ReplayTrace, results: List[ChunkResult],
                  wall_s: float, stats: dict, clock: str) -> ReplayReport:
    """Summarize one finished replay (any driver) into a ReplayReport."""
    lat = np.array([r.latency_ms for r in results]) if results else np.zeros(1)
    slacks = [r.slack_ms for r in results if r.slack_ms is not None]
    return ReplayReport(
        n_sessions=trace.n_sessions,
        n_chunks=len(results),
        wall_s=wall_s,
        sessions_per_sec=trace.n_sessions / wall_s if wall_s > 0 else 0.0,
        chunks_per_sec=len(results) / wall_s if wall_s > 0 else 0.0,
        p50_ms=float(np.percentile(lat, 50)),
        p99_ms=float(np.percentile(lat, 99)),
        mean_occupancy=stats["mean_occupancy"],
        sweeps=stats["sweeps"],
        rows_computed=stats["rows_computed"],
        results=results,
        deadline_chunks=len(slacks),
        violations=sum(1 for s in slacks if s < 0.0),
        min_slack_ms=float(min(slacks)) if slacks else None,
        clock=clock,
    )


def replay(
    engine: ServeEngine,
    trace: ReplayTrace,
    *,
    time_scale: float = 0.0,
    clock=None,
    deadline_ms: Optional[float] = None,
    tick_on: str = "poll",
    fault_plan=None,
) -> ReplayReport:
    """Replay ``trace`` through ``engine`` and measure latency/throughput.

    ``fault_plan``, when given, is a :class:`~repro.faults.FaultPlan`
    installed for exactly the duration of the replay (and cleared after,
    even on error) — the chaos-replay entry point: the same trace replays
    once faulted and once clean, and on NumPy the per-session result
    streams must match bit-for-bit wherever the faulted run recovered.

    ``time_scale`` compresses the trace's arrival schedule: 1.0 replays at
    the recorded rate, 0.0 (the default) releases arrivals as fast as the
    engine can absorb them — arrival *order* is preserved either way, so
    outputs are identical and only the measured latencies change.  The
    engine is ticked between arrival batches and drained at the end; every
    session is closed before returning.

    ``clock`` is either a callable time source (wall replay against an
    injected clock) or the string ``"virtual"``, which installs a
    :class:`VirtualClock` on the engine and jumps it from event to event:
    no real time passes, deadline scheduling behaves exactly as on the
    wall, and latencies/violations are deterministic functions of the
    trace.  ``deadline_ms``, when given, is passed to every submit as the
    per-chunk budget override.

    ``tick_on`` models who drives the passive engine.  ``"poll"`` (the
    default) busy-ticks between arrivals — a dedicated ticker that hits
    every scheduler fire point as soon as it comes due.  ``"submit"``
    ticks only right after submitting, the way a caller-driven
    synchronous deployment behaves: a partial batch whose fire point
    falls between arrivals waits for the *next* arrival (or the final
    drain), which is exactly the failure mode the background tick loop
    of :class:`~repro.serve.async_engine.AsyncServeEngine` removes.
    """
    if time_scale < 0:
        raise ValueError(f"time_scale must be >= 0, got {time_scale!r}")
    if tick_on not in ("poll", "submit"):
        raise ValueError(
            f"tick_on must be 'poll' or 'submit', got {tick_on!r}"
        )
    if fault_plan is not None:
        faults.install_fault_plan(fault_plan)
        try:
            return replay(engine, trace, time_scale=time_scale, clock=clock,
                          deadline_ms=deadline_ms, tick_on=tick_on)
        finally:
            faults.clear_fault_plan()
    if clock == "virtual":
        return _replay_virtual(engine, trace, time_scale=time_scale,
                               deadline_ms=deadline_ms)
    now = clock if clock is not None else time.perf_counter
    session_ids: Dict[int, str] = {}
    t0 = now()
    i = 0
    events = trace.events
    while i < len(events):
        elapsed = now() - t0
        due = i
        while due < len(events) and events[due].t * time_scale <= elapsed:
            due += 1
        if due == i:
            # nothing due yet
            if tick_on == "poll":
                # dedicated ticker: may flush a deferred batch right at
                # its fire point
                engine.tick()
            elif clock is None:
                # caller-driven: nobody ticks until the next submit
                wait = events[i].t * time_scale - elapsed
                if wait > 0:
                    time.sleep(min(wait, 0.001))
            continue
        for event in events[i:due]:
            sid = session_ids.get(event.stream)
            if sid is None:
                sid = engine.open_session(trace.stream_models[event.stream])
                session_ids[event.stream] = sid
            engine.submit(sid, event.data, deadline_ms=deadline_ms)
        i = due
        engine.tick()
    engine.drain()
    wall_s = now() - t0
    results = engine.pop_results()
    for stream, sid in session_ids.items():
        engine.close_session(sid)
    return _build_report(trace, results, wall_s, engine.stats(), "wall")


def _replay_virtual(
    engine: ServeEngine,
    trace: ReplayTrace,
    *,
    time_scale: float,
    deadline_ms: Optional[float],
) -> ReplayReport:
    """Deterministic event-driven replay on a :class:`VirtualClock`.

    Time never idles: it jumps to the earlier of the next arrival and the
    next scheduled fire point (earliest deadline minus the slack margin),
    ticking at each stop.  A trace describing minutes of traffic replays
    in however long the sweeps themselves take — this is how the tests
    exercise the deadline machinery.
    """
    vclock = VirtualClock()
    engine.set_clock(vclock)
    session_ids: Dict[int, str] = {}
    t0 = vclock()
    i = 0
    events = trace.events
    while i < len(events):
        arrival = t0 + events[i].t * time_scale
        fire = engine.next_deadline()
        if fire is not None:
            fire = fire - engine.margin_s
        if fire is not None and fire < arrival:
            # a deadline lands before the next arrival: jump there, fire
            vclock.set(fire)
            engine.tick()
            continue
        vclock.set(arrival)
        while i < len(events) and t0 + events[i].t * time_scale <= vclock():
            event = events[i]
            sid = session_ids.get(event.stream)
            if sid is None:
                sid = engine.open_session(trace.stream_models[event.stream])
                session_ids[event.stream] = sid
            engine.submit(sid, event.data, deadline_ms=deadline_ms)
            i += 1
        engine.tick()
    # all arrivals in: walk the remaining deadlines, then drain
    while True:
        fire = engine.next_deadline()
        if fire is None:
            break
        vclock.set(fire - engine.margin_s)
        engine.tick()
    engine.drain()
    wall_s = vclock() - t0
    results = engine.pop_results()
    for stream, sid in session_ids.items():
        engine.close_session(sid)
    return _build_report(trace, results, wall_s, engine.stats(), "virtual")


async def replay_async(
    async_engine,
    trace: ReplayTrace,
    *,
    time_scale: float = 1.0,
    deadline_ms: Optional[float] = None,
) -> ReplayReport:
    """Replay ``trace`` through an :class:`~repro.serve.async_engine.
    AsyncServeEngine` on the real clock.

    Arrivals become ``asyncio.sleep`` delays on the event loop and every
    chunk's completion is an awaited future — so the measured latencies
    include exactly what a caller of the async API would see: queueing,
    the background loop's deadline-driven wake-ups, and the fused sweeps
    on the executor thread.  The engine must already be started
    (``async with``).  Sessions are closed before returning.
    """
    if time_scale < 0:
        raise ValueError(f"time_scale must be >= 0, got {time_scale!r}")
    sessions: Dict[int, object] = {}
    futures = []
    t0 = time.perf_counter()
    for event in trace.events:
        delay = event.t * time_scale - (time.perf_counter() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        sess = sessions.get(event.stream)
        if sess is None:
            sess = await async_engine.open_session(
                trace.stream_models[event.stream])
            sessions[event.stream] = sess
        futures.append(await sess.submit(event.data,
                                         deadline_ms=deadline_ms))
    results = list(await asyncio.gather(*futures))
    wall_s = time.perf_counter() - t0
    for sess in sessions.values():
        await sess.close()
    return _build_report(trace, results, wall_s, async_engine.stats(),
                         "async")

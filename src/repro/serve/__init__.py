"""Streaming inference: model persistence, sessions, continuous batching.

The serving layer turns a *trained* DFR pipeline into a deployable
artifact and an engine that scores many concurrent input streams through
the same fused array programs the training stack runs on:

* :mod:`repro.serve.model_store` — one versioned JSON document per model
  (extractor snapshot + ``(A, B)`` + ridge readout), exact round trip;
* :mod:`repro.serve.session` — per-stream host bookkeeping (chunk FIFO,
  deadlines, liveness) for one live input stream;
* :mod:`repro.serve.carry` — backend-native storage of each stream's
  resumable reservoir state, with JSON checkpoint/restore boundaries;
* :mod:`repro.serve.scheduler` — per-(pipeline, chunk-length) bucket
  earliest-deadline-first scheduling with slack-margin firing;
* :mod:`repro.serve.engine` — the continuous-batching scheduler packing
  waiting sessions onto the batch axis and heterogeneous same-pipeline
  models onto the candidate axis of one fused sweep, with idle-TTL
  eviction and session checkpoint/restore;
* :mod:`repro.serve.async_engine` — the asyncio front door: an always-on
  background tick loop, futures per submitted chunk;
* :mod:`repro.serve.replay` — seeded Poisson traffic replay with latency,
  deadline and occupancy accounting, on the wall clock, a deterministic
  :class:`~repro.serve.replay.VirtualClock`, or the async engine.

On the NumPy backend, batched serving is bit-identical to per-session
serial serving — the scheduler's knobs trade latency for throughput and
cannot change a score.
"""

from repro.serve.async_engine import AsyncServeEngine, AsyncServeSession
from repro.serve.carry import CarryStore, carry_from_doc, carry_to_doc
from repro.serve.engine import (
    DEFAULT_MAX_BATCH,
    SESSION_FORMAT,
    SESSION_FORMAT_VERSION,
    Backpressure,
    ChunkResult,
    Overloaded,
    ServeEngine,
    TickReport,
)
from repro.serve.model_store import (
    MODEL_FORMAT,
    MODEL_FORMAT_VERSION,
    ServableModel,
    load_model,
    save_model,
)
from repro.serve.replay import (
    ReplayReport,
    ReplayTrace,
    TraceEvent,
    VirtualClock,
    poisson_trace,
    replay,
    replay_async,
    spec_trace,
)
from repro.serve.scheduler import DeadlineScheduler
from repro.serve.session import PendingChunk, StreamSession

__all__ = [
    "MODEL_FORMAT",
    "MODEL_FORMAT_VERSION",
    "SESSION_FORMAT",
    "SESSION_FORMAT_VERSION",
    "ServableModel",
    "save_model",
    "load_model",
    "PendingChunk",
    "StreamSession",
    "CarryStore",
    "carry_to_doc",
    "carry_from_doc",
    "DeadlineScheduler",
    "ServeEngine",
    "AsyncServeEngine",
    "AsyncServeSession",
    "ChunkResult",
    "TickReport",
    "Backpressure",
    "Overloaded",
    "DEFAULT_MAX_BATCH",
    "TraceEvent",
    "ReplayTrace",
    "poisson_trace",
    "spec_trace",
    "ReplayReport",
    "VirtualClock",
    "replay",
    "replay_async",
]

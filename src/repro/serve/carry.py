"""Backend-native storage for per-session resumable reservoir state.

PR 7 kept every session's carry — the batch-1
:class:`~repro.reservoir.modular.StreamingResult` of its last processed
chunk — as host NumPy arrays, which forced the engine's tick to round-trip
device backends twice per sweep: results down to the host to slice the
per-session carries out, carries back up to the device to resume the next
sweep.  :class:`CarryStore` removes the round-trip: carries live in
whatever array type the engine's backend produced, keyed by the backend's
``(name, device, dtype)`` identity, and cross the seam only at two
declared boundaries:

* :meth:`to_host_doc` — JSON-ready snapshot for session checkpointing and
  idle eviction (float64 lists; CPython ``json`` round-trips finite
  doubles exactly, so NumPy carries restore *bit for bit* through the
  same convention as the :mod:`~repro.serve.model_store` envelope);
* :func:`carry_from_doc` — the reverse, re-materializing a snapshot as
  backend-native arrays via ``asarray`` (an input boundary, like a chunk
  upload).

Everything else — assembly into a fused batch, per-session slicing after
a sweep — happens device-side in the engine, and the
:attr:`~repro.backend.ArrayBackend.transfers` counters on the backend
seam assert that no undeclared host transfer sneaks back in.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.backend import ArrayBackend
from repro.reservoir.modular import StreamingResult
from repro.utils.validation import check_document

__all__ = ["CarryStore", "carry_to_doc", "carry_from_doc"]


def carry_to_doc(backend: ArrayBackend,
                 carry: Optional[StreamingResult]) -> Optional[dict]:
    """Snapshot a batch-1 carry as a JSON-ready dict (``None`` passes)."""
    if carry is None:
        return None
    if carry.dprr_sums is None:
        raise ValueError("carry has no DPRR accumulators; cannot snapshot")

    def host(a) -> list:
        return np.asarray(
            backend.to_numpy_boundary(a), dtype=np.float64
        )[0].tolist()

    return {
        "window_states": host(carry.window_states),
        "window_pre_activations": host(carry.window_pre_activations),
        "p_sum": host(carry.dprr_sums[0]),
        "s_sum": host(carry.dprr_sums[1]),
        "diverged": bool(np.asarray(carry.diverged)[0]),
        "n_steps": int(carry.n_steps),
    }


_CARRY_KEYS = {"window_states", "window_pre_activations", "p_sum", "s_sum",
               "diverged", "n_steps"}


def carry_from_doc(backend: ArrayBackend,
                   doc: Optional[dict]) -> Optional[StreamingResult]:
    """Rebuild a backend-native batch-1 carry from :func:`carry_to_doc`."""
    if doc is None:
        return None
    check_document(doc, _CARRY_KEYS, what="carry snapshot")

    def native(value):
        return backend.asarray(np.asarray(value, dtype=np.float64)[None])

    return StreamingResult(
        window_states=native(doc["window_states"]),
        window_pre_activations=native(doc["window_pre_activations"]),
        dprr_sums=(native(doc["p_sum"]), native(doc["s_sum"])),
        diverged=np.array([bool(doc["diverged"])]),
        n_steps=int(doc["n_steps"]),
    )


class CarryStore:
    """Session-id -> backend-native carry, pinned to one backend identity.

    The store belongs to one engine and therefore to one backend; its
    ``key`` names the residency domain (``("torch", "cuda:0", "float32")``
    etc.) so diagnostics and tests can state *where* the carries live.
    ``get``/``put`` never convert arrays — whatever the sweep produced is
    what resumes the next sweep.
    """

    def __init__(self, backend: ArrayBackend):
        self.backend = backend
        self._carries: Dict[str, StreamingResult] = {}

    @property
    def key(self) -> tuple:
        """The residency domain: ``(backend name, device, dtype name)``."""
        return (self.backend.name, self.backend.device or "cpu",
                self.backend.dtype_name)

    def __len__(self) -> int:
        return len(self._carries)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._carries

    def get(self, session_id: str) -> Optional[StreamingResult]:
        return self._carries.get(session_id)

    def put(self, session_id: str, carry: StreamingResult) -> None:
        self._carries[session_id] = carry

    def pop(self, session_id: str) -> Optional[StreamingResult]:
        return self._carries.pop(session_id, None)

    def to_host_doc(self, session_id: str) -> Optional[dict]:
        """Checkpoint one session's carry (see :func:`carry_to_doc`)."""
        return carry_to_doc(self.backend, self._carries.get(session_id))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CarryStore(key={self.key!r}, sessions={len(self._carries)})"

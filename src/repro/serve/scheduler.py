"""Earliest-deadline-first batch scheduling for the serving engine.

A single engine-wide wait budget that defers *every* partial batch while
the oldest waiting chunk is young enough is a throughput knob wearing a
latency costume — one slow stream's age gates every other stream's batch,
and nothing in the report says whether any particular chunk made its
latency target.

This module schedules by per-chunk deadlines instead:

* every :class:`~repro.serve.session.PendingChunk` carries an absolute
  ``deadline`` (engine-clock seconds), resolved at submit time from the
  per-submit override, the session default, or the engine's
  ``deadline_ms``;
* :class:`DeadlineScheduler` keeps one min-heap per (pipeline
  fingerprint, chunk length) bucket, ordered by ``(deadline, submit
  counter)`` — earliest deadline first, FIFO among equal deadlines (a
  zero budget makes every deadline equal its arrival, so the legacy FIFO
  behavior falls out as the EDF degenerate case);
* a bucket *fires* when it is full (``max_batch`` heads ready), when its
  earliest deadline minus a slack margin has arrived, or on ``force`` —
  so one expiring chunk releases exactly its own bucket as a partial
  batch instead of holding the whole queue hostage;
* the slack margin can be a fixed number of milliseconds or ``"auto"``,
  an EWMA of measured sweep durations — fire *early* by about one sweep
  so the result lands before the deadline rather than starting at it.

The scheduler is pure bookkeeping: no arrays, no clock reads, no locks
(the engine's lock guards every call).  That keeps it unit-testable with
an injected clock and keeps EDF ordering deterministic.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

__all__ = ["DeadlineScheduler"]


class _Entry:
    """One schedulable session head; ``valid`` flips on lazy removal."""

    __slots__ = ("deadline", "counter", "session_id", "key", "valid")

    def __init__(self, deadline: float, counter: int, session_id: str,
                 key: tuple):
        self.deadline = deadline
        self.counter = counter
        self.session_id = session_id
        self.key = key
        self.valid = True

    def __lt__(self, other: "_Entry") -> bool:
        return (self.deadline, self.counter) < (other.deadline, other.counter)


class DeadlineScheduler:
    """Per-bucket EDF heaps over schedulable session heads.

    A session appears at most once (only its FIFO head is schedulable);
    the engine enqueues the next chunk when it commits the previous one.
    Removal is lazy (entries are invalidated in place and skipped on pop),
    so ``remove`` is O(1) and heaps never need rebuilding.
    """

    def __init__(self):
        self._buckets: Dict[tuple, List[_Entry]] = {}
        self._entries: Dict[str, _Entry] = {}
        self._counter = 0
        #: EWMA of measured sweep durations (seconds) for the "auto" margin
        self.sweep_ewma_s = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._entries

    def enqueue(self, session_id: str, key: tuple, deadline: float) -> None:
        """Make a session's head chunk schedulable under ``key``."""
        if session_id in self._entries:
            raise RuntimeError(
                f"session {session_id!r} is already scheduled; only the "
                f"FIFO head of a session may be schedulable"
            )
        entry = _Entry(float(deadline), self._counter, session_id, key)
        self._counter += 1
        self._entries[session_id] = entry
        heapq.heappush(self._buckets.setdefault(key, []), entry)

    def remove(self, session_id: str) -> None:
        """Drop a session's entry (close/evict); no-op when absent."""
        entry = self._entries.pop(session_id, None)
        if entry is not None:
            entry.valid = False

    def _prune(self, key: tuple) -> Optional[_Entry]:
        """Pop invalidated entries off a bucket head; return the live head."""
        heap = self._buckets.get(key)
        if heap is None:
            return None
        while heap and not heap[0].valid:
            heapq.heappop(heap)
        if not heap:
            del self._buckets[key]
            return None
        return heap[0]

    def overdue(self, cutoff: float) -> List[str]:
        """Session ids whose scheduled deadline lies before ``cutoff``.

        The engine's overload shedding asks this with ``now - grace``:
        any head already overdue by more than the grace window is a lost
        cause, and serving it would only cascade misses onto the chunks
        behind it.
        """
        return [sid for sid, entry in self._entries.items()
                if entry.valid and entry.deadline < cutoff]

    def next_deadline(self) -> Optional[float]:
        """Earliest live deadline across all buckets, or ``None``."""
        best = None
        for key in list(self._buckets):
            head = self._prune(key)
            if head is not None and (best is None or head.deadline < best):
                best = head.deadline
        return best

    def select(self, now: float, *, force: bool, max_batch: int,
               margin_s: float = 0.0) -> Tuple[List[Tuple[tuple, List[str]]],
                                               bool]:
        """Pop every due bucket's EDF prefix; report whether any was held.

        A bucket is *due* when ``force`` is set, when it holds at least
        ``max_batch`` ready heads, or when its earliest deadline minus
        ``margin_s`` has passed.  Each due bucket yields at most
        ``max_batch`` session ids in EDF order (ties broken by submit
        order).  Returns ``(plan, held)`` where ``plan`` is a list of
        ``(key, session_ids)`` and ``held`` is True when at least one
        non-empty bucket was deferred.
        """
        plan: List[Tuple[tuple, List[str]]] = []
        held = False
        for key in list(self._buckets):
            head = self._prune(key)
            if head is None:
                continue
            ready = len(self._buckets[key])
            due = (force or ready >= max_batch
                   or now >= head.deadline - margin_s)
            if not due:
                held = True
                continue
            taken: List[str] = []
            heap = self._buckets[key]
            while heap and len(taken) < max_batch:
                entry = heapq.heappop(heap)
                if not entry.valid:
                    continue
                del self._entries[entry.session_id]
                taken.append(entry.session_id)
            if not heap:
                del self._buckets[key]
            if taken:
                plan.append((key, taken))
            if heap:
                held = True  # overflow beyond max_batch waits for next tick
        return plan, held

    def observe_sweep(self, seconds: float, *, alpha: float = 0.3) -> None:
        """Fold one measured sweep duration into the EWMA slack margin."""
        seconds = max(float(seconds), 0.0)
        if self.sweep_ewma_s == 0.0:
            self.sweep_ewma_s = seconds
        else:
            self.sweep_ewma_s += alpha * (seconds - self.sweep_ewma_s)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DeadlineScheduler(entries={len(self._entries)}, "
            f"buckets={len(self._buckets)})"
        )

"""Deterministic fault injection for the exec and serve layers.

Fault tolerance is only trustworthy if it is *provable*: this module is
the injection seam the supervision and retry machinery is tested against.
A :class:`FaultPlan` is a seeded, declarative list of :class:`FaultSpec`
records — spec'd like :class:`~repro.data.registry.GeneratorSpec`, with
the same strict versioned JSON envelope — that the runtime consults at a
handful of well-defined *sites*.  Because every fault is keyed on the
**logical identity** of the work (candidate index + dispatch attempt,
sweep-attempt ordinal, tick ordinal) rather than on wall-clock timing or
scheduling order, a plan fires identically no matter how work is sharded
across processes — which is what makes "recovered run is bit-identical to
the fault-free run" a testable statement.

Fault kinds and their sites:

``kill_worker``
    A worker process evaluating candidate ``at`` hard-exits
    (``os._exit``) while the dispatch attempt is below ``times``.  The
    parent sees a broken pool; supervision must rebuild and re-dispatch.
``raise_candidate``
    The worker wrapper raises :class:`FaultInjected` *before* evaluating
    candidate ``at`` (attempt below ``times``) — a transient in-worker
    failure, distinct from an ordinary evaluation error (which is data,
    not infrastructure, and is never retried).
``corrupt_row``
    The first ``times`` fused-block evaluations of candidate ``at`` are
    treated as corrupted; :class:`~repro.exec.VectorizedExecutor` must
    recover the row through its serial re-score path.
``raise_sweep``
    Serve-engine sweep attempts with ordinal in ``[at, at + times)``
    raise :class:`FaultInjected` before touching any state; the engine
    must retry and/or fall back to serial per-session sweeps.
``delay_tick``
    Serve-engine ticks with ordinal in ``[at, at + times)`` are delayed
    by ``delay_ms`` — through ``clock.advance`` under the virtual-clock
    replay harness (fully deterministic), ``time.sleep`` on a wall clock.

Install a plan with :func:`install_fault_plan` (which also exports it to
``os.environ`` so spawned worker processes inherit it) or externally via
``REPRO_FAULT_PLAN`` — either inline JSON or a path to a JSON file.  All
hooks are no-ops when no plan is active, so the production hot path pays
one dict lookup per site.

The injection sites live in the *wrappers* around evaluation (worker
entry points, engine tick/sweep), never inside
:func:`~repro.exec.context.evaluate_candidate` or the reservoir math:
injected faults look like infrastructure failures to the supervisor and
the numerics are untouched, which is what the bit-identity acceptance
test relies on.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.validation import check_document

__all__ = [
    "FAULT_PLAN_ENV",
    "PLAN_FORMAT",
    "PLAN_FORMAT_VERSION",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "install_fault_plan",
    "clear_fault_plan",
    "active_fault_plan",
    "on_worker_candidate",
    "should_corrupt_row",
    "maybe_raise_sweep",
    "tick_delay_s",
]

#: environment variable carrying a plan (inline JSON or a file path)
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: strict envelope identity (same discipline as ``GeneratorSpec``)
PLAN_FORMAT = "repro-fault-plan"
PLAN_FORMAT_VERSION = 1

#: exit status used by ``kill_worker`` — distinctive enough to grep for
KILL_EXIT_CODE = 87

FAULT_KINDS = (
    "kill_worker",
    "raise_candidate",
    "corrupt_row",
    "raise_sweep",
    "delay_tick",
)


class FaultInjected(RuntimeError):
    """Raised (or reported) by an injected fault.

    Supervisors treat this exactly like a transient infrastructure
    failure: it is retried, never recorded as an evaluation outcome.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: *kind* at logical position ``at``.

    ``times`` is how many firings the spec is good for (attempts for the
    worker kinds, ordinal window width for the sweep/tick kinds);
    ``delay_ms`` only applies to ``delay_tick``.
    """

    kind: str
    at: int
    times: int = 1
    delay_ms: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if int(self.at) < 0:
            raise ValueError(f"fault 'at' must be >= 0, got {self.at}")
        if int(self.times) < 1:
            raise ValueError(f"fault 'times' must be >= 1, got {self.times}")
        if not (float(self.delay_ms) >= 0.0):
            raise ValueError(
                f"fault 'delay_ms' must be finite and >= 0, got {self.delay_ms}"
            )
        if self.delay_ms and self.kind != "delay_tick":
            raise ValueError(
                f"'delay_ms' only applies to delay_tick, got it on {self.kind!r}"
            )
        object.__setattr__(self, "at", int(self.at))
        object.__setattr__(self, "times", int(self.times))
        object.__setattr__(self, "delay_ms", float(self.delay_ms))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at": self.at, "times": self.times,
                "delay_ms": self.delay_ms}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        check_document(payload, {"kind", "at"}, what="fault spec",
                       optional=("times", "delay_ms"))
        return cls(
            kind=payload["kind"],
            at=payload["at"],
            times=payload.get("times", 1),
            delay_ms=payload.get("delay_ms", 0.0),
        )


@dataclass
class FaultPlan:
    """A seeded, ordered list of faults with a strict JSON envelope.

    The ``seed`` tags the plan (and is reserved for future randomized
    kinds); the current kinds are purely logically keyed, so two runs
    under the same plan inject the same faults at the same logical
    positions regardless of scheduling.  Per-plan firing counters (for
    ``corrupt_row``) live on the instance and reset on (re)install.
    """

    faults: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self.faults = [
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
            for f in self.faults
        ]
        self.seed = int(self.seed)
        self._lock = threading.Lock()
        self._fired: Dict[int, int] = {}

    # -- envelope -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PLAN_FORMAT,
            "format_version": PLAN_FORMAT_VERSION,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        check_document(payload, {"format", "format_version", "seed", "faults"},
                       what="fault plan", fmt=PLAN_FORMAT,
                       version=PLAN_FORMAT_VERSION)
        if not isinstance(payload["faults"], list):
            raise ValueError("fault plan 'faults' must be a list")
        return cls(
            faults=[FaultSpec.from_dict(f) for f in payload["faults"]],
            seed=payload["seed"],
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- runtime checks ----------------------------------------------
    def reset(self) -> None:
        """Forget firing counters (a reinstalled plan starts fresh)."""
        with self._lock:
            self._fired.clear()

    def _consume(self, spec_index: int, times: int) -> bool:
        with self._lock:
            fired = self._fired.get(spec_index, 0)
            if fired >= times:
                return False
            self._fired[spec_index] = fired + 1
            return True

    def on_worker_candidate(self, index: int, attempt: int) -> None:
        """Worker-side seam: kill or raise before evaluating ``index``.

        ``attempt`` is the dispatch attempt of the work unit (0 on first
        dispatch); a spec stops firing once ``attempt >= times``, which
        is what lets a re-dispatched unit succeed.
        """
        for spec in self.faults:
            if spec.at != index or attempt >= spec.times:
                continue
            if spec.kind == "kill_worker":
                os._exit(KILL_EXIT_CODE)
            if spec.kind == "raise_candidate":
                raise FaultInjected(
                    f"injected candidate fault at index {index} "
                    f"(attempt {attempt})"
                )

    def should_corrupt_row(self, index: int) -> bool:
        """True when a fused-block row for ``index`` must be treated bad."""
        for i, spec in enumerate(self.faults):
            if spec.kind == "corrupt_row" and spec.at == index:
                if self._consume(i, spec.times):
                    return True
        return False

    def maybe_raise_sweep(self, ordinal: int) -> None:
        """Raise when serve sweep-attempt ``ordinal`` is inside a window."""
        for spec in self.faults:
            if (spec.kind == "raise_sweep"
                    and spec.at <= ordinal < spec.at + spec.times):
                raise FaultInjected(
                    f"injected sweep fault at attempt {ordinal}"
                )

    def tick_delay_s(self, ordinal: int) -> float:
        """Total injected delay (seconds) for serve tick ``ordinal``."""
        delay = 0.0
        for spec in self.faults:
            if (spec.kind == "delay_tick"
                    and spec.at <= ordinal < spec.at + spec.times):
                delay += spec.delay_ms / 1e3
        return delay


# -- process-global plan resolution ----------------------------------
# The installed plan is process-global; worker processes (which inherit
# os.environ at spawn) resolve their own copy lazily from the variable.
_ACTIVE: Optional[FaultPlan] = None
_ENV_CACHE: Optional[tuple] = None  # (raw string, parsed plan)


def _resolve_env_plan() -> Optional[FaultPlan]:
    global _ENV_CACHE
    raw = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not raw:
        _ENV_CACHE = None
        return None
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    text = raw
    if not raw.lstrip().startswith("{"):
        with open(raw, "r", encoding="utf-8") as fh:
            text = fh.read()
    plan = FaultPlan.from_json(text)
    _ENV_CACHE = (raw, plan)
    return plan


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` in this process and export it to the environment.

    Exporting through ``REPRO_FAULT_PLAN`` is what lets worker processes
    spawned *after* installation inherit the plan.  Firing counters are
    reset so a reinstalled plan starts fresh.
    """
    global _ACTIVE
    plan.reset()
    _ACTIVE = plan
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    return plan


def clear_fault_plan() -> None:
    """Deactivate any installed plan (and scrub the environment)."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = None
    os.environ.pop(FAULT_PLAN_ENV, None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan in force: the installed one, else the environment's."""
    if _ACTIVE is not None:
        return _ACTIVE
    return _resolve_env_plan()


# -- module-level hooks (no-ops without an active plan) ---------------
def on_worker_candidate(index: int, attempt: int) -> None:
    plan = active_fault_plan()
    if plan is not None:
        plan.on_worker_candidate(index, attempt)


def should_corrupt_row(index: int) -> bool:
    plan = active_fault_plan()
    return plan is not None and plan.should_corrupt_row(index)


def maybe_raise_sweep(ordinal: int) -> None:
    plan = active_fault_plan()
    if plan is not None:
        plan.maybe_raise_sweep(ordinal)


def tick_delay_s(ordinal: int) -> float:
    plan = active_fault_plan()
    return 0.0 if plan is None else plan.tick_delay_s(ordinal)

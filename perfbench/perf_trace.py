"""Span tracing for the benchmark, installed from outside the package.

A :class:`Tracer` replaces the public functions and methods of every layer
of :mod:`repro` with thin wrappers that record one span per call: name,
start, end, parent span and the harness repetition it ran in.  Spans are
kept in memory (compact arrays), written out once at exit, and reduced to
per-layer metrics by :func:`span_metrics`.

Wrappers go on the defining attribute *and* on every other module-level
name bound to the same object (``from repro.readout.ridge import
select_beta`` in :mod:`repro.core.pipeline`, for example), so a call
through any import path is seen.  :meth:`Tracer.uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: span name -> the attributes it wraps, as ``(module, "Class.method")`` or
#: ``(module, "function")``; a class method is wrapped on every listed class
#: that defines it in its own ``__dict__``
SPAN_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "data.load": [("repro.data.loaders", "load_dataset")],
    "data.standardize": [
        ("repro.data.preprocessing", "ChannelStandardizer.transform")],
    "reservoir.run": [("repro.reservoir.modular", "ModularDFR.run")],
    "reservoir.stream": [
        ("repro.reservoir.modular", "ModularDFR.run_streaming")],
    "representation.dprr": [("repro.representation.dprr", "DPRR.features")],
    "readout.ridge_sweep": [("repro.readout.ridge", "fit_ridge_sweep")],
    "readout.ridge_select": [("repro.readout.ridge", "select_beta")],
    "readout.ridge_score": [
        ("repro.readout.ridge", "RidgeModel.scores"),
        ("repro.readout.ridge", "RidgeModel.predict"),
        ("repro.readout.ridge", "RidgeModel.loss"),
        ("repro.readout.ridge", "RidgeModel.accuracy"),
    ],
    "readout.softmax": [
        ("repro.readout.softmax", "SoftmaxReadout.loss_and_grads"),
        ("repro.readout.softmax", "SoftmaxReadout.batch_loss_and_grads"),
    ],
    "core.fit": [("repro.core.pipeline", "DFRClassifier.fit")],
    "core.features": [
        ("repro.core.pipeline", "DFRFeatureExtractor.features")],
    "core.population": [("repro.core.population", "PopulationTrainer.fit")],
    "core.backward": [
        ("repro.core.backprop", "BackpropEngine.sample_gradients"),
        ("repro.core.backprop", "BackpropEngine.batch_gradients"),
    ],
    "core.optimizer": [
        ("repro.core.optimizer", "clip_gradients"),
        ("repro.core.optimizer", "SGD.step"),
        ("repro.core.optimizer", "MomentumSGD.step"),
        ("repro.core.optimizer", "Adam.step"),
    ],
    "core.grid_level": [("repro.core.grid_search", "GridSearch.run_level")],
    "exec.context": [("repro.exec.context", "EvaluationContext.from_data")],
    "exec.run": [
        ("repro.exec.executors", f"{cls}.run")
        for cls in ("CandidateExecutor", "SerialExecutor", "BackendExecutor",
                    "VectorizedExecutor", "MultiprocessExecutor")
    ],
    "serve.submit": [("repro.serve.engine", "ServeEngine.submit")],
    "serve.tick": [("repro.serve.engine", "ServeEngine.tick")],
    "serve.model_io": [("repro.serve.model_store", "load_model")],
    "backend.drive": [
        (mod, f"{cls}.{meth}")
        for mod, cls in (("repro.backend.base", "ArrayBackend"),
                         ("repro.backend.numpy_backend", "NumpyBackend"))
        for meth in ("masked_drive", "streaming_masked_drive")
    ],
    "backend.filter": [
        (mod, f"{cls}.{meth}")
        for mod, cls in (("repro.backend.base", "ArrayBackend"),
                         ("repro.backend.numpy_backend", "NumpyBackend"))
        for meth in ("lfilter_general", "first_order_filter",
                     "first_order_filter_stacked")
    ],
    "backend.einsum": [
        ("repro.backend.base", "ArrayBackend.einsum"),
        ("repro.backend.numpy_backend", "NumpyBackend.einsum"),
    ],
}

SPAN_NAMES: Tuple[str, ...] = tuple(SPAN_TARGETS)

#: work counters the wrappers (and the serve driver) accumulate
COUNTER_NAMES: Tuple[str, ...] = (
    "reservoir.rows",
    "core.population.skipped",
    "exec.candidates",
    "exec.failed",
    "exec.useful_frac",
    "serve.sweeps",
    "serve.rows",
    "serve.occupancy",
    "serve.idle_ticks",
    "serve.queue_depth_max",
    "serve.failed_chunks",
    "serve.gen_lag_p99_ms",
    "trace_overhead_frac",
)


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in the order the benchmark prints them."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    return names + list(COUNTER_NAMES)


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac") or name == "serve.occupancy":
        return "fraction"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def _count_rows(tracer, args, kwargs, result) -> None:
    # ModularDFR.run / run_streaming(self, u, A, B, ...): samples times the
    # candidates on the K axis (1 for scalar A and B)
    params = dict(zip(("self", "u", "A", "B"), args), **kwargs)
    u = params["u"]
    n = u.shape[0] if np.ndim(u) == 3 else 1
    tracer.counters["reservoir.rows"] += n * max(np.size(params["A"]),
                                                 np.size(params["B"]))


def _count_skipped(tracer, args, kwargs, result) -> None:
    # diverged samples skipped over every member's training epochs
    tracer.counters["core.population.skipped"] += sum(
        ep.n_skipped for member in result.members
        for ep in member.result.history)


def _count_exec(tracer, args, kwargs, result) -> None:
    tracer.counters["exec.candidates"] += len(result.results)
    tracer.counters["exec.failed"] += result.n_failed
    for res in result.results:
        if res.ok:
            tracer.counters["exec.scored"] += 1
            tracer.counters["exec.useful"] += not res.evaluation.diverged


def _count_tick(tracer, args, kwargs, report) -> None:
    c = tracer.counters
    c["serve.sweeps"] += report.sweeps
    c["serve.rows"] += report.rows_computed
    c["serve.processed"] += report.processed
    c["serve.slots"] += report.sweeps * args[0].max_batch
    c["serve.idle_ticks"] += report.processed == 0
    c["serve.failed_chunks"] += report.failed_chunks
    c["serve.queue_depth_max"] = max(c["serve.queue_depth_max"],
                                     report.queue_depth)


_COUNTER_HOOKS: Dict[str, Callable] = {
    "reservoir.run": _count_rows,
    "reservoir.stream": _count_rows,
    "core.population": _count_skipped,
    "exec.run": _count_exec,
    "serve.tick": _count_tick,
}


class Tracer:
    """In-memory span recorder wrapping the package's public entry points.

    ``rep`` is the harness repetition stamped on new spans (-1 during
    set-up); ``active = False`` makes every wrapper a plain pass-through,
    which the harness uses around its untimed correctness checks.
    """

    def __init__(self):
        self.names: List[str] = list(SPAN_NAMES)
        self.name_id = array("i")
        self.parent = array("i")
        self.rep_id = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.rep = -1
        self.active = True
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._depth = [0] * len(self.names)
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.rep_id.append(self.rep)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._depth[nid] -= 1
        self._stack.pop()

    def _wrap(self, fn: Callable, nid: int, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # ------------------------------------------------------------------ #
    # install / uninstall

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every target, plus every re-import of a wrapped function."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        functions: Dict[int, Callable] = {}
        for nid, span in enumerate(self.names):
            hook = _COUNTER_HOOKS.get(span)
            for mod_name, qual in SPAN_TARGETS[span]:
                module = importlib.import_module(mod_name)
                if "." not in qual:
                    fn = getattr(module, qual)
                    wrapped = self._wrap(fn, nid, hook)
                    functions[id(fn)] = wrapped
                    self._set(module, qual, wrapped)
                    continue
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, nid, hook))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, nid, hook))
                else:
                    wrapped = self._wrap(raw, nid, hook)
                self._set(cls, meth, wrapped)
        # names imported elsewhere (``from repro.x import f``) still point
        # at the original function object: rebind those too
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = functions.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._set(module, attr, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every original attribute (reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # read-out

    def arrays(self) -> dict:
        """The recorded spans as NumPy arrays (for metrics and the dump)."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rep": np.frombuffer(self.rep_id, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_metrics(names: Sequence[str], spans: dict, n_reps: float) -> dict:
    """Per-span ``calls``, inclusive ``s`` and ``self_s``.

    ``spans`` holds the arrays of :meth:`Tracer.arrays`.  A span's self
    time is its duration minus the durations of its direct children
    (children nest strictly inside their parent on one thread).  Calls and
    inclusive time count only *outermost* spans of a name, so a wrapped
    method calling another method wrapped under the same name is not
    counted twice.  Set-up spans (``rep < 0``) count once; spans of timed
    repetitions are averaged over ``n_reps``, so each value describes one
    set-up plus one repetition.
    """
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    outer = spans["outer"]
    n = len(names)

    def totals(phase):
        top = phase & outer
        return (np.bincount(name[top], minlength=n),
                np.bincount(name[top], weights=dur[top], minlength=n),
                np.bincount(name[phase], weights=self_t[phase], minlength=n))

    setup = spans["rep"] < 0
    per_rep = 1.0 / max(n_reps, 1e-12)
    calls, incl, excl = (s + t * per_rep
                         for s, t in zip(totals(setup), totals(~setup)))
    out = {}
    for nid, span in enumerate(names):
        out[f"{span}.calls"] = float(calls[nid])
        out[f"{span}.s"] = float(incl[nid])
        out[f"{span}.self_s"] = float(excl[nid])
    return out


def counter_metrics(counters: dict, n_reps: float) -> dict:
    """The work counters, additive ones averaged per repetition."""
    per = 1.0 / max(n_reps, 1e-12)
    scored = counters["exec.scored"]
    slots = counters["serve.slots"]
    return {
        "reservoir.rows": counters["reservoir.rows"] * per,
        "core.population.skipped": counters["core.population.skipped"] * per,
        "exec.candidates": counters["exec.candidates"] * per,
        "exec.failed": counters["exec.failed"] * per,
        "exec.useful_frac": (counters["exec.useful"] / scored
                             if scored else 0.0),
        "serve.sweeps": counters["serve.sweeps"] * per,
        "serve.rows": counters["serve.rows"] * per,
        "serve.occupancy": (counters["serve.processed"] / slots
                            if slots else 0.0),
        "serve.idle_ticks": counters["serve.idle_ticks"] * per,
        "serve.queue_depth_max": float(counters["serve.queue_depth_max"]),
        "serve.failed_chunks": counters["serve.failed_chunks"] * per,
    }

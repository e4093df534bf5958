"""Serving bench: replayed traffic through serial vs batched engines.

The harness answers two questions about :mod:`repro.serve`:

1. *Is continuous batching worth it?*  The same seeded Poisson trace is
   replayed through a ``max_batch=1`` engine (per-session serial serving)
   and a wide-batch engine; the headline is the wall-clock speedup, with
   p50/p99 chunk latency and batch occupancy alongside.
2. *Does batching change answers?*  Every chunk's features, scores and
   label from the two runs are compared **bitwise** — on the NumPy backend
   the comparison must be exact, and the bench hard-fails otherwise.

Since PR 9 the harness also answers a third question: *do deadlines get
met?*  The same trace is replayed **at its recorded rate** with a
per-chunk deadline budget through (a) the passive engine ticked by the
replay loop with no slack margin — which fires partial batches exactly
*at* their deadline, so deadline-triggered chunks finish one sweep late —
and (b) the :class:`~repro.serve.async_engine.AsyncServeEngine`, whose
background loop wakes a slack margin *early*.  The headline is the
violation count: the async engine meets deadlines the synchronous
fire-at-deadline policy structurally misses, on identical traffic, with
bit-identical outputs.

The benchmarked path exercises the full deployment loop: train a small
pipeline, ``save_model`` / ``load_model`` round-trip, deploy the *loaded*
snapshot, replay.  ``tools/bench_history.py --suite serve`` persists the
numbers to the committed trajectory.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import List, Optional

import numpy as np

from repro.core.pipeline import DFRFeatureExtractor
from repro.faults import FaultPlan, FaultSpec
from repro.readout.ridge import fit_ridge
from repro.serve.async_engine import AsyncServeEngine
from repro.serve.engine import ServeEngine
from repro.serve.model_store import ServableModel, load_model, save_model
from repro.serve.replay import (
    ReplayReport,
    poisson_trace,
    replay,
    replay_async,
)

__all__ = ["run_serve_bench", "format_serve"]

#: (A, B) pairs handed out round-robin when serving several models
_MODEL_PARAMS = [(0.4, 0.5), (0.7, 0.2), (0.3, 0.6), (0.55, 0.35)]


def _train_models(n_models: int, n_nodes: int, chunk_len: int,
                  n_channels: int, seed: int) -> List[ServableModel]:
    """Fit one shared feature pipeline and ridge readouts for each model."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((48, chunk_len * 2, n_channels))
    y = rng.integers(0, 3, 48)
    ext = DFRFeatureExtractor(n_nodes=n_nodes, seed=seed).fit(u)
    cfg = ext.snapshot()
    models = []
    for i in range(n_models):
        a_par, b_par = _MODEL_PARAMS[i % len(_MODEL_PARAMS)]
        feats, diverged = ext.features(u, a_par, b_par)
        ridge = fit_ridge(feats[~diverged], y[~diverged], 1e-2)
        models.append(ServableModel(
            name=f"m{i}", A=a_par, B=b_par, config=cfg, readout=ridge,
        ))
    return models


def _roundtrip(models: List[ServableModel]) -> List[ServableModel]:
    """Persist and reload every model (the deployed artifact path)."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for model in models:
            path = save_model(model, os.path.join(tmp, f"{model.name}.json"))
            out.append(load_model(path))
    return out


def _mismatches(a: List, b: List) -> int:
    """Count chunk results that are not bit-identical between two runs."""
    index = {(r.session_id, r.seq): r for r in a}
    if len(index) != len(a) or set(index) != {(r.session_id, r.seq)
                                             for r in b}:
        return max(len(a), len(b))
    bad = 0
    for r in b:
        ref = index[(r.session_id, r.seq)]
        same = (
            np.array_equal(ref.features, r.features)
            and (ref.scores is None) == (r.scores is None)
            and (ref.scores is None or np.array_equal(ref.scores, r.scores))
            and ref.label == r.label
            and ref.diverged == r.diverged
            and ref.n_steps == r.n_steps
        )
        bad += not same
    return bad


def run_serve_bench(
    *,
    streams: int = 64,
    chunks_per_session: int = 4,
    chunk_len: int = 32,
    n_channels: int = 1,
    n_nodes: int = 30,
    n_models: int = 1,
    max_batch: Optional[int] = None,
    deadline_ms: float = 10.0,
    slack_margin_ms: float = 5.0,
    deadline_rate_hz: float = 4.0,
    repeats: int = 3,
    seed: int = 0,
    backend: Optional[str] = None,
) -> dict:
    """Replay one trace through serial and batched engines; compare both.

    Returns a JSON-ready dict: the two :class:`ReplayReport` summaries,
    the speedup, and ``bitwise_mismatches`` (must be 0 on NumPy).  Each
    configuration runs ``repeats`` times and keeps its fastest wall-clock
    (per-run outputs are verified every time).

    Two further legs replay the trace slowed to ``deadline_rate_hz``
    chunks/s per stream (a rate the engine can serve — the recorded 200 Hz
    trace is a stress test, not an SLO scenario) with ``deadline_ms`` as
    every chunk's budget: a caller-driven synchronous engine that ticks
    only on submits (``sync_deadline`` — no background thread, so fire
    points falling between arrivals are served late) and the
    background-loop :class:`AsyncServeEngine` waking at each fire point
    ``slack_margin_ms`` early (``async_deadline``).  Their outputs join
    the bitwise comparison; their violation counts are the deadline
    headline.

    A final *chaos* leg replays the trace twice on the deterministic
    virtual clock — once clean, once under a seeded
    :class:`~repro.faults.FaultPlan` that raises in a fused sweep and
    delays ticks.  The faulted run must recover through the engine's
    sweep retry (visible in its ``stats()``) and still produce results
    **bit-identical** to the clean run; its mismatches join the same
    hard-fail counter.
    """
    if max_batch is None:
        max_batch = max(int(streams), 1)
    models = _roundtrip(_train_models(
        n_models, n_nodes, chunk_len, n_channels, seed))
    trace = poisson_trace(
        [m.name for m in models],
        n_sessions=streams, chunks_per_session=chunks_per_session,
        chunk_len=chunk_len, n_channels=n_channels, seed=seed + 1,
    )

    def run_once(mb: int) -> ReplayReport:
        engine = ServeEngine(max_batch=mb, backend=backend)
        for model in models:
            engine.deploy(model)
        return replay(engine, trace)

    # the trace records arrivals at poisson_trace's default rate; the
    # deadline legs stretch the time axis to deadline_rate_hz per stream
    # (exponential gaps scale linearly, payload bits are untouched)
    dl_scale = trace.rate_hz / float(deadline_rate_hz)

    def run_sync_deadline() -> ReplayReport:
        engine = ServeEngine(max_batch=max_batch, deadline_ms=deadline_ms,
                             backend=backend)
        for model in models:
            engine.deploy(model)
        return replay(engine, trace, time_scale=dl_scale,
                      tick_on="submit")

    def run_async_deadline() -> ReplayReport:
        async def go() -> ReplayReport:
            async with AsyncServeEngine(
                max_batch=max_batch, deadline_ms=deadline_ms,
                slack_margin_ms=slack_margin_ms,
                backend=backend,
            ) as engine:
                for model in models:
                    engine.deploy(model)
                return await replay_async(engine, trace,
                                          time_scale=dl_scale)
        return asyncio.run(go())

    serial = batched = None
    mismatches = 0
    reference = None
    for _ in range(max(int(repeats), 1)):
        rep_s = run_once(1)
        rep_b = run_once(max_batch)
        if reference is None:
            reference = rep_s.results
        mismatches += _mismatches(reference, rep_s.results)
        mismatches += _mismatches(reference, rep_b.results)
        if serial is None or rep_s.wall_s < serial.wall_s:
            serial = rep_s
        if batched is None or rep_b.wall_s < batched.wall_s:
            batched = rep_b
    sync_dl = run_sync_deadline()
    async_dl = run_async_deadline()
    mismatches += _mismatches(reference, sync_dl.results)
    mismatches += _mismatches(reference, async_dl.results)

    def run_chaos(plan):
        engine = ServeEngine(max_batch=max_batch, deadline_ms=deadline_ms,
                             backend=backend)
        for model in models:
            engine.deploy(model)
        report = replay(engine, trace, time_scale=dl_scale,
                        clock="virtual", fault_plan=plan)
        return report, engine.stats()

    chaos_clean, _ = run_chaos(None)
    chaos_plan = FaultPlan(faults=[
        FaultSpec(kind="raise_sweep", at=1, times=1),
        FaultSpec(kind="delay_tick", at=2, times=2, delay_ms=deadline_ms),
    ], seed=seed)
    chaos_faulted, chaos_stats = run_chaos(chaos_plan)
    chaos_mismatches = _mismatches(chaos_clean.results,
                                   chaos_faulted.results)
    mismatches += chaos_mismatches
    speedup = serial.wall_s / batched.wall_s if batched.wall_s > 0 else 0.0
    # label the run with the backend the engines resolved, not the request
    # (None defers to REPRO_BACKEND, and the precision rides in its suffix)
    name, device, dtype_name = chaos_stats["carry_domain"]
    return {
        "streams": streams,
        "chunks_per_session": chunks_per_session,
        "chunk_len": chunk_len,
        "n_channels": n_channels,
        "n_nodes": n_nodes,
        "n_models": n_models,
        "max_batch": max_batch,
        "deadline_ms": deadline_ms,
        "slack_margin_ms": slack_margin_ms,
        "deadline_rate_hz": float(deadline_rate_hz),
        "repeats": repeats,
        "seed": seed,
        "backend": f"{name}:{device}",
        "dtype": dtype_name,
        "serial": serial.to_dict(),
        "batched": batched.to_dict(),
        "sync_deadline": sync_dl.to_dict(),
        "async_deadline": async_dl.to_dict(),
        "chaos": {
            "plan": chaos_plan.to_dict(),
            "sweep_retries": chaos_stats["sweep_retries"],
            "serial_fallbacks": chaos_stats["serial_fallbacks"],
            "failed_chunks": chaos_stats["failed_chunks"],
            "shed": chaos_stats["shed"],
            "mismatches": chaos_mismatches,
        },
        "speedup": speedup,
        "bitwise_mismatches": mismatches,
    }


def format_serve(result: dict) -> str:
    """Render the bench result as the console table."""
    lines = [
        f"serving bench: {result['streams']} streams x "
        f"{result['chunks_per_session']} chunks "
        f"(T={result['chunk_len']}, C={result['n_channels']}, "
        f"N_x={result['n_nodes']}), {result['n_models']} model(s), "
        f"{result['backend']}/{result['dtype']}",
        f"  {'engine':<22} {'wall_s':>8} {'sess/s':>9} {'chunks/s':>9} "
        f"{'p50_ms':>8} {'p99_ms':>8} {'occupancy':>9}",
    ]
    for label, rep in (
        ("serial (max_batch=1)", result["serial"]),
        (f"batched (max_batch={result['max_batch']})", result["batched"]),
    ):
        lines.append(
            f"  {label:<22} {rep['wall_s']:>8.4f} "
            f"{rep['sessions_per_sec']:>9.1f} {rep['chunks_per_sec']:>9.1f} "
            f"{rep['p50_ms']:>8.3f} {rep['p99_ms']:>8.3f} "
            f"{rep['mean_occupancy']:>9.3f}"
        )
    lines.append(
        f"  deadline legs (budget {result['deadline_ms']:.1f} ms, "
        f"{result.get('deadline_rate_hz', 4.0):g} Hz/stream):"
    )
    lines.append(
        f"  {'engine':<22} {'p50_ms':>8} {'p99_ms':>8} {'met':>6} "
        f"{'missed':>7} {'min_slack_ms':>13}"
    )
    for label, rep in (
        ("sync (tick on submit)", result["sync_deadline"]),
        ("async (background)", result["async_deadline"]),
    ):
        slack = rep.get("min_slack_ms")
        met = rep["deadline_chunks"] - rep["violations"]
        lines.append(
            f"  {label:<22} {rep['p50_ms']:>8.3f} {rep['p99_ms']:>8.3f} "
            f"{met:>6d} {rep['violations']:>7d} "
            f"{'-' if slack is None else format(slack, '>13.3f')}"
        )
    chaos = result.get("chaos")
    if chaos is not None:
        lines.append(
            f"  chaos replay (injected sweep fault + tick delays): "
            f"{chaos['sweep_retries']} retried sweep(s), "
            f"{chaos['serial_fallbacks']} serial fallback(s), "
            f"{chaos['failed_chunks']} failed, {chaos['shed']} shed, "
            f"{chaos['mismatches']} mismatch(es) vs clean"
        )
    verdict = ("bitwise OK" if result["bitwise_mismatches"] == 0
               else f"{result['bitwise_mismatches']} MISMATCHES")
    lines.append(
        f"  speedup: {result['speedup']:.2f}x   all engines == serial: "
        f"{verdict}"
    )
    return "\n".join(lines)

"""Chaos tests: fault injection, supervision, backpressure, shedding.

The acceptance contract of the fault-tolerance layer is *bit-identity
under recovery*: a seeded :class:`~repro.faults.FaultPlan` that kills
workers, raises in sweeps, or corrupts fused rows must leave the final
search outcome and every replayed chunk result byte-identical to the
fault-free NumPy run — retries, re-dispatches and fallbacks visible only
in the counters.  No injected fault may hang an engine or leak a future.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.pipeline import DFRFeatureExtractor
from repro.data.loaders import make_toy_dataset
from repro.exec import (
    Candidate,
    EvaluationContext,
    MultiprocessExecutor,
    SerialExecutor,
    VectorizedExecutor,
)
from repro.faults import (
    FAULT_PLAN_ENV,
    PLAN_FORMAT,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    clear_fault_plan,
    install_fault_plan,
)
from repro.readout.ridge import fit_ridge
from repro.serve import (
    AsyncServeEngine,
    Backpressure,
    Overloaded,
    ServableModel,
    ServeEngine,
    VirtualClock,
    poisson_trace,
    replay,
)


@pytest.fixture(autouse=True)
def _clean_plan():
    """No plan leaks into (or out of) any test."""
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def setup():
    data = make_toy_dataset(n_classes=3, n_channels=2, length=20,
                            n_train=30, n_test=30, noise=0.3, seed=7)
    ext = DFRFeatureExtractor(n_nodes=5, seed=0).fit(data.u_train)
    return data, ext


def _context(data, ext, **kwargs):
    return EvaluationContext(
        extractor=ext.snapshot(),
        u_train=data.u_train, y_train=data.y_train,
        u_test=data.u_test, y_test=data.y_test,
        n_classes=3, **kwargs,
    )


def _candidates(n, seed=123):
    rng = np.random.default_rng(0)
    return [
        Candidate(index=i, A=float(10.0 ** rng.uniform(-3, -1)),
                  B=float(10.0 ** rng.uniform(-2, -1)), seed=seed)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def served_model():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((40, 32, 2))
    y = rng.integers(0, 3, 40)
    ext = DFRFeatureExtractor(n_nodes=8, seed=1).fit(u)
    A, B = 0.4, 0.5
    feats, _ = ext.features(u, A, B)
    ridge = fit_ridge(feats, y, 1e-2)
    return ServableModel(name="m0", A=A, B=B, config=ext.snapshot(),
                         readout=ridge)


# --------------------------------------------------------------------- #
# plan envelope + environment resolution
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(faults=[
            FaultSpec(kind="kill_worker", at=2, times=2),
            FaultSpec(kind="delay_tick", at=0, times=3, delay_ms=5.0),
        ], seed=9)
        back = FaultPlan.from_json(plan.to_json())
        assert back.seed == 9
        assert back.faults == plan.faults
        assert json.loads(plan.to_json())["format"] == PLAN_FORMAT

    def test_envelope_is_strict(self):
        doc = FaultPlan(faults=[FaultSpec(kind="raise_sweep", at=0)]).to_dict()
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({**doc, "extra": 1})
        with pytest.raises(ValueError, match="missing"):
            FaultPlan.from_dict({k: v for k, v in doc.items()
                                 if k != "seed"})
        with pytest.raises(ValueError, match="format"):
            FaultPlan.from_dict({**doc, "format": "other"})
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({**doc, "format_version": 99})

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor_strike", at=0)
        with pytest.raises(ValueError, match="'at'"):
            FaultSpec(kind="kill_worker", at=-1)
        with pytest.raises(ValueError, match="'times'"):
            FaultSpec(kind="kill_worker", at=0, times=0)
        with pytest.raises(ValueError, match="delay_ms"):
            FaultSpec(kind="kill_worker", at=0, delay_ms=3.0)
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"kind": "kill_worker", "at": 0, "x": 1})

    def test_install_exports_env_and_clear_scrubs(self, monkeypatch):
        import os
        plan = install_fault_plan(
            FaultPlan(faults=[FaultSpec(kind="raise_sweep", at=1)]))
        assert active_fault_plan() is plan
        assert FaultPlan.from_json(os.environ[FAULT_PLAN_ENV]).faults == \
            plan.faults
        clear_fault_plan()
        assert active_fault_plan() is None
        assert FAULT_PLAN_ENV not in os.environ

    def test_env_accepts_inline_json_and_path(self, monkeypatch, tmp_path):
        plan = FaultPlan(faults=[FaultSpec(kind="delay_tick", at=2,
                                           delay_ms=1.0)])
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert active_fault_plan().faults == plan.faults
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert active_fault_plan().faults == plan.faults

    def test_hooks_are_noops_without_plan(self):
        from repro import faults
        faults.on_worker_candidate(0, 0)
        assert faults.should_corrupt_row(0) is False
        faults.maybe_raise_sweep(0)
        assert faults.tick_delay_s(0) == 0.0

    def test_sweep_and_tick_windows(self):
        plan = FaultPlan(faults=[
            FaultSpec(kind="raise_sweep", at=2, times=2),
            FaultSpec(kind="delay_tick", at=1, times=1, delay_ms=7.0),
        ])
        plan.maybe_raise_sweep(1)
        with pytest.raises(FaultInjected):
            plan.maybe_raise_sweep(2)
        with pytest.raises(FaultInjected):
            plan.maybe_raise_sweep(3)
        plan.maybe_raise_sweep(4)
        assert plan.tick_delay_s(0) == 0.0
        assert plan.tick_delay_s(1) == pytest.approx(0.007)


# --------------------------------------------------------------------- #
# executor supervision: kill, retry, poison, corrupt
# --------------------------------------------------------------------- #


class TestExecutorChaos:
    def test_worker_kill_recovers_bit_identically(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(5)
        serial = SerialExecutor().run(context, candidates).evaluations()
        install_fault_plan(FaultPlan(faults=[
            FaultSpec(kind="kill_worker", at=1, times=2)]))
        with MultiprocessExecutor(2, chunksize=1, max_retries=3,
                                  backoff_ms=1.0) as ex:
            report = ex.run(context, candidates)
        assert all(r.ok for r in report.results)
        assert report.redispatches >= 1
        assert report.evaluations() == serial

    def test_transient_raise_retries_bit_identically(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(4)
        serial = SerialExecutor().run(context, candidates).evaluations()
        install_fault_plan(FaultPlan(faults=[
            FaultSpec(kind="raise_candidate", at=3, times=1)]))
        with MultiprocessExecutor(2, chunksize=1, max_retries=3,
                                  backoff_ms=1.0) as ex:
            report = ex.run(context, candidates)
        assert all(r.ok for r in report.results)
        assert report.retries >= 1
        assert report.redispatches == 0
        assert report.evaluations() == serial

    def test_poisoned_candidate_fails_alone(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(5)
        serial = SerialExecutor().run(context, candidates).evaluations()
        install_fault_plan(FaultPlan(faults=[
            FaultSpec(kind="kill_worker", at=1, times=99)]))
        with MultiprocessExecutor(2, chunksize=1, max_retries=2,
                                  backoff_ms=1.0) as ex:
            report = ex.run(context, candidates)
        failed = [r.candidate.index for r in report.results if not r.ok]
        assert failed == [1]
        evs = report.evaluations()
        assert evs[1].diverged and evs[1].val_loss == float("inf")
        for i in (0, 2, 3, 4):
            assert evs[i] == serial[i]

    def test_corrupt_row_rescored_bit_identically(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(5)
        serial = SerialExecutor().run(context, candidates).evaluations()
        install_fault_plan(FaultPlan(faults=[
            FaultSpec(kind="corrupt_row", at=2, times=1)]))
        report = VectorizedExecutor(block_size=3).run(context, candidates)
        assert all(r.ok for r in report.results)
        assert report.evaluations() == serial

    def test_context_manager_closes_pool(self, setup):
        data, ext = setup
        context = _context(data, ext)
        with MultiprocessExecutor(2) as ex:
            ex.run(context, _candidates(3))
            assert ex._pool is not None
        assert ex._pool is None


# --------------------------------------------------------------------- #
# serve engine: sweep retry, serial fallback, shedding, backpressure
# --------------------------------------------------------------------- #


def _chaos_replay(model, fault_plan=None, **engine_kw):
    trace = poisson_trace(["m0"], n_sessions=4, chunks_per_session=5,
                          chunk_len=16, n_channels=2, rate_hz=500.0, seed=7)
    engine = ServeEngine(max_batch=4, deadline_ms=50.0, **engine_kw)
    engine.deploy(model)
    rep = replay(engine, trace, time_scale=1.0, clock="virtual",
                 fault_plan=fault_plan)
    return rep, engine.stats()


def _by_key(report):
    return {(r.session_id, r.seq): r for r in report.results}


class TestServeChaos:
    def test_sweep_fault_recovers_bit_identically(self, served_model):
        clean, _ = _chaos_replay(served_model)
        plan = FaultPlan(faults=[
            FaultSpec(kind="raise_sweep", at=2, times=1),
            FaultSpec(kind="delay_tick", at=1, times=1, delay_ms=5.0),
        ])
        faulted, stats = _chaos_replay(served_model, fault_plan=plan)
        assert active_fault_plan() is None  # replay cleared it
        assert stats["sweep_retries"] >= 1
        assert stats["failed_chunks"] == 0
        ck, fk = _by_key(clean), _by_key(faulted)
        assert set(ck) == set(fk)
        for key, c in ck.items():
            f = fk[key]
            assert c.features.tobytes() == f.features.tobytes()
            assert c.scores.tobytes() == f.scores.tobytes()
            assert c.label == f.label and c.n_steps == f.n_steps

    def test_double_sweep_fault_falls_back_serial(self, served_model):
        clean, _ = _chaos_replay(served_model)
        # times=2 exhausts the single fused retry; the serial fallback's
        # per-session attempts (fresh ordinals) recover every chunk
        plan = FaultPlan(faults=[
            FaultSpec(kind="raise_sweep", at=0, times=2)])
        faulted, stats = _chaos_replay(served_model, fault_plan=plan)
        assert stats["serial_fallbacks"] >= 1
        assert stats["failed_chunks"] == 0
        ck, fk = _by_key(clean), _by_key(faulted)
        assert set(ck) == set(fk)
        for key, c in ck.items():
            assert c.features.tobytes() == fk[key].features.tobytes()

    def test_persistent_sweep_failure_fails_chunks_without_hanging(
            self, served_model):
        plan = FaultPlan(faults=[
            FaultSpec(kind="raise_sweep", at=0, times=10_000)])
        faulted, stats = _chaos_replay(served_model, fault_plan=plan)
        assert stats["failed_chunks"] == faulted.n_chunks == 20
        assert all(not r.ok and not r.shed for r in faulted.results)
        assert all("sweep failed" in r.error for r in faulted.results)

    def test_shedding_drops_hopeless_chunks(self, served_model):
        rng = np.random.default_rng(5)
        engine = ServeEngine(max_batch=4, deadline_ms=10.0,
                             shed_after_ms=100.0)
        engine.deploy(served_model)
        vclock = VirtualClock()
        engine.set_clock(vclock)
        sid = engine.open_session("m0")
        engine.submit(sid, rng.standard_normal((16, 2)))
        engine.submit(sid, rng.standard_normal((16, 2)))
        vclock.advance(5.0)  # both hopelessly past their deadlines
        report = engine.tick()
        assert report.shed == 2
        results = engine.pop_results()
        assert [r.shed for r in results] == [True, True]
        assert all("Overloaded" in r.error for r in results)
        # the stream continues cleanly after the gap
        engine.submit(sid, rng.standard_normal((16, 2)))
        engine.drain()
        (scored,) = engine.pop_results()
        assert scored.ok and scored.seq == 2
        assert engine.stats()["shed"] == 2

    def test_chunks_without_deadline_are_never_shed(self, served_model):
        engine = ServeEngine(max_batch=4, deadline_ms=0.0,
                             shed_after_ms=1.0)
        engine.deploy(served_model)
        vclock = VirtualClock()
        engine.set_clock(vclock)
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((16, 2)))
        vclock.advance(60.0)
        report = engine.tick(force=True)
        assert report.shed == 0 and report.processed == 1

    def test_sync_backpressure_bounds_the_queue(self, served_model):
        engine = ServeEngine(max_batch=4, max_pending=2)
        engine.deploy(served_model)
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((16, 2)))
        engine.submit(sid, np.zeros((16, 2)))
        with pytest.raises(Backpressure, match="max_pending"):
            engine.submit(sid, np.zeros((16, 2)))
        assert engine.stats()["backpressure"] == 1
        engine.drain()
        engine.submit(sid, np.zeros((16, 2)))  # space again after drain

    def test_engine_wide_backpressure(self, served_model):
        engine = ServeEngine(max_batch=4, max_pending_total=2)
        engine.deploy(served_model)
        s1 = engine.open_session("m0")
        s2 = engine.open_session("m0")
        engine.submit(s1, np.zeros((16, 2)))
        engine.submit(s2, np.zeros((16, 2)))
        with pytest.raises(Backpressure, match="max_pending_total"):
            engine.submit(s1, np.zeros((16, 2)))

    def test_max_pending_setting(self):
        assert ServeEngine().max_pending == 0
        assert ServeEngine(max_pending=3).max_pending == 3
        for bad in (-1, 2.5, "lots"):
            with pytest.raises(ValueError, match="max_pending"):
                ServeEngine(max_pending=bad)

    def test_virtual_delay_tick_takes_no_real_time(self, served_model):
        import time as _time
        plan = FaultPlan(faults=[
            FaultSpec(kind="delay_tick", at=0, times=50, delay_ms=500.0)])
        t0 = _time.perf_counter()
        faulted, _ = _chaos_replay(served_model, fault_plan=plan)
        assert _time.perf_counter() - t0 < 10.0  # 25 s of injected delay
        assert faulted.n_chunks == 20


# --------------------------------------------------------------------- #
# async engine: awaitable backpressure, exception futures
# --------------------------------------------------------------------- #


class TestAsyncChaos:
    def test_submit_awaits_backpressure_and_all_resolve(self, served_model):
        async def run():
            async with AsyncServeEngine(max_batch=2, max_pending=1,
                                        tick_interval_ms=5.0) as eng:
                eng.deploy(served_model)
                sess = await eng.open_session("m0")
                rng = np.random.default_rng(1)
                futures = [await sess.submit(rng.standard_normal((16, 2)))
                           for _ in range(6)]
                results = await asyncio.gather(*futures)
                stats = eng.stats()
                await sess.close()
                return results, stats

        results, stats = asyncio.run(run())
        assert [r.seq for r in results] == list(range(6))
        assert all(r.ok for r in results)
        assert stats["backpressure_waits"] >= 1

    def test_failed_chunk_resolves_future_with_error(self, served_model):
        async def run():
            install_fault_plan(FaultPlan(faults=[
                FaultSpec(kind="raise_sweep", at=0, times=10_000)]))
            try:
                async with AsyncServeEngine(max_batch=2, sweep_retries=0,
                                            tick_interval_ms=5.0) as eng:
                    eng.deploy(served_model)
                    sess = await eng.open_session("m0")
                    fut = await sess.submit(np.zeros((16, 2)))
                    with pytest.raises(RuntimeError, match="sweep failed"):
                        await fut
                    await sess.close()
            finally:
                clear_fault_plan()

        asyncio.run(run())

    def test_shed_chunk_resolves_future_with_overloaded(self, served_model):
        async def run():
            # engine time is test-driven: the chunk is due at t=0.001 and
            # the clock jumps straight past deadline+grace, so the next
            # background tick must shed it (never serve it)
            t = [0.0]
            engine = ServeEngine(max_batch=2, deadline_ms=1.0,
                                 shed_after_ms=1.0, clock=lambda: t[0])
            async with AsyncServeEngine(engine,
                                        tick_interval_ms=5.0) as eng:
                eng.deploy(served_model)
                sess = await eng.open_session("m0")
                fut = await sess.submit(np.zeros((16, 2)))
                t[0] = 10.0
                with pytest.raises(Overloaded):
                    await fut
                await sess.close()

        asyncio.run(run())


# --------------------------------------------------------------------- #
# eviction races + actionable errors (satellites)
# --------------------------------------------------------------------- #


class TestEvictionRobustness:
    def test_submit_after_checkpoint_discard_names_the_remedy(
            self, served_model):
        t = [0.0]
        engine = ServeEngine(idle_ttl_ms=10.0, clock=lambda: t[0])
        engine.deploy(served_model)
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((16, 2)))
        engine.drain()
        engine.pop_results()
        t[0] = 1.0
        engine.tick()
        assert engine.evicted_sessions() == [sid]
        engine.close_session(sid)  # discards the parked checkpoint
        with pytest.raises(KeyError) as err:
            engine.submit(sid, np.zeros((16, 2)))
        message = str(err.value)
        assert "restore_session" in message
        assert "idle_ttl_ms" in message

    def test_closed_session_error_names_reopen_paths(self, served_model):
        engine = ServeEngine()
        engine.deploy(served_model)
        sid = engine.open_session("m0")
        engine.close_session(sid)
        with pytest.raises(KeyError, match="open_session"):
            engine.submit(sid, np.zeros((16, 2)))

    def test_checkpoint_restore_races_idle_ttl(self, served_model):
        """Submits racing TTL eviction: no chunk lost, no double restore."""
        n_chunks = 30
        engine = ServeEngine(max_batch=2, idle_ttl_ms=0.05)
        engine.deploy(served_model)
        sid = engine.open_session("m0")
        rng = np.random.default_rng(2)
        chunks = rng.standard_normal((n_chunks, 16, 2))
        errors = []
        stop = threading.Event()

        def ticker():
            # aggressive eviction pressure: every tick may checkpoint the
            # session out between one submit and the next
            while not stop.is_set():
                try:
                    engine.tick(force=True)
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)
                    return

        thread = threading.Thread(target=ticker)
        thread.start()
        try:
            for chunk in chunks:
                # submit() transparently restores an evicted session
                engine.submit(sid, chunk)
        finally:
            stop.set()
            thread.join()
        assert not errors
        engine.drain()
        results = engine.pop_results()
        assert len(results) == n_chunks
        assert sorted(r.seq for r in results) == list(range(n_chunks))
        assert all(r.ok for r in results)
        stats = engine.stats()
        assert stats["restores"] == stats["evictions"] >= 0

    def test_restore_while_open_is_rejected(self, served_model):
        engine = ServeEngine()
        engine.deploy(served_model)
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((16, 2)))
        engine.drain()
        engine.pop_results()
        doc = engine.checkpoint_session(sid)
        with pytest.raises(ValueError, match="already open"):
            engine.restore_session(doc)

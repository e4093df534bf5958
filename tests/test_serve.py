"""Tests for the streaming inference engine (repro.serve).

The load-bearing contract: on the NumPy backend, a continuously batched
engine is *bit-identical* to a per-session serial engine replaying the
same chunks — batching trades latency for throughput, never correctness.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import DFRFeatureExtractor
from repro.data.registry import GeneratorSpec, generate, make_spec
from repro.readout.ridge import RidgeModel, fit_ridge
from repro.serve import (
    DEFAULT_MAX_BATCH,
    DeadlineScheduler,
    ServableModel,
    ServeEngine,
    load_model,
    poisson_trace,
    replay,
    spec_trace,
    save_model,
)


@pytest.fixture(scope="module")
def trained():
    """A small fitted pipeline: extractor, (A, B), ridge readout."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal((40, 32, 2))
    y = rng.integers(0, 3, 40)
    ext = DFRFeatureExtractor(n_nodes=8, seed=1).fit(u)
    A, B = 0.4, 0.5
    feats, _ = ext.features(u, A, B)
    ridge = fit_ridge(feats, y, 1e-2)
    return ext, A, B, ridge


def _model(trained, name="m0", A=None, B=None, readout=True):
    ext, a0, b0, ridge = trained
    return ServableModel(
        name=name, A=a0 if A is None else A, B=b0 if B is None else B,
        config=ext.snapshot(), readout=ridge if readout else None,
    )


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #


class TestModelStore:
    def test_save_load_round_trip_is_exact(self, trained, tmp_path):
        model = _model(trained)
        path = save_model(model, str(tmp_path / "m.json"))
        back = load_model(path)
        assert back.name == model.name
        assert back.A == model.A and back.B == model.B
        assert back.fingerprint() == model.fingerprint()
        assert np.array_equal(
            np.asarray(back.config.mask_matrix),
            np.asarray(model.config.mask_matrix),
        )
        assert np.array_equal(back.readout.coef, model.readout.coef)
        # the reloaded pipeline scores bit-identically
        rng = np.random.default_rng(9)
        u = rng.standard_normal((3, 16, 2))
        f_a, _ = model.config.build().features(u, model.A, model.B)
        f_b, _ = back.config.build().features(u, back.A, back.B)
        assert np.array_equal(f_a, f_b)
        assert np.array_equal(
            model.readout.scores(f_a), back.readout.scores(f_b)
        )

    def test_readout_optional(self, trained, tmp_path):
        model = _model(trained, readout=False)
        back = load_model(save_model(model, str(tmp_path / "m.json")))
        assert back.readout is None

    def test_envelope_is_strict(self, trained, tmp_path):
        model = _model(trained)
        path = save_model(model, str(tmp_path / "m.json"))
        with open(path) as fh:
            doc = json.load(fh)

        bad = dict(doc)
        bad["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            ServableModel.from_dict(bad)

        bad = {k: v for k, v in doc.items() if k != "A"}
        with pytest.raises(ValueError, match="missing keys"):
            ServableModel.from_dict(bad)

        bad = dict(doc)
        bad["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            ServableModel.from_dict(bad)

        bad = dict(doc)
        bad["format"] = "something-else"
        with pytest.raises(ValueError, match="not a repro-dfr-model"):
            ServableModel.from_dict(bad)

    def test_embedded_config_schema_is_strict(self, trained, tmp_path):
        model = _model(trained)
        path = save_model(model, str(tmp_path / "m.json"))
        with open(path) as fh:
            doc = json.load(fh)
        doc["config"]["version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ServableModel.from_dict(doc)

    def test_ridge_model_dict_round_trip(self, trained):
        _, _, _, ridge = trained
        back = RidgeModel.from_dict(
            json.loads(json.dumps(ridge.to_dict()))
        )
        f = np.random.default_rng(0).standard_normal((5, ridge.coef.shape[0]))
        assert np.array_equal(back.scores(f), ridge.scores(f))
        with pytest.raises(ValueError, match="unknown keys"):
            RidgeModel.from_dict({**ridge.to_dict(), "bonus": 1})

    def test_nonfinite_params_rejected(self, trained):
        ext, _, _, _ = trained
        with pytest.raises(ValueError, match="finite"):
            ServableModel(name="bad", A=np.nan, B=0.5, config=ext.snapshot())

    def test_fingerprint_ignores_parameters_and_backend(self, trained):
        # same pipeline, different (A, B) / backend prefs -> same sweep
        a = _model(trained, A=0.2, B=0.7)
        b = _model(trained, A=0.9, B=0.1)
        assert a.fingerprint() == b.fingerprint()
        ext, _, _, _ = trained
        cfg = ext.snapshot()
        cfg.backend = "numpy@float32"
        c = ServableModel(name="c", A=0.2, B=0.7, config=cfg)
        assert c.fingerprint() == a.fingerprint()


# --------------------------------------------------------------------- #
# engine semantics
# --------------------------------------------------------------------- #


class TestEngineScheduling:
    def test_submit_computes_nothing_until_tick(self, trained):
        engine = ServeEngine(max_batch=8)
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        assert engine.pop_results() == []
        engine.tick()
        results = engine.pop_results()
        assert len(results) == 1
        assert results[0].session_id == sid and results[0].seq == 0

    def test_fifo_order_and_requeue(self, trained):
        # two chunks on one session: only the head goes per tick, the
        # session re-enters the queue behind the others
        engine = ServeEngine(max_batch=8)
        engine.deploy(_model(trained))
        s1, s2 = engine.open_session("m0"), engine.open_session("m0")
        rng = np.random.default_rng(0)
        engine.submit(s1, rng.standard_normal((4, 2)))
        engine.submit(s1, rng.standard_normal((4, 2)))
        engine.submit(s2, rng.standard_normal((4, 2)))
        r1 = engine.tick()
        assert r1.processed == 2  # one chunk per session
        r2 = engine.tick()
        assert r2.processed == 1  # s1's second chunk
        seqs = [(r.session_id, r.seq) for r in engine.pop_results()]
        assert seqs == [(s1, 0), (s2, 0), (s1, 1)]

    def test_max_batch_bounds_a_tick(self, trained):
        engine = ServeEngine(max_batch=2)
        engine.deploy(_model(trained))
        sids = [engine.open_session("m0") for _ in range(5)]
        for sid in sids:
            engine.submit(sid, np.zeros((4, 2)))
        assert engine.tick().processed == 2
        assert engine.tick().processed == 2
        assert engine.tick().processed == 1

    def test_max_wait_defers_partial_batches(self, trained):
        t = [0.0]
        engine = ServeEngine(max_batch=4, deadline_ms=50.0,
                             clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        report = engine.tick()
        assert report.deferred and report.processed == 0
        t[0] = 0.010  # 10 ms: still inside the wait budget
        assert engine.tick().deferred
        t[0] = 0.051  # deadline passed: the partial batch goes
        report = engine.tick()
        assert not report.deferred and report.processed == 1

    def test_full_batch_is_never_deferred(self, trained):
        t = [0.0]
        engine = ServeEngine(max_batch=2, deadline_ms=1e6,
                             clock=lambda: t[0])
        engine.deploy(_model(trained))
        for _ in range(2):
            sid = engine.open_session("m0")
            engine.submit(sid, np.zeros((4, 2)))
        report = engine.tick()
        assert report.processed == 2 and not report.deferred

    def test_force_overrides_deferral(self, trained):
        engine = ServeEngine(max_batch=4, deadline_ms=1e6)
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        assert engine.tick().deferred
        assert engine.tick(force=True).processed == 1

    def test_submit_validation(self, trained):
        engine = ServeEngine(max_batch=4, window=3)
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        with pytest.raises(ValueError, match="channels"):
            engine.submit(sid, np.zeros((4, 5)))
        with pytest.raises(ValueError, match="window"):
            engine.submit(sid, np.zeros((2, 2)))  # shorter than window
        with pytest.raises(ValueError, match="\\(T, C\\)"):
            engine.submit(sid, np.zeros(4))
        with pytest.raises(KeyError):
            engine.submit("nope", np.zeros((4, 2)))

    def test_lifecycle_errors(self, trained):
        engine = ServeEngine()
        model = _model(trained)
        engine.deploy(model)
        with pytest.raises(ValueError, match="already deployed"):
            engine.deploy(model)
        with pytest.raises(KeyError):
            engine.open_session("ghost")
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        with pytest.raises(RuntimeError, match="pending"):
            engine.close_session(sid)
        engine.close_session(sid, discard=True)
        with pytest.raises(KeyError):
            engine.submit(sid, np.zeros((4, 2)))

    def test_occupancy_accounting(self, trained):
        engine = ServeEngine(max_batch=4)
        engine.deploy(_model(trained))
        for _ in range(2):
            sid = engine.open_session("m0")
            engine.submit(sid, np.zeros((4, 2)))
        report = engine.tick()
        assert report.sweeps == 1
        assert report.occupancy == pytest.approx(0.5)
        assert engine.stats()["mean_occupancy"] == pytest.approx(0.5)

    def test_max_batch_setting(self):
        assert ServeEngine().max_batch == DEFAULT_MAX_BATCH
        assert ServeEngine(max_batch=7).max_batch == 7
        for bad in (0, 2.9, float("inf")):
            with pytest.raises(ValueError, match="max_batch"):
                ServeEngine(max_batch=bad)

    def test_threaded_submit_while_ticking(self, trained):
        # submits racing ticks from another thread neither crash nor lose
        # chunks
        engine = ServeEngine(max_batch=8)
        engine.deploy(_model(trained))
        sids = [engine.open_session("m0") for _ in range(4)]
        rng = np.random.default_rng(0)
        chunks = rng.standard_normal((4, 6, 4, 2))
        stop = threading.Event()

        def ticker():
            while not stop.is_set():
                engine.tick()

        t = threading.Thread(target=ticker)
        t.start()
        try:
            for c in range(6):
                for i, sid in enumerate(sids):
                    engine.submit(sid, chunks[i, c])
        finally:
            stop.set()
            t.join()
        engine.drain()
        results = engine.pop_results()
        assert len(results) == 24
        for sid in sids:
            seqs = [r.seq for r in results if r.session_id == sid]
            assert seqs == sorted(seqs) == list(range(6))


# --------------------------------------------------------------------- #
# correctness: batched == serial == offline
# --------------------------------------------------------------------- #


def _run_engine(models, assignments, chunk_plan, max_batch, window=1):
    """Push a fixed chunk plan through an engine; return results by stream."""
    engine = ServeEngine(max_batch=max_batch, window=window)
    for model in models:
        engine.deploy(model)
    sids = [engine.open_session(name) for name in assignments]
    for round_chunks in chunk_plan:
        for i, chunk in enumerate(round_chunks):
            engine.submit(sids[i], chunk)
    engine.drain()
    by_stream = {}
    for r in engine.pop_results():
        by_stream.setdefault(sids.index(r.session_id), []).append(r)
    return by_stream


class TestBatchedEqualsSerial:
    def test_single_model_bitwise(self, trained):
        rng = np.random.default_rng(7)
        streams = 6
        chunk_plan = [
            [rng.standard_normal((8, 2)) for _ in range(streams)]
            for _ in range(3)
        ]
        models = [_model(trained)]
        names = ["m0"] * streams
        serial = _run_engine(models, names, chunk_plan, max_batch=1)
        batched = _run_engine(models, names, chunk_plan, max_batch=64)
        for i in range(streams):
            for r_s, r_b in zip(serial[i], batched[i]):
                assert r_s.seq == r_b.seq
                assert np.array_equal(r_s.features, r_b.features)
                assert np.array_equal(r_s.scores, r_b.scores)
                assert r_s.label == r_b.label
                assert r_s.n_steps == r_b.n_steps

    def test_heterogeneous_models_bitwise(self, trained):
        # three models sharing the pipeline: candidate-axis packing must
        # give every stream exactly its own model's numbers
        rng = np.random.default_rng(8)
        models = [
            _model(trained, name="ma", A=0.3, B=0.6),
            _model(trained, name="mb", A=0.7, B=0.2),
            _model(trained, name="mc", A=0.5, B=0.5),
        ]
        streams = 9
        names = [models[i % 3].name for i in range(streams)]
        chunk_plan = [
            [rng.standard_normal((8, 2)) for _ in range(streams)]
            for _ in range(2)
        ]
        serial = _run_engine(models, names, chunk_plan, max_batch=1)
        batched = _run_engine(models, names, chunk_plan, max_batch=64)
        for i in range(streams):
            for r_s, r_b in zip(serial[i], batched[i]):
                assert r_b.model_name == names[i]
                assert np.array_equal(r_s.features, r_b.features)
                assert np.array_equal(r_s.scores, r_b.scores)
        # the batched run actually fused models onto the candidate axis
        assert any(r.batch_models == 3
                   for rs in batched.values() for r in rs)

    def test_matches_offline_pipeline(self, trained):
        # the engine's cumulative features converge on the one-shot
        # offline extractor (per-step drive vs one-shot GEMM: tight
        # tolerance, not bits)
        ext, A, B, ridge = trained
        rng = np.random.default_rng(9)
        streams_u = rng.standard_normal((4, 24, 2))
        chunk_plan = [
            [streams_u[i, c * 8:(c + 1) * 8] for i in range(4)]
            for c in range(3)
        ]
        out = _run_engine([_model(trained)], ["m0"] * 4, chunk_plan,
                          max_batch=16)
        f_off, _ = ext.features(streams_u, A, B)
        for i in range(4):
            final = max(out[i], key=lambda r: r.seq)
            assert final.n_steps == 24
            np.testing.assert_allclose(
                final.features, f_off[i], rtol=1e-12, atol=1e-13
            )
            np.testing.assert_allclose(
                final.scores, ridge.scores(f_off[i][None])[0],
                rtol=1e-12, atol=1e-13,
            )

    def test_chunking_pattern_is_irrelevant(self, trained):
        # same stream cut 8+8+8 vs 4+12+8: identical final state bits
        rng = np.random.default_rng(10)
        u = rng.standard_normal((24, 2))
        outs = []
        for cuts in ((8, 16), (4, 16)):
            engine = ServeEngine(max_batch=4)
            engine.deploy(_model(trained))
            sid = engine.open_session("m0")
            prev = 0
            for stop in (*cuts, 24):
                engine.submit(sid, u[prev:stop])
                prev = stop
            engine.drain()
            outs.append(max(engine.pop_results(), key=lambda r: r.seq))
        assert np.array_equal(outs[0].features, outs[1].features)
        assert outs[0].n_steps == outs[1].n_steps == 24

    def test_different_pipelines_never_share_a_sweep(self, trained):
        # a second model with its own mask gets its own bucket
        rng = np.random.default_rng(11)
        other_ext = DFRFeatureExtractor(n_nodes=8, seed=99).fit(
            rng.standard_normal((10, 16, 2)))
        other = ServableModel(name="other", A=0.4, B=0.5,
                              config=other_ext.snapshot())
        model = _model(trained)
        assert other.fingerprint() != model.fingerprint()
        engine = ServeEngine(max_batch=8)
        engine.deploy(model)
        engine.deploy(other)
        s1 = engine.open_session("m0")
        s2 = engine.open_session("other")
        chunk = rng.standard_normal((6, 2))
        engine.submit(s1, chunk)
        engine.submit(s2, chunk)
        report = engine.tick()
        assert report.processed == 2 and report.sweeps == 2
        results = {r.session_id: r for r in engine.pop_results()}
        assert results[s1].batch_models == results[s2].batch_models == 1
        assert not np.array_equal(results[s1].features, results[s2].features)


# --------------------------------------------------------------------- #
# traffic replay
# --------------------------------------------------------------------- #


class TestReplay:
    def test_trace_is_deterministic(self):
        a = poisson_trace(["m0"], n_sessions=4, chunks_per_session=3,
                          chunk_len=8, n_channels=2, seed=5)
        b = poisson_trace(["m0"], n_sessions=4, chunks_per_session=3,
                          chunk_len=8, n_channels=2, seed=5)
        assert len(a.events) == len(b.events) == 12
        for ea, eb in zip(a.events, b.events):
            assert ea.t == eb.t and ea.stream == eb.stream
            assert np.array_equal(ea.data, eb.data)
        c = poisson_trace(["m0"], n_sessions=4, chunks_per_session=3,
                          chunk_len=8, n_channels=2, seed=6)
        assert any(not np.array_equal(ea.data, ec.data)
                   for ea, ec in zip(a.events, c.events))

    def test_trace_arrivals_are_ordered_per_stream(self):
        trace = poisson_trace(["m0"], n_sessions=3, chunks_per_session=5,
                              chunk_len=4, n_channels=1, seed=1)
        per_stream = {}
        for event in trace.events:
            per_stream.setdefault(event.stream, []).append(event)
        for events in per_stream.values():
            assert [e.seq for e in events] == sorted(e.seq for e in events)
            ts = [e.t for e in events]
            assert ts == sorted(ts)

    def test_replay_outputs_identical_across_engine_configs(self, trained):
        trace = poisson_trace(["m0"], n_sessions=6, chunks_per_session=3,
                              chunk_len=8, n_channels=2, seed=3)

        def outputs(max_batch):
            engine = ServeEngine(max_batch=max_batch)
            engine.deploy(_model(trained))
            report = replay(engine, trace)
            return {(r.session_id, r.seq): r for r in report.results}

        serial, batched = outputs(1), outputs(32)
        assert set(serial) == set(batched) and len(serial) == 18
        for key in serial:
            assert np.array_equal(serial[key].features,
                                  batched[key].features)
            assert np.array_equal(serial[key].scores, batched[key].scores)

    def test_spec_trace_payloads_match_eager_generation(self):
        spec = make_spec("narma", seed=3, n_steps=64, order=5)
        trace = spec_trace(["m0"], spec, n_sessions=2, chunks_per_session=4,
                           chunk_len=16, seed=9)
        again = spec_trace(["m0"], spec, n_sessions=2, chunks_per_session=4,
                           chunk_len=16, seed=9)
        assert len(trace.events) == 8
        for ea, eb in zip(trace.events, again.events):
            assert ea.t == eb.t
            np.testing.assert_array_equal(ea.data, eb.data)
        # stream s replays the spec regenerated with seed spec.seed + s,
        # bit-identical to eager generation
        for stream in range(2):
            chunks = sorted((e for e in trace.events if e.stream == stream),
                            key=lambda e: e.seq)
            replayed = np.concatenate([e.data[:, 0] for e in chunks])
            eager = generate(GeneratorSpec("narma", dict(spec.params),
                                           seed=spec.seed + stream))["u"]
            np.testing.assert_array_equal(replayed, eager)

    def test_spec_trace_validation(self):
        series = make_spec("narma", seed=0, n_steps=64, order=5)
        with pytest.raises(ValueError, match="series-kind"):
            spec_trace(["m0"], make_spec("harmonic", seed=0), n_sessions=1,
                       chunks_per_session=1, chunk_len=4)
        with pytest.raises(ValueError, match="ran dry"):
            spec_trace(["m0"], series, n_sessions=1, chunks_per_session=99,
                       chunk_len=16)

    def test_spec_trace_replays_through_engine(self, trained):
        spec = make_spec("eeg_pink", seed=1, n_steps=32, n_channels=2)
        trace = spec_trace(["m0"], spec, n_sessions=3, chunks_per_session=2,
                           chunk_len=16, seed=2)
        assert trace.events[0].data.shape == (16, 2)
        engine = ServeEngine(max_batch=8)
        engine.deploy(_model(trained))
        report = replay(engine, trace)
        assert report.n_chunks == 6

    def test_replay_report_accounting(self, trained):
        engine = ServeEngine(max_batch=16)
        engine.deploy(_model(trained))
        trace = poisson_trace(["m0"], n_sessions=5, chunks_per_session=2,
                              chunk_len=8, n_channels=2, seed=4)
        report = replay(engine, trace)
        assert report.n_sessions == 5
        assert report.n_chunks == 10
        assert report.wall_s > 0
        assert report.sessions_per_sec > 0
        assert 0 < report.mean_occupancy <= 1
        assert report.p99_ms >= report.p50_ms >= 0
        d = report.to_dict()
        assert "results" not in d and d["n_chunks"] == 10
        # every session was closed on the way out
        assert engine._sessions == {}


# --------------------------------------------------------------------- #
# deadline scheduling (PR 9)
# --------------------------------------------------------------------- #


class TestDeadlineScheduler:
    """Unit pins on the EDF scheduler itself (no engine, no clock)."""

    def test_edf_order_within_a_bucket(self):
        sched = DeadlineScheduler()
        key = ("fp", 8)
        sched.enqueue("a", key, 3.0)
        sched.enqueue("b", key, 1.0)
        sched.enqueue("c", key, 2.0)
        plan, held = sched.select(0.0, force=True, max_batch=8)
        assert plan == [(key, ["b", "c", "a"])]
        assert not held and len(sched) == 0

    def test_fifo_among_equal_deadlines(self):
        sched = DeadlineScheduler()
        key = ("fp", 8)
        for sid in ("a", "b", "c"):
            sched.enqueue(sid, key, 5.0)
        plan, _ = sched.select(10.0, force=False, max_batch=8)
        assert plan == [(key, ["a", "b", "c"])]

    def test_not_due_until_deadline_minus_margin(self):
        sched = DeadlineScheduler()
        key = ("fp", 8)
        sched.enqueue("a", key, 1.0)
        plan, held = sched.select(0.5, force=False, max_batch=8)
        assert plan == [] and held
        plan, held = sched.select(0.5, force=False, max_batch=8,
                                  margin_s=0.6)
        assert plan == [(key, ["a"])] and not held

    def test_full_bucket_fires_regardless_of_deadline(self):
        sched = DeadlineScheduler()
        key = ("fp", 8)
        sched.enqueue("a", key, 1e9)
        sched.enqueue("b", key, 1e9)
        plan, _ = sched.select(0.0, force=False, max_batch=2)
        assert plan == [(key, ["a", "b"])]

    def test_max_batch_overflow_is_held(self):
        sched = DeadlineScheduler()
        key = ("fp", 8)
        for i in range(5):
            sched.enqueue(f"s{i}", key, float(i))
        plan, held = sched.select(100.0, force=False, max_batch=2)
        assert plan == [(key, ["s0", "s1"])] and held
        assert len(sched) == 3

    def test_buckets_fire_independently(self):
        sched = DeadlineScheduler()
        sched.enqueue("a", ("fp", 8), 1.0)
        sched.enqueue("b", ("fp", 16), 50.0)
        plan, held = sched.select(2.0, force=False, max_batch=8)
        assert plan == [(("fp", 8), ["a"])] and held
        assert "b" in sched and "a" not in sched

    def test_double_enqueue_rejected_and_remove(self):
        sched = DeadlineScheduler()
        sched.enqueue("a", ("fp", 8), 1.0)
        with pytest.raises(RuntimeError, match="already scheduled"):
            sched.enqueue("a", ("fp", 8), 2.0)
        sched.remove("a")
        sched.remove("a")  # idempotent
        assert sched.next_deadline() is None
        sched.enqueue("a", ("fp", 8), 4.0)  # re-enqueue after removal works
        assert sched.next_deadline() == 4.0

    def test_observe_sweep_ewma(self):
        sched = DeadlineScheduler()
        assert sched.sweep_ewma_s == 0.0
        sched.observe_sweep(0.010)
        assert sched.sweep_ewma_s == pytest.approx(0.010)
        sched.observe_sweep(0.020, alpha=0.5)
        assert sched.sweep_ewma_s == pytest.approx(0.015)


class TestDeadlineEngine:
    def test_head_deadline_fires_partial_batch_edf_first(self, trained):
        # s2's chunk arrives later but with the tighter budget; when it
        # expires the bucket fires as a partial batch, s2 first (EDF)
        t = [0.0]
        engine = ServeEngine(max_batch=8, deadline_ms=100.0,
                             clock=lambda: t[0])
        engine.deploy(_model(trained))
        s1 = engine.open_session("m0")
        s2 = engine.open_session("m0")
        engine.submit(s1, np.zeros((4, 2)))
        t[0] = 0.002
        engine.submit(s2, np.zeros((4, 2)), deadline_ms=10.0)
        t[0] = 0.005  # nobody due yet
        assert engine.tick().deferred
        t[0] = 0.0125  # s2's deadline (2 + 10 ms) passed; s1 has 87 ms left
        report = engine.tick()
        assert report.processed == 2 and not report.deferred
        results = engine.pop_results()
        assert [r.session_id for r in results] == [s2, s1]
        assert results[0].deadline == pytest.approx(0.012)
        assert results[1].deadline == pytest.approx(0.100)

    def test_session_default_and_submit_override(self, trained):
        t = [0.0]
        engine = ServeEngine(max_batch=8, deadline_ms=100.0,
                             clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0", deadline_ms=40.0)
        engine.submit(sid, np.zeros((4, 2)))  # session default: 40 ms
        engine.tick(force=True)
        engine.submit(sid, np.zeros((4, 2)), deadline_ms=7.0)
        engine.tick(force=True)
        first, second = engine.pop_results()
        assert first.deadline == pytest.approx(0.040)
        assert second.deadline == pytest.approx(0.007)

    def test_violations_and_slack_accounting(self, trained):
        t = [0.0]
        engine = ServeEngine(max_batch=8, clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)), deadline_ms=10.0)
        t[0] = 0.030  # way past the deadline before anything ticks
        report = engine.tick()
        assert report.processed == 1 and report.violations == 1
        assert report.min_slack_ms == pytest.approx(-20.0)
        (res,) = engine.pop_results()
        assert res.violated and res.slack_ms == pytest.approx(-20.0)
        stats = engine.stats()
        assert stats["violations"] == 1 and stats["deadline_chunks"] == 1
        assert stats["min_slack_ms"] == pytest.approx(-20.0)

    def test_zero_budget_chunks_are_exempt(self, trained):
        t = [0.0]
        engine = ServeEngine(max_batch=8, clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))  # default budget 0
        t[0] = 123.0
        engine.tick()
        (res,) = engine.pop_results()
        assert res.deadline is None and res.slack_ms is None
        assert not res.violated
        stats = engine.stats()
        assert stats["violations"] == 0 and stats["deadline_chunks"] == 0

    def test_deadline_setting(self, trained):
        assert ServeEngine().deadline_ms == 0.0
        engine = ServeEngine(deadline_ms=25.0)
        assert engine.deadline_ms == 25.0
        engine.deploy(_model(trained))
        for bad in (-1.0, float("inf"), "never"):
            with pytest.raises(ValueError, match="deadline_ms"):
                ServeEngine(deadline_ms=bad)
            # the per-session and per-submit budgets take the same check
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.open_session("m0", deadline_ms=bad)
            sid = engine.open_session("m0")
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit(sid, np.zeros((4, 2)), deadline_ms=bad)

    def test_slack_margin_validation(self, trained):
        engine = ServeEngine(slack_margin_ms="auto")
        assert engine.margin_s == 0.0  # EWMA starts cold
        assert ServeEngine(slack_margin_ms=4.0).margin_s == pytest.approx(
            0.004)
        with pytest.raises(ValueError, match="slack_margin_ms"):
            ServeEngine(slack_margin_ms=-1.0)

    def test_fixed_margin_fires_early(self, trained):
        t = [0.0]
        engine = ServeEngine(max_batch=8, deadline_ms=50.0,
                             slack_margin_ms=20.0, clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        t[0] = 0.029  # before deadline - margin
        assert engine.tick().deferred
        t[0] = 0.031  # inside the margin window: fire early, meet deadline
        report = engine.tick()
        assert report.processed == 1 and report.violations == 0
        assert engine.pop_results()[0].slack_ms > 0


# --------------------------------------------------------------------- #
# eviction + checkpoint/restore (PR 9)
# --------------------------------------------------------------------- #


class TestCheckpointRestore:
    def _submit_drain(self, engine, sid, chunk):
        engine.submit(sid, chunk)
        engine.drain()

    def test_round_trip_is_bit_exact_through_json(self, trained):
        rng = np.random.default_rng(11)
        c1, c2 = rng.standard_normal((2, 8, 2))
        engine = ServeEngine(max_batch=4)
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        self._submit_drain(engine, sid, c1)
        engine.pop_results()
        doc = json.loads(json.dumps(engine.checkpoint_session(sid)))
        engine.close_session(sid)
        assert engine.restore_session(doc) == sid
        self._submit_drain(engine, sid, c2)
        (resumed,) = engine.pop_results()

        control = ServeEngine(max_batch=4)
        control.deploy(_model(trained))
        cid = control.open_session("m0")
        self._submit_drain(control, cid, c1)
        self._submit_drain(control, cid, c2)
        straight = control.pop_results()[-1]
        assert resumed.features.tobytes() == straight.features.tobytes()
        assert resumed.scores.tobytes() == straight.scores.tobytes()
        assert resumed.n_steps == straight.n_steps
        assert resumed.seq == straight.seq

    def test_checkpoint_refuses_pending(self, trained):
        engine = ServeEngine()
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        with pytest.raises(RuntimeError, match="pending"):
            engine.checkpoint_session(sid)

    def test_restore_envelope_is_strict(self, trained):
        engine = ServeEngine()
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        self._submit_drain(engine, sid, np.zeros((4, 2)))
        doc = engine.checkpoint_session(sid)
        engine.close_session(sid)
        with pytest.raises(ValueError, match="unknown keys"):
            engine.restore_session({**doc, "extra": 1})
        with pytest.raises(ValueError, match="missing keys"):
            engine.restore_session(
                {k: v for k, v in doc.items() if k != "n_steps"})
        with pytest.raises(ValueError, match="format"):
            engine.restore_session({**doc, "format": "other"})
        with pytest.raises(ValueError, match="format_version"):
            engine.restore_session({**doc, "format_version": 99})
        with pytest.raises(ValueError, match="fingerprint"):
            engine.restore_session({**doc, "fingerprint": "deadbeef"})
        with pytest.raises(ValueError, match="window"):
            engine.restore_session({**doc, "window": 3})
        with pytest.raises(KeyError, match="ghost"):
            engine.restore_session({**doc, "model_name": "ghost"})
        engine.restore_session(doc)
        with pytest.raises(ValueError, match="already open"):
            engine.restore_session(doc)

    def test_idle_ttl_evicts_and_submit_restores(self, trained):
        rng = np.random.default_rng(3)
        c1, c2 = rng.standard_normal((2, 8, 2))
        t = [0.0]
        engine = ServeEngine(max_batch=4, idle_ttl_ms=100.0,
                             clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        self._submit_drain(engine, sid, c1)
        engine.pop_results()
        t[0] = 0.05
        assert engine.tick().evicted == 0  # still inside the TTL
        t[0] = 0.25
        report = engine.tick()
        assert report.evicted == 1
        assert engine.evicted_sessions() == [sid]
        assert sid not in engine.sessions()
        # a submit to the evicted id transparently restores the session
        self._submit_drain(engine, sid, c2)
        (resumed,) = engine.pop_results()
        stats = engine.stats()
        assert stats["evictions"] == 1 and stats["restores"] == 1

        control = ServeEngine(max_batch=4)
        control.deploy(_model(trained))
        cid = control.open_session("m0")
        self._submit_drain(control, cid, c1)
        self._submit_drain(control, cid, c2)
        straight = control.pop_results()[-1]
        assert resumed.features.tobytes() == straight.features.tobytes()
        assert resumed.seq == straight.seq == 1

    def test_idle_ttl_setting(self):
        assert ServeEngine().idle_ttl_ms == 0.0
        assert ServeEngine(idle_ttl_ms=250.0).idle_ttl_ms == 250.0
        for bad in (-1.0, float("inf"), "forever"):
            with pytest.raises(ValueError, match="idle_ttl_ms"):
                ServeEngine(idle_ttl_ms=bad)

    def test_close_discards_eviction_checkpoint(self, trained):
        t = [0.0]
        engine = ServeEngine(idle_ttl_ms=10.0, clock=lambda: t[0])
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        engine.drain()
        t[0] = 1.0
        engine.tick()
        assert engine.evicted_sessions() == [sid]
        engine.close_session(sid)
        assert engine.evicted_sessions() == []


class TestRestoreIsAllOrNothing:
    """A refused restore leaves the engine as it was (never drain after)."""

    @staticmethod
    def _closed_checkpoint(trained):
        engine = ServeEngine()
        engine.deploy(_model(trained))
        sid = engine.open_session("m0")
        engine.submit(sid, np.zeros((4, 2)))
        engine.drain()
        doc = engine.checkpoint_session(sid)
        engine.close_session(sid)
        return engine, doc

    def test_carry_missing_a_key_registers_nothing(self, trained):
        engine, doc = self._closed_checkpoint(trained)
        carry = {k: v for k, v in doc["carry"].items() if k != "p_sum"}
        with pytest.raises(ValueError, match="p_sum"):
            engine.restore_session({**doc, "carry": carry})
        assert engine.sessions() == []
        assert engine.stats()["restores"] == 0
        assert engine.restore_session(doc) == doc["session_id"]

    def test_carry_shaped_for_another_window_is_refused(self, trained):
        engine, doc = self._closed_checkpoint(trained)
        ring = doc["carry"]["window_states"]
        carry = {**doc["carry"], "window_states": ring + ring[:1]}
        with pytest.raises(ValueError, match="window"):
            engine.restore_session({**doc, "carry": carry})
        assert engine.sessions() == []
        assert engine.stats()["restores"] == 0


# --------------------------------------------------------------------- #
# virtual-clock replay (PR 9)
# --------------------------------------------------------------------- #


class TestVirtualReplay:
    def test_virtual_replay_takes_no_real_time(self, trained):
        engine = ServeEngine(max_batch=8, deadline_ms=100.0)
        engine.deploy(_model(trained))
        # ~8 virtual seconds of traffic (rate 0.5 Hz per stream)
        trace = poisson_trace(["m0"], n_sessions=2, chunks_per_session=2,
                              chunk_len=8, n_channels=2, rate_hz=0.5,
                              seed=9)
        start = time.perf_counter()
        report = replay(engine, trace, time_scale=1.0, clock="virtual")
        elapsed = time.perf_counter() - start
        assert report.clock == "virtual"
        assert report.n_chunks == 4
        assert report.wall_s > 1.0       # virtual seconds elapsed...
        assert elapsed < report.wall_s   # ...but not real ones

    def test_virtual_replay_is_deterministic(self, trained):
        trace = poisson_trace(["m0"], n_sessions=4, chunks_per_session=3,
                              chunk_len=8, n_channels=2, seed=5)

        def run():
            engine = ServeEngine(max_batch=4, deadline_ms=20.0)
            engine.deploy(_model(trained))
            return replay(engine, trace, time_scale=1.0, clock="virtual")

        a, b = run(), run()
        stamps = lambda rep: [(r.session_id, r.seq, r.arrival, r.completed,
                               r.deadline) for r in rep.results]
        assert stamps(a) == stamps(b)
        assert a.p99_ms == b.p99_ms and a.violations == b.violations

    def test_virtual_outputs_match_wall_replay_bitwise(self, trained):
        trace = poisson_trace(["m0"], n_sessions=4, chunks_per_session=3,
                              chunk_len=8, n_channels=2, seed=6)
        virt = ServeEngine(max_batch=4, deadline_ms=15.0)
        virt.deploy(_model(trained))
        vrep = replay(virt, trace, time_scale=1.0, clock="virtual")
        wall = ServeEngine(max_batch=4)
        wall.deploy(_model(trained))
        wrep = replay(wall, trace)
        bits = lambda rep: {
            (r.session_id, r.seq): (r.features.tobytes(),
                                    r.scores.tobytes(), r.label)
            for r in rep.results
        }
        assert bits(vrep) == bits(wrep)

    def test_virtual_deadline_mechanics(self, trained):
        # with budgets wider than the arrival gaps, the deadline holds
        # batch chunks up: fewer sweeps than chunks, no violations
        engine = ServeEngine(max_batch=16, deadline_ms=200.0)
        engine.deploy(_model(trained))
        trace = poisson_trace(["m0"], n_sessions=8, chunks_per_session=2,
                              chunk_len=8, n_channels=2, rate_hz=200.0,
                              seed=7)
        report = replay(engine, trace, time_scale=1.0, clock="virtual")
        assert report.deadline_chunks == report.n_chunks == 16
        assert report.violations == 0
        assert report.min_slack_ms is not None and report.min_slack_ms >= 0
        assert report.sweeps < report.n_chunks

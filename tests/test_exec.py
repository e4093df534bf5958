"""Tests for the unified candidate-execution layer (repro.exec)."""

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.exec.context as exec_context
import repro.exec.executors as executors
from repro.core.pipeline import DFRFeatureExtractor, FixedParamsEvaluation
from repro.data.loaders import make_toy_dataset
from repro.exec import (
    Candidate,
    EvaluationContext,
    MultiprocessExecutor,
    SerialExecutor,
    derive_candidate_seed,
    derive_candidate_seeds,
    make_executor,
    resolve_workers,
)


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


class TestSeeding:
    def test_pure_in_base_and_index(self):
        assert derive_candidate_seed(42, 3) == derive_candidate_seed(42, 3)

    def test_distinct_across_indices_and_bases(self):
        seeds = derive_candidate_seeds(42, 50)
        assert len(set(seeds)) == 50
        assert derive_candidate_seed(42, 0) != derive_candidate_seed(43, 0)

    def test_vector_form_matches_scalar(self):
        assert derive_candidate_seeds(7, 4) == [
            derive_candidate_seed(7, i) for i in range(4)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_candidate_seed(0, -1)
        with pytest.raises(ValueError):
            derive_candidate_seeds(0, -1)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_invalid_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers(None) == 1

    def test_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_make_executor_kinds(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(2), MultiprocessExecutor)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        ex = make_executor(None)
        assert isinstance(ex, MultiprocessExecutor)
        assert ex.workers == 2


class TestSerialExecutor:
    def test_results_in_candidate_order_with_timing(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(4)
        report = SerialExecutor().run(context, candidates)
        assert [r.candidate.index for r in report.results] == [0, 1, 2, 3]
        assert all(r.ok for r in report.results)
        assert report.wall_seconds > 0
        assert report.compute_seconds > 0
        assert all(r.compute_seconds > 0 for r in report.results)
        evs = report.evaluations()
        assert [ev.A for ev in evs] == [c.A for c in candidates]

    def test_failure_is_isolated(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(3)
        candidates[1] = Candidate(index=1, A=float("nan"), B=0.1, seed=0)
        report = SerialExecutor().run(context, candidates)
        assert report.n_failed == 1
        assert report.results[0].ok and report.results[2].ok
        bad = report.results[1]
        assert bad.evaluation is None
        assert "ValueError" in bad.error
        evs = report.evaluations()
        assert evs[1].diverged
        assert evs[1].val_loss == float("inf")
        assert evs[1].val_accuracy == 0.0
        assert evs[1].error == bad.error
        assert evs[0] == report.results[0].evaluation


class TestMultiprocessExecutor:
    def test_bit_identical_to_serial(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(6)
        serial = SerialExecutor().run(context, candidates).evaluations()
        parallel = MultiprocessExecutor(2).run(context, candidates).evaluations()
        assert serial == parallel

    def test_identical_across_worker_counts_and_chunking(self, setup):
        data, ext = setup
        # no explicit candidate seeds: the executor derives them from
        # base_seed via spawn-key splitting, so the evaluations must not
        # depend on worker count or chunk size
        context = _context(data, ext, base_seed=99)
        candidates = [
            Candidate(index=i, A=0.05 * (i + 1), B=0.02 * (i + 1))
            for i in range(5)
        ]
        reference = SerialExecutor().run(context, candidates).evaluations()
        for executor in (MultiprocessExecutor(2),
                         MultiprocessExecutor(3, chunksize=1)):
            assert executor.run(context, candidates).evaluations() == reference

    def test_worker_failure_does_not_kill_submission(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(4)
        candidates[2] = Candidate(index=2, A=float("nan"), B=0.1, seed=0)
        report = MultiprocessExecutor(2).run(context, candidates)
        assert report.n_failed == 1
        assert [r.ok for r in report.results] == [True, True, False, True]
        assert "ValueError" in report.results[2].error

    def test_single_candidate_skips_pool(self, setup):
        data, ext = setup
        context = _context(data, ext)
        serial = SerialExecutor().run(context, _candidates(1)).evaluations()
        parallel = MultiprocessExecutor(4).run(context, _candidates(1)).evaluations()
        assert serial == parallel

    def test_chunksize_validation(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(2, chunksize=0)

    def test_pool_reused_for_same_context(self, setup):
        data, ext = setup
        context = _context(data, ext)
        executor = MultiprocessExecutor(2)
        try:
            executor.run(context, _candidates(3))
            pool = executor._pool
            assert pool is not None
            executor.run(context, _candidates(2))
            assert executor._pool is pool
            # a fresh context replaces the pool (workers hold the old data)
            executor.run(_context(data, ext), _candidates(2))
            assert executor._pool is not pool
        finally:
            executor.close()
        assert executor._pool is None

    def test_processes_capped_at_usable_cores(self):
        cores = len(executors._usable_cpus())
        executor = MultiprocessExecutor(cores + 3)
        assert executor.workers == cores + 3
        assert executor.processes == cores
        assert MultiprocessExecutor(1).processes == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_start_on_keeps_the_affinity_mask(self):
        allowed = os.sched_getaffinity(0)
        executors._start_on(max(allowed))
        assert os.sched_getaffinity(0) == allowed
        # a CPU outside the set is refused by the kernel and ignored
        executors._start_on(max(allowed) + 4096)
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork"
        or len(executors._usable_cpus()) < 2,
        reason="needs forked workers and two usable cores")
    def test_workers_start_on_distinct_cpus(self, setup, monkeypatch):
        data, ext = setup
        started = multiprocessing.Queue()
        # forked workers inherit the patched module attribute
        monkeypatch.setattr(executors, "_start_on",
                            lambda cpu: started.put((os.getpid(), cpu)))
        with MultiprocessExecutor(2) as executor:
            pool = executor._get_pool(_context(data, ext))
            pool.submit(os.getpid).result(timeout=60)
            placed = dict(started.get(timeout=30) for _ in range(2))
        assert len(placed) == 2
        assert sorted(placed.values()) == executors._usable_cpus()[:2]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="needs forked workers")
    def test_placement_counter_loses_no_worker(self, setup, monkeypatch):
        """More workers than cores: every worker takes its own index."""
        data, ext = setup
        started = multiprocessing.Queue()
        monkeypatch.setattr(executors, "_start_on", started.put)
        n = 2 * len(executors._usable_cpus()) + 2
        placement = (list(range(n)), multiprocessing.Value("i", 0))
        with ProcessPoolExecutor(n, initializer=executors._init_worker,
                                 initargs=(_context(data, ext), None,
                                           placement)) as pool:
            pool.submit(os.getpid).result(timeout=60)
            cpus = sorted(started.get(timeout=30) for _ in range(n))
        assert cpus == list(range(n))


class TestTwoLevelFusion:
    """multiprocess+vectorized: process sharding over fused worker blocks."""

    def test_bit_identical_to_serial(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(7)
        serial = SerialExecutor().run(context, candidates).evaluations()
        executor = MultiprocessExecutor(2, vectorized_block_size=3)
        try:
            report = executor.run(context, candidates)
        finally:
            executor.close()
        assert report.evaluations() == serial
        assert [r.candidate.index for r in report.results] == list(range(7))

    def test_derived_seeds_match_serial(self, setup):
        data, ext = setup
        context = _context(data, ext, base_seed=99)
        candidates = [
            Candidate(index=i, A=0.05 * (i + 1), B=0.02 * (i + 1))
            for i in range(5)
        ]
        reference = SerialExecutor().run(context, candidates).evaluations()
        executor = MultiprocessExecutor(2, vectorized_block_size=2)
        try:
            assert executor.run(context, candidates).evaluations() == reference
        finally:
            executor.close()

    def test_row_failure_isolated_inside_worker_block(self, setup):
        data, ext = setup
        context = _context(data, ext)
        candidates = _candidates(6)
        candidates[2] = Candidate(index=2, A=float("nan"), B=0.1, seed=0)
        serial = SerialExecutor().run(context, candidates)
        executor = MultiprocessExecutor(2, vectorized_block_size=3)
        try:
            report = executor.run(context, candidates)
        finally:
            executor.close()
        assert report.n_failed == 1
        assert [r.ok for r in report.results] == [r.ok for r in serial.results]
        assert report.evaluations() == serial.evaluations()

    def test_prefers_batch_even_with_one_worker(self):
        # a single fused worker still gains candidate-axis fusion from a
        # batch submission, so speculative callers feed it eagerly
        executor = MultiprocessExecutor(1, vectorized_block_size=4)
        assert executor.prefers_batch
        assert not MultiprocessExecutor(1).prefers_batch

    def test_kind_resolution_and_make_executor(self, monkeypatch):
        from repro.exec import (
            resolve_candidate_block_size,
            resolve_executor_kind,
        )

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert (resolve_executor_kind("multiprocess+vectorized")
                == "multiprocess+vectorized")
        monkeypatch.setenv("REPRO_EXECUTOR", "multiprocess+vectorized")
        assert resolve_executor_kind(None) == "multiprocess+vectorized"
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_CANDIDATE_BLOCK_SIZE", "5")
        executor = make_executor(None)
        assert isinstance(executor, MultiprocessExecutor)
        assert executor.workers == 2
        assert executor.vectorized_block_size == 5
        assert resolve_candidate_block_size(None) == 5

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(2, vectorized_block_size=0)


class TestEvaluationContext:
    def test_pickle_drops_rebuilt_extractor(self, setup):
        data, ext = setup
        context = _context(data, ext)
        context.evaluate(_candidates(1)[0])  # force the lazy rebuild
        assert context._built is not None
        clone = pickle.loads(pickle.dumps(context))
        assert clone._built is None
        # and the clone still evaluates identically
        cand = _candidates(1)[0]
        assert clone.evaluate(cand) == context.evaluate(cand)

    def test_accepts_live_extractor(self, setup):
        data, ext = setup
        context = EvaluationContext(
            extractor=ext,  # live extractor is snapshot in __post_init__
            u_train=data.u_train, y_train=data.y_train,
            u_test=data.u_test, y_test=data.y_test, n_classes=3,
        )
        cand = _candidates(1)[0]
        assert context.evaluate(cand) == _context(data, ext).evaluate(cand)

    def test_candidate_seed_precedence(self, setup):
        data, ext = setup
        context = _context(data, ext, base_seed=5)
        assert context.candidate_seed(Candidate(index=2, A=0.1, B=0.1, seed=77)) == 77
        assert context.candidate_seed(
            Candidate(index=2, A=0.1, B=0.1)
        ) == derive_candidate_seed(5, 2)
        no_base = _context(data, ext)
        assert no_base.candidate_seed(Candidate(index=2, A=0.1, B=0.1)) is None


class TestSnapshotRoundtrip:
    def test_rebuilt_extractor_matches_live(self, setup):
        data, ext = setup
        rebuilt = ext.snapshot().build()
        f_live, d_live = ext.features(data.u_test, 0.1, 0.05)
        f_new, d_new = rebuilt.features(data.u_test, 0.1, 0.05)
        np.testing.assert_array_equal(f_live, f_new)
        np.testing.assert_array_equal(d_live, d_new)

    def test_unfitted_extractor_rejected(self):
        with pytest.raises(RuntimeError):
            DFRFeatureExtractor(n_nodes=4, seed=0).snapshot()


class TestFailedEvaluation:
    def test_sentinel_ranks_last(self):
        failed = FixedParamsEvaluation.failed(0.1, 0.2, error="boom")
        assert failed.diverged
        assert failed.val_loss == float("inf")
        assert failed.val_accuracy == 0.0
        assert failed.test_accuracy == 0.0
        assert np.isnan(failed.beta)
        assert failed.error == "boom"

    def test_identical_sentinels_compare_equal_despite_nan_beta(self):
        a = FixedParamsEvaluation.failed(0.1, 0.2, error="boom")
        b = FixedParamsEvaluation.failed(0.1, 0.2, error="boom")
        assert a == b  # nan beta must not poison bit-identity checks
        assert a != FixedParamsEvaluation.failed(0.1, 0.3, error="boom")
        assert a != "not an evaluation"


class TestSearchFaultTolerance:
    def test_grid_search_survives_raising_evaluation(self, setup, monkeypatch):
        from repro.core.grid_search import GridSearch

        data, ext = setup
        real = exec_context.evaluate_fixed_params
        calls = {"n": 0}

        def flaky(extractor, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected worker failure")
            return real(extractor, *args, **kwargs)

        monkeypatch.setattr(exec_context, "evaluate_fixed_params", flaky)
        # pin to serial: with a process pool (e.g. REPRO_WORKERS set) each
        # worker would fork its own copy of the `calls` counter and the
        # injection would fire once per worker instead of once overall
        gs = GridSearch(ext, seed=0, executor=SerialExecutor())
        level = gs.run_level(data.u_train, data.y_train,
                             data.u_test, data.y_test, 2, n_classes=3)
        assert level.n_points == 4
        failed = [ev for ev in level.evaluations if ev.error is not None]
        assert len(failed) == 1
        assert "injected worker failure" in failed[0].error
        # the winner is one of the healthy points
        assert level.best.error is None

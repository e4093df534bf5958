"""Tests for the candidate axis: stacked sweeps and the vectorized executor.

The contract under test is *bit-parity on NumPy*: a vector-``(A, B)``
sweep — through the reservoir, the DPRR contraction, the batched backward,
and the whole fused candidate evaluation — must reproduce the scalar
per-candidate path exactly, row for row.  On top of that sit the
executor-level guarantees: result ordering, block chunking, row-wise fault
isolation, and the ``REPRO_EXECUTOR`` / ``REPRO_CANDIDATE_BLOCK_SIZE``
resolution knobs.
"""

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.backend import numpy_backend
from repro.core.backprop import BackpropEngine, batch_reservoir_backward
from repro.core.grid_search import GridSearch
from repro.core.hyperopt import RandomSearch
from repro.core.pipeline import (
    DFRFeatureExtractor,
    evaluate_fixed_params,
    evaluate_fixed_params_block,
)
from repro.data.loaders import make_toy_dataset
from repro.exec import (
    Candidate,
    EvaluationContext,
    MultiprocessExecutor,
    SerialExecutor,
    VectorizedExecutor,
    make_executor,
    resolve_candidate_block_size,
    resolve_executor_kind,
)
from repro.readout.softmax import SoftmaxReadout, one_hot
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR

A_VEC = np.array([0.10, 0.02, 0.30, 0.005])
B_VEC = np.array([0.05, 0.20, 0.01, 0.150])
K = len(A_VEC)


@pytest.fixture(scope="module")
def toy():
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


class TestStackedReservoir:
    """Vector-(A, B) runs match per-candidate scalar runs bit for bit."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(3)
        mask = InputMask.binary(n_nodes=6, n_channels=2, seed=0)
        u = rng.normal(size=(5, 14, 2))
        return mask, u

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_run_matches_scalar_rows(self, setup, nonlinearity):
        # "identity" exercises the flat-chain fast path (per-candidate
        # lfilter loop), "tanh" the per-step stacked-filter path
        mask, u = setup
        dfr = ModularDFR(mask, nonlinearity=nonlinearity)
        trace = dfr.run(u, A_VEC, B_VEC)
        assert trace.stacked
        assert trace.n_candidates == K
        assert trace.states.shape == (K, 5, 15, 6)
        assert trace.pre_activations.shape == (K, 5, 14, 6)
        assert trace.diverged.shape == (K, 5)
        for k in range(K):
            ref = dfr.run(u, float(A_VEC[k]), float(B_VEC[k]))
            np.testing.assert_array_equal(trace.states[k], ref.states)
            np.testing.assert_array_equal(trace.pre_activations[k],
                                          ref.pre_activations)
            np.testing.assert_array_equal(trace.diverged[k], ref.diverged)

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_run_streaming_matches_scalar_rows(self, setup, nonlinearity):
        mask, u = setup
        dfr = ModularDFR(mask, nonlinearity=nonlinearity)
        result = dfr.run_streaming(u, A_VEC, B_VEC, window=3)
        assert result.stacked
        assert result.window == 3
        for k in range(K):
            ref = dfr.run_streaming(u, float(A_VEC[k]), float(B_VEC[k]),
                                    window=3)
            np.testing.assert_array_equal(result.window_states[k],
                                          ref.window_states)
            np.testing.assert_array_equal(result.window_pre_activations[k],
                                          ref.window_pre_activations)
            np.testing.assert_array_equal(result.dprr_sums[0][k],
                                          ref.dprr_sums[0])
            np.testing.assert_array_equal(result.dprr_sums[1][k],
                                          ref.dprr_sums[1])
            np.testing.assert_array_equal(result.diverged[k], ref.diverged)

    def test_final_window_slices_candidate_axis(self, setup):
        mask, u = setup
        dfr = ModularDFR(mask)
        trace = dfr.run(u, A_VEC, B_VEC)
        window = trace.final_window(2)
        assert window.stacked
        assert window.window_states.shape == (K, 5, 3, 6)
        streamed = dfr.run_streaming(u, A_VEC, B_VEC, window=2)
        np.testing.assert_allclose(window.window_states,
                                   streamed.window_states)

    def test_scalar_broadcasts_against_vector(self, setup):
        mask, u = setup
        dfr = ModularDFR(mask)
        trace = dfr.run(u, 0.1, B_VEC)
        for k in range(K):
            ref = dfr.run(u, 0.1, float(B_VEC[k]))
            np.testing.assert_array_equal(trace.states[k], ref.states)

    def test_vector_validation(self, setup):
        mask, u = setup
        dfr = ModularDFR(mask)
        with pytest.raises(ValueError):
            dfr.run(u, np.array([0.1, 0.2]), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            dfr.run(u, np.array([0.1, np.nan]), np.array([0.1, 0.2]))


class TestStackedDPRR:
    def test_features_match_scalar_rows(self):
        rng = np.random.default_rng(5)
        mask = InputMask.binary(n_nodes=5, n_channels=2, seed=1)
        dfr = ModularDFR(mask)
        u = rng.normal(size=(4, 11, 2))
        dprr = DPRR()
        trace = dfr.run(u, A_VEC, B_VEC)
        feats = dprr.features(trace)
        assert feats.shape == (K, 4, dprr.n_features(5))
        streamed = dfr.run_streaming(u, A_VEC, B_VEC, window=1)
        feats_streamed = dprr.features(streamed)
        for k in range(K):
            ref = dfr.run(u, float(A_VEC[k]), float(B_VEC[k]))
            np.testing.assert_array_equal(feats[k], dprr.features(ref))
            ref_s = dfr.run_streaming(u, float(A_VEC[k]), float(B_VEC[k]),
                                      window=1)
            np.testing.assert_array_equal(feats_streamed[k],
                                          dprr.features(ref_s))


class TestStackedBackward:
    """K-candidate training gradients match per-candidate calls bit for bit."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(11)
        mask = InputMask.binary(n_nodes=6, n_channels=2, seed=0)
        dfr = ModularDFR(mask, nonlinearity="tanh")
        dprr = DPRR()
        u = rng.normal(size=(4, 10, 2))
        targets = one_hot(rng.integers(0, 3, size=4), 3)
        weights = rng.normal(size=(K, 3, dprr.n_features(6)))
        bias = rng.normal(size=(K, 3))
        return dfr, dprr, u, targets, weights, bias

    def test_batch_reservoir_backward_stacked_rows(self, setup):
        dfr, dprr, u, _, _, _ = setup
        rng = np.random.default_rng(2)
        trace = dfr.run(u, A_VEC, B_VEC)
        win = trace.final_window(3)
        d_repr = rng.normal(size=(K, 4, dprr.n_features(6)))
        d_a, d_b, grads = batch_reservoir_backward(
            win.window_states, win.window_pre_activations, d_repr,
            A_VEC, B_VEC, n_steps=10, nonlinearity=dfr.nonlinearity,
        )
        assert d_a.shape == (K, 4) and grads.shape == (K, 4, 3, 6)
        for k in range(K):
            ref = dfr.run(u, float(A_VEC[k]), float(B_VEC[k]))
            ref_win = ref.final_window(3)
            ra, rb, rg = batch_reservoir_backward(
                ref_win.window_states, ref_win.window_pre_activations,
                d_repr[k], float(A_VEC[k]), float(B_VEC[k]),
                n_steps=10, nonlinearity=dfr.nonlinearity,
            )
            np.testing.assert_array_equal(d_a[k], ra)
            np.testing.assert_array_equal(d_b[k], rb)
            np.testing.assert_array_equal(grads[k], rg)

    def test_backward_broadcasts_scalar_against_stack(self, setup):
        # the forward accepts mixed scalar/vector (A, B); the backward
        # must accept the same spelling for the resulting 4-D trace
        dfr, dprr, u, _, _, _ = setup
        rng = np.random.default_rng(4)
        trace = dfr.run(u, 0.1, B_VEC)
        win = trace.final_window(2)
        d_repr = rng.normal(size=(K, 4, dprr.n_features(6)))
        d_a, d_b, grads = batch_reservoir_backward(
            win.window_states, win.window_pre_activations, d_repr,
            0.1, B_VEC, n_steps=10, nonlinearity=dfr.nonlinearity,
        )
        ref_a, ref_b, ref_g = batch_reservoir_backward(
            win.window_states, win.window_pre_activations, d_repr,
            np.full(K, 0.1), B_VEC, n_steps=10,
            nonlinearity=dfr.nonlinearity,
        )
        np.testing.assert_array_equal(d_a, ref_a)
        np.testing.assert_array_equal(d_b, ref_b)
        np.testing.assert_array_equal(grads, ref_g)
        with pytest.raises(ValueError):
            batch_reservoir_backward(
                win.window_states, win.window_pre_activations, d_repr,
                np.array([0.1, 0.2]), B_VEC, n_steps=10,
                nonlinearity=dfr.nonlinearity,
            )

    def test_engine_trains_candidate_stack(self, setup):
        dfr, dprr, u, targets, weights, bias = setup
        engine = BackpropEngine(nonlinearity="tanh", dprr=dprr, window=3)
        readout = SoftmaxReadout(dprr.n_features(6), 3)
        trace = dfr.run(u, A_VEC, B_VEC)
        win = trace.final_window(3)
        grads = engine.batch_gradients(
            win.window_states, win.window_pre_activations,
            dprr.features(trace), readout, targets, A_VEC, B_VEC,
            n_steps=10, keep_state_grads=True, weights=weights, bias=bias,
        )
        assert grads.stacked
        assert grads.losses.shape == (K, 4)
        assert grads.d_weights.shape == weights.shape
        assert grads.d_bias.shape == bias.shape
        for k in range(K):
            ref_trace = dfr.run(u, float(A_VEC[k]), float(B_VEC[k]))
            ref_win = ref_trace.final_window(3)
            per = SoftmaxReadout(dprr.n_features(6), 3)
            per.weights = weights[k]
            per.bias = bias[k]
            ref = engine.batch_gradients(
                ref_win.window_states, ref_win.window_pre_activations,
                dprr.features(ref_trace), per, targets,
                float(A_VEC[k]), float(B_VEC[k]),
                n_steps=10, keep_state_grads=True,
            )
            np.testing.assert_array_equal(grads.losses[k], ref.losses)
            np.testing.assert_array_equal(grads.probs[k], ref.probs)
            np.testing.assert_array_equal(grads.d_A[k], ref.d_A)
            np.testing.assert_array_equal(grads.d_B[k], ref.d_B)
            np.testing.assert_array_equal(grads.d_weights[k], ref.d_weights)
            np.testing.assert_array_equal(grads.d_bias[k], ref.d_bias)
            np.testing.assert_array_equal(grads.state_grads[k],
                                          ref.state_grads)

    def test_stacked_softmax_shares_targets(self, setup):
        _, dprr, _, targets, weights, bias = setup
        rng = np.random.default_rng(8)
        readout = SoftmaxReadout(dprr.n_features(6), 3)
        feats = rng.normal(size=(K, 4, dprr.n_features(6)))
        out = readout.batch_loss_and_grads(feats, targets,
                                           weights=weights, bias=bias)
        assert out.losses.shape == (K, 4)
        for k in range(K):
            per = SoftmaxReadout(dprr.n_features(6), 3)
            per.weights = weights[k]
            per.bias = bias[k]
            ref = per.batch_loss_and_grads(feats[k], targets)
            np.testing.assert_array_equal(out.losses[k], ref.losses)
            np.testing.assert_array_equal(out.d_features[k], ref.d_features)

    def test_stacked_softmax_partial_overrides(self, setup):
        # a weight stack with the readout's own (shared) bias — and the
        # other way round — must broadcast per candidate, not crash
        _, dprr, _, targets, weights, bias = setup
        rng = np.random.default_rng(9)
        readout = SoftmaxReadout(dprr.n_features(6), 3)
        readout.weights = rng.normal(size=readout.weights.shape)
        readout.bias = rng.normal(size=readout.bias.shape)
        feats = rng.normal(size=(K, 4, dprr.n_features(6)))
        w_only = readout.batch_loss_and_grads(feats, targets, weights=weights)
        b_only = readout.batch_loss_and_grads(feats, targets, bias=bias)
        for k in range(K):
            per = SoftmaxReadout(dprr.n_features(6), 3)
            per.weights = weights[k]
            per.bias = readout.bias
            ref = per.batch_loss_and_grads(feats[k], targets)
            np.testing.assert_array_equal(w_only.losses[k], ref.losses)
            per.weights = readout.weights
            per.bias = bias[k]
            ref = per.batch_loss_and_grads(feats[k], targets)
            np.testing.assert_array_equal(b_only.losses[k], ref.losses)
        # a bias stack against unstacked features is a shape error
        with pytest.raises(ValueError):
            readout.batch_loss_and_grads(feats[0], targets, bias=bias)


class TestStackedPipelineFeatures:
    def test_features_vector_params_match_scalar(self, toy):
        data, ext = toy
        feats, div = ext.features(data.u_train, A_VEC, B_VEC)
        assert feats.shape == (K, 30, ext.n_features)
        assert div.shape == (K, 30)
        for k in range(K):
            ref_f, ref_d = ext.features(data.u_train, float(A_VEC[k]),
                                        float(B_VEC[k]))
            np.testing.assert_array_equal(feats[k], ref_f)
            np.testing.assert_array_equal(div[k], ref_d)

    def test_feature_batch_size_chunking_identical(self, toy, monkeypatch):
        data, ext = toy
        full, div_full = ext.features(data.u_train, A_VEC, B_VEC)
        monkeypatch.setattr(ext, "feature_batch_size", 7)
        chunked, div_chunked = ext.features(data.u_train, A_VEC, B_VEC)
        np.testing.assert_array_equal(full, chunked)
        np.testing.assert_array_equal(div_full, div_chunked)

    def test_block_evaluation_matches_serial(self, toy):
        data, ext = toy
        seeds = [11, 22, 33, 44]
        block = evaluate_fixed_params_block(
            ext, data.u_train, data.y_train, data.u_test, data.y_test,
            A_VEC, B_VEC, n_classes=3, seeds=seeds,
        )
        for k in range(K):
            ref = evaluate_fixed_params(
                ext, data.u_train, data.y_train, data.u_test, data.y_test,
                float(A_VEC[k]), float(B_VEC[k]), n_classes=3, seed=seeds[k],
            )
            assert block[k] == ref

    def test_block_validation(self, toy):
        data, ext = toy
        with pytest.raises(ValueError):
            evaluate_fixed_params_block(
                ext, data.u_train, data.y_train, data.u_test, data.y_test,
                [0.1, 0.2], [0.1], n_classes=3,
            )
        with pytest.raises(ValueError):
            evaluate_fixed_params_block(
                ext, data.u_train, data.y_train, data.u_test, data.y_test,
                [0.1, 0.2], [0.1, 0.2], n_classes=3, seeds=[1],
            )


class TestVectorizedExecutor:
    def test_bit_identical_to_serial(self, toy):
        data, ext = toy
        context = _context(data, ext)
        candidates = _candidates(20)
        # the identity chain switches kernel by sweep width: each serial
        # candidate (and a block of 3) runs lfilter, while a block of all
        # 20 stacks enough rows for the NumPy recurrence — so this pins
        # the switch end to end
        width = ext.n_nodes * len(data.y_train)
        assert 3 * width < numpy_backend._RECURRENCE_MIN_WIDTH <= 20 * width
        serial = SerialExecutor().run(context, candidates).evaluations()
        for block_size in (1, 3, 20, 64):
            fused = VectorizedExecutor(block_size=block_size).run(
                context, candidates).evaluations()
            assert fused == serial

    def test_results_in_candidate_order_with_timing(self, toy):
        data, ext = toy
        context = _context(data, ext)
        candidates = _candidates(5)
        report = VectorizedExecutor(block_size=2).run(context, candidates)
        assert [r.candidate.index for r in report.results] == [0, 1, 2, 3, 4]
        assert all(r.ok for r in report.results)
        assert report.wall_seconds > 0
        assert report.compute_seconds > 0
        assert report.wall_seconds >= report.compute_seconds * 0.99

    def test_derived_seeds_match_serial(self, toy):
        data, ext = toy
        # no explicit candidate seeds: both executors must derive the same
        # per-candidate seeds from base_seed (spawn-key splitting)
        context = _context(data, ext, base_seed=99)
        candidates = [
            Candidate(index=i, A=0.05 * (i + 1), B=0.02 * (i + 1))
            for i in range(5)
        ]
        serial = SerialExecutor().run(context, candidates).evaluations()
        fused = VectorizedExecutor(block_size=3).run(
            context, candidates).evaluations()
        assert fused == serial

    def test_nan_candidate_isolated_row_wise(self, toy):
        data, ext = toy
        context = _context(data, ext)
        candidates = _candidates(6)
        candidates[2] = Candidate(index=2, A=float("nan"), B=0.1, seed=0)
        serial = SerialExecutor().run(context, candidates)
        fused = VectorizedExecutor(block_size=4).run(context, candidates)
        assert fused.n_failed == 1
        assert [r.ok for r in fused.results] == [r.ok for r in serial.results]
        # the healthy rows of the block are unaffected and bit-identical
        assert fused.evaluations() == serial.evaluations()
        assert "ValueError" in fused.results[2].error

    def test_scoring_failure_inside_block_isolated(self, toy, monkeypatch):
        data, ext = toy
        context = _context(data, ext)
        candidates = _candidates(5)
        healthy = SerialExecutor().run(context, candidates).evaluations()
        real = pipeline_mod._score_fixed_params
        boom = candidates[3].A

        def flaky(f_train, f_test, y_train, y_test, A, B, **kwargs):
            # deterministic per-candidate failure: raises for candidate 3
            # whether scored inside the fused block or through the serial
            # path (the executor re-scores failing rows serially)
            if A == boom:
                raise RuntimeError("injected per-candidate failure")
            return real(f_train, f_test, y_train, y_test, A, B, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_score_fixed_params", flaky)
        serial = SerialExecutor().run(context, candidates)
        report = VectorizedExecutor(block_size=5).run(context, candidates)
        assert report.n_failed == 1
        assert [r.ok for r in report.results] == [True, True, True, False, True]
        bad = report.results[3]
        assert bad.candidate.A == boom
        assert "injected per-candidate failure" in bad.error
        evaluations = report.evaluations()
        assert evaluations[3].diverged
        assert evaluations[3].val_loss == float("inf")
        # the failure record — traceback text included — and every healthy
        # row are bit-identical to the serial executor's
        assert evaluations == serial.evaluations()
        for k in (0, 1, 2, 4):
            assert evaluations[k] == healthy[k]

    def test_whole_block_failure_falls_back_to_serial(self, toy, monkeypatch):
        data, ext = toy
        context = _context(data, ext)
        candidates = _candidates(4)
        serial = SerialExecutor().run(context, candidates).evaluations()

        def explode(self, block):
            raise RuntimeError("fused sweep exploded")

        monkeypatch.setattr(EvaluationContext, "evaluate_block", explode)
        fused = VectorizedExecutor(block_size=4).run(
            context, candidates).evaluations()
        assert fused == serial

    def test_grid_search_parity(self, toy):
        data, ext = toy
        serial = GridSearch(ext, seed=0, executor=SerialExecutor())
        fused = GridSearch(ext, seed=0, executor=VectorizedExecutor(block_size=6))
        level_s = serial.run_level(data.u_train, data.y_train,
                                   data.u_test, data.y_test, 3, n_classes=3)
        level_v = fused.run_level(data.u_train, data.y_train,
                                  data.u_test, data.y_test, 3, n_classes=3)
        assert level_v.evaluations == level_s.evaluations
        assert level_v.best == level_s.best

    def test_random_search_parity(self, toy):
        data, ext = toy
        kwargs = dict(n_samples=8, n_classes=3)
        serial = RandomSearch(ext, seed=5, executor=SerialExecutor()).search(
            data.u_train, data.y_train, data.u_test, data.y_test, **kwargs)
        fused = RandomSearch(ext, seed=5,
                             executor=VectorizedExecutor(block_size=3)).search(
            data.u_train, data.y_train, data.u_test, data.y_test, **kwargs)
        assert fused.evaluations == serial.evaluations
        assert fused.best == serial.best

    def test_backend_spec_stamped_on_context(self, toy):
        data, ext = toy
        context = _context(data, ext)
        executor = VectorizedExecutor(block_size=4, backend="numpy")
        retargeted = executor._apply_backend(context)
        assert retargeted.backend == "numpy"
        serial = SerialExecutor().run(context, _candidates(3)).evaluations()
        assert executor.run(context, _candidates(3)).evaluations() == serial

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            VectorizedExecutor(block_size=0)


class TestExecutorResolution:
    def test_kind_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor_kind(None) is None
        assert resolve_executor_kind("vectorized") == "vectorized"
        monkeypatch.setenv("REPRO_EXECUTOR", "vectorized")
        assert resolve_executor_kind(None) == "vectorized"
        assert resolve_executor_kind("serial") == "serial"  # explicit wins
        with pytest.raises(ValueError):
            resolve_executor_kind("quantum")

    def test_block_size_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CANDIDATE_BLOCK_SIZE", raising=False)
        assert resolve_candidate_block_size(8) == 8
        from repro.exec import DEFAULT_CANDIDATE_BLOCK_SIZE

        assert resolve_candidate_block_size(None) == DEFAULT_CANDIDATE_BLOCK_SIZE
        monkeypatch.setenv("REPRO_CANDIDATE_BLOCK_SIZE", "5")
        assert resolve_candidate_block_size(None) == 5
        monkeypatch.setenv("REPRO_CANDIDATE_BLOCK_SIZE", "lots")
        assert resolve_candidate_block_size(None) == DEFAULT_CANDIDATE_BLOCK_SIZE
        # numeric-but-invalid env values also fall back instead of raising
        # in every default-constructed search; only explicit args raise
        monkeypatch.setenv("REPRO_CANDIDATE_BLOCK_SIZE", "0")
        assert resolve_candidate_block_size(None) == DEFAULT_CANDIDATE_BLOCK_SIZE
        with pytest.raises(ValueError):
            resolve_candidate_block_size(0)

    def test_make_executor_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        ex = make_executor(kind="vectorized", candidate_block_size=7)
        assert isinstance(ex, VectorizedExecutor)
        assert ex.block_size == 7
        monkeypatch.setenv("REPRO_EXECUTOR", "vectorized")
        assert isinstance(make_executor(None), VectorizedExecutor)
        # the env kind wins even over an explicit worker count
        assert isinstance(make_executor(4), VectorizedExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert isinstance(make_executor(4), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "multiprocess")
        ex = make_executor(None)
        assert isinstance(ex, MultiprocessExecutor)

    def test_classifier_executor_cache_stable_under_forced_kind(self, toy,
                                                                monkeypatch):
        from repro.core.pipeline import DFRClassifier

        monkeypatch.setenv("REPRO_EXECUTOR", "vectorized")
        clf = DFRClassifier(n_nodes=4, workers=4, seed=0)
        first = clf.candidate_executor()
        assert isinstance(first, VectorizedExecutor)
        # the forced kind's workers (1) differ from the requested count
        # (4); the cache must not rebuild the executor on every call
        assert clf.candidate_executor() is first

    def test_searches_accept_executor_kind(self, toy):
        data, ext = toy
        grid = GridSearch(ext, seed=0, executor_kind="vectorized",
                          candidate_block_size=4)
        assert isinstance(grid.executor, VectorizedExecutor)
        assert grid.executor.block_size == 4
        rs = RandomSearch(ext, seed=0, executor_kind="vectorized")
        assert isinstance(rs.executor, VectorizedExecutor)

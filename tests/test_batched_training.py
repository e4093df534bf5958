"""Batched training engine: equivalence with the per-sample seed path.

Three layers of pins:

* the ``batch_size=1`` trainer must reproduce the original per-sample SGD
  loop **bit-for-bit** (the expected trajectory below was generated by the
  seed implementation and is hard-coded, so any numerical drift in the
  refactored loop fails loudly);
* ``BackpropEngine.batch_gradients`` must match ``sample_gradients`` row by
  row and the literal-equation ``naive_full_backward`` oracle;
* minibatch mechanics: gradient averaging, row-wise divergence handling,
  and the no-copy ``final_window`` views the hot loop relies on.
"""

import numpy as np
import pytest

from repro.core.backprop import BackpropEngine, batch_reservoir_backward
from repro.core.pipeline import DFRClassifier, DFRFeatureExtractor
from repro.core.trainer import BackpropTrainer, TrainerConfig
from repro.data.loaders import make_toy_dataset
from repro.data.preprocessing import ChannelStandardizer
from repro.readout.softmax import SoftmaxReadout, one_hot
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR
from repro.reservoir.nonlinearity import get_nonlinearity
from repro.reservoir.reference import naive_full_backward


@pytest.fixture(scope="module")
def toy():
    data = make_toy_dataset(n_classes=3, n_channels=2, length=30,
                            n_train=45, n_test=45, noise=0.25, seed=7)
    std = ChannelStandardizer().fit(data.u_train)
    return data, std.transform(data.u_train)


def _fit_toy(toy, **config_kwargs):
    data, u_train = toy
    mask = InputMask.binary(8, 2, seed=0)
    trainer = BackpropTrainer(ModularDFR(mask), n_classes=3,
                              config=TrainerConfig(**config_kwargs), seed=0)
    return trainer.fit(u_train, data.y_train)


class TestSeedTrajectoryPin:
    """``batch_size=1`` must equal the seed per-sample trainer bit-for-bit."""

    #: (epoch, mean_loss, accuracy, A, B) emitted by the seed implementation
    #: for TrainerConfig(epochs=6) on the module fixture; full float repr
    SEED_HISTORY_W1 = [
        (1, 142.7734711838964, 0.37777777777777777,
         1e-06, 1e-06),
        (2, 71.2869541229853, 0.5777777777777777,
         0.5623413251903491, 5.4997257220147544e-06),
        (3, 77.64852786005655, 0.5333333333333333,
         1e-06, 0.5623381623365374),
        (4, 125.54970737073694, 0.4,
         1e-06, 3.3634996382207688e-06),
        (5, 27.852537832615003, 0.6444444444444445,
         0.20069246411720235, 0.40935964260681856),
        (6, 51.13914884922236, 0.5333333333333333,
         0.20127343366638514, 0.41806957018763513),
    ]
    SEED_ABS_WEIGHT_SUM_W1 = 413.2009493491867

    #: same protocol under full BPTT, TrainerConfig(epochs=3, window=None)
    SEED_HISTORY_FULL = [
        (1, 129.24171463063178, 0.35555555555555557,
         1e-06, 1e-06),
        (2, 80.16503885494745, 0.28888888888888886,
         0.5623413251903491, 2.796659850767995e-06),
        (3, 40.829081761822856, 0.4222222222222222,
         0.5623413251903491, 0.5623413251903491),
    ]
    SEED_ABS_WEIGHT_SUM_FULL = 113.03696488371259

    def test_window1_trajectory_identical(self, toy):
        result = _fit_toy(toy, epochs=6)
        assert len(result.history) == len(self.SEED_HISTORY_W1)
        for h, (epoch, loss, acc, a, b) in zip(result.history,
                                               self.SEED_HISTORY_W1):
            assert h.epoch == epoch
            assert h.mean_loss == loss
            assert h.accuracy == acc
            assert h.A == a
            assert h.B == b
            assert h.n_skipped == 0
        assert float(np.abs(result.readout.weights).sum()) == \
            self.SEED_ABS_WEIGHT_SUM_W1

    def test_full_bptt_trajectory_identical(self, toy):
        result = _fit_toy(toy, epochs=3, window=None)
        for h, (epoch, loss, acc, a, b) in zip(result.history,
                                               self.SEED_HISTORY_FULL):
            assert (h.epoch, h.mean_loss, h.accuracy, h.A, h.B) == \
                (epoch, loss, acc, a, b)
        assert float(np.abs(result.readout.weights).sum()) == \
            self.SEED_ABS_WEIGHT_SUM_FULL

    def test_explicit_batch_size_1_is_default(self, toy):
        r_default = _fit_toy(toy, epochs=2)
        r_explicit = _fit_toy(toy, epochs=2, batch_size=1)
        assert r_default.A == r_explicit.A
        assert r_default.B == r_explicit.B
        np.testing.assert_array_equal(r_default.readout.weights,
                                      r_explicit.readout.weights)


def _batch_instance(rng, *, n_samples=6, n_nodes=5, n_steps=9, n_classes=3,
                    nonlinearity="identity"):
    mask = InputMask.uniform(n_nodes, 2, seed=rng)
    dfr = ModularDFR(mask, nonlinearity=nonlinearity)
    u = rng.normal(size=(n_samples, n_steps, 2))
    a_val = float(rng.uniform(0.05, 0.4))
    b_val = float(rng.uniform(0.05, 0.4))
    dprr = DPRR(normalize="length")
    trace = dfr.run(u, a_val, b_val)
    feats = dprr.features(trace)
    readout = SoftmaxReadout(feats.shape[1], n_classes)
    readout.weights = rng.normal(scale=0.3, size=readout.weights.shape)
    readout.bias = rng.normal(scale=0.1, size=n_classes)
    targets = one_hot(rng.integers(0, n_classes, size=n_samples), n_classes)
    return {
        "dfr": dfr, "trace": trace, "dprr": dprr, "feats": feats,
        "readout": readout, "targets": targets, "A": a_val, "B": b_val,
        "nonlinearity": nonlinearity, "n_steps": n_steps,
    }


class TestBatchGradientsEquivalence:
    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh", "mackey-glass"])
    @pytest.mark.parametrize("window", [1, 4, None])
    def test_matches_sample_gradients_rowwise(self, rng, nonlinearity, window):
        inst = _batch_instance(rng, nonlinearity=nonlinearity)
        # backend="numpy": this pins batch-vs-per-sample *mathematical*
        # equivalence at near-ulp tolerance; cross-backend parity (looser,
        # float64-tolerance) is tests/test_backend.py's job
        engine = BackpropEngine(nonlinearity, dprr=inst["dprr"], window=window,
                                backend="numpy")
        eff = engine.effective_window(inst["n_steps"])
        win = inst["trace"].final_window(eff, copy=False)
        bg = engine.batch_gradients(
            win.window_states, win.window_pre_activations, inst["feats"],
            inst["readout"], inst["targets"], inst["A"], inst["B"],
            n_steps=inst["n_steps"], keep_state_grads=True,
        )
        per_w = []
        per_b = []
        for i in range(inst["feats"].shape[0]):
            sg = engine.sample_gradients(
                win.window_states[i], win.window_pre_activations[i],
                inst["feats"][i], inst["readout"], inst["targets"][i],
                inst["A"], inst["B"], n_steps=inst["n_steps"],
                keep_state_grads=True,
            )
            assert bg.losses[i] == pytest.approx(sg.loss, rel=1e-12)
            assert bg.d_A[i] == pytest.approx(sg.d_A, rel=1e-10, abs=1e-12)
            assert bg.d_B[i] == pytest.approx(sg.d_B, rel=1e-10, abs=1e-12)
            np.testing.assert_allclose(bg.probs[i], sg.probs,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(bg.state_grads[i], sg.state_grads,
                                       rtol=1e-10, atol=1e-13)
            per_w.append(sg.d_weights)
            per_b.append(sg.d_bias)
        np.testing.assert_allclose(bg.d_weights, np.mean(per_w, axis=0),
                                   rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(bg.d_bias, np.mean(per_b, axis=0),
                                   rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_full_window_matches_naive_reference(self, rng, nonlinearity):
        inst = _batch_instance(rng, n_samples=4, nonlinearity=nonlinearity)
        engine = BackpropEngine(nonlinearity, dprr=inst["dprr"], window=None,
                                backend="numpy")
        win = inst["trace"].final_window(inst["n_steps"], copy=False)
        bg = engine.batch_gradients(
            win.window_states, win.window_pre_activations, inst["feats"],
            inst["readout"], inst["targets"], inst["A"], inst["B"],
            n_steps=inst["n_steps"],
        )
        out = inst["readout"].batch_loss_and_grads(inst["feats"],
                                                   inst["targets"])
        d_repr = out.d_features * inst["dprr"].scale(inst["n_steps"])
        for i in range(4):
            ref_da, ref_db, _ = naive_full_backward(
                inst["trace"].states[i], inst["trace"].pre_activations[i],
                None, inst["A"], inst["B"], d_repr[i],
                nonlinearity=nonlinearity,
            )
            assert bg.d_A[i] == pytest.approx(ref_da, rel=1e-10, abs=1e-12)
            assert bg.d_B[i] == pytest.approx(ref_db, rel=1e-10, abs=1e-12)

    def test_batch_reservoir_backward_validation(self, rng):
        nonl = get_nonlinearity("identity")
        with pytest.raises(ValueError, match="window_pre"):
            batch_reservoir_backward(np.zeros((2, 3, 4)), np.zeros((2, 4)),
                                     np.zeros((2, 20)), 0.1, 0.1,
                                     n_steps=5, nonlinearity=nonl)
        with pytest.raises(ValueError, match="window_states"):
            batch_reservoir_backward(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)),
                                     np.zeros((2, 20)), 0.1, 0.1,
                                     n_steps=5, nonlinearity=nonl)
        with pytest.raises(ValueError, match="exceeds"):
            batch_reservoir_backward(np.zeros((2, 7, 3)), np.zeros((2, 6, 3)),
                                     np.zeros((2, 12)), 0.1, 0.1,
                                     n_steps=4, nonlinearity=nonl)
        with pytest.raises(ValueError, match="d_repr"):
            batch_reservoir_backward(np.zeros((2, 2, 4)), np.zeros((2, 1, 4)),
                                     np.zeros((2, 7)), 0.1, 0.1,
                                     n_steps=5, nonlinearity=nonl)


class TestBatchedSoftmax:
    def test_matches_per_sample(self, rng):
        readout = SoftmaxReadout(6, 3)
        readout.weights = rng.normal(size=(3, 6))
        readout.bias = rng.normal(size=3)
        feats = rng.normal(size=(5, 6))
        targets = one_hot(rng.integers(0, 3, size=5), 3)
        batch = readout.batch_loss_and_grads(feats, targets)
        for i in range(5):
            single = readout.loss_and_grads(feats[i], targets[i])
            assert batch.losses[i] == pytest.approx(single.loss, rel=1e-14)
            np.testing.assert_allclose(batch.probs[i], single.probs,
                                       rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(batch.d_features[i], single.d_features,
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(
                np.outer(batch.deltas[i], feats[i]), single.d_weights,
                rtol=1e-12, atol=1e-14,
            )

    def test_shape_validation(self):
        readout = SoftmaxReadout(4, 2)
        with pytest.raises(ValueError, match="feature size"):
            readout.batch_loss_and_grads(np.zeros((3, 5)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="targets"):
            readout.batch_loss_and_grads(np.zeros((3, 4)), np.zeros((2, 2)))


class TestBatchedTrainer:
    def test_minibatch_training_learns(self, toy):
        data, _ = toy
        result = _fit_toy(toy, epochs=25, batch_size=8)
        first, last = result.history[0], result.history[-1]
        assert last.mean_loss < first.mean_loss
        assert last.accuracy > max(first.accuracy, 0.5)

    @pytest.mark.parametrize("batch_size", [45, 64])
    def test_full_batch_and_oversized_batch_run(self, toy, batch_size):
        result = _fit_toy(toy, epochs=3, batch_size=batch_size)
        assert len(result.history) == 3
        assert np.isfinite(result.final_loss)

    def test_batched_full_bptt_runs(self, toy):
        result = _fit_toy(toy, epochs=2, batch_size=8, window=None)
        assert np.isfinite(result.final_loss)

    def test_batched_deterministic_under_seed(self, toy):
        r1 = _fit_toy(toy, epochs=3, batch_size=8)
        r2 = _fit_toy(toy, epochs=3, batch_size=8)
        assert r1.A == r2.A and r1.B == r2.B
        np.testing.assert_array_equal(r1.readout.weights, r2.readout.weights)

    def test_rowwise_divergence_skips_rows_not_batch(self):
        """One diverged sample must not poison its batch: the other rows
        still contribute a gradient step and the epoch loss stays finite."""
        rng = np.random.default_rng(0)
        u = rng.normal(size=(12, 60, 1))
        # blow up one sample so its forward pass overflows at large (A, B)
        u[3] *= 1e150
        y = rng.integers(0, 2, size=12)
        mask = InputMask.binary(6, 1, seed=0)
        config = TrainerConfig(epochs=2, batch_size=4, shuffle=False,
                               init_A=0.3, init_B=0.3)
        trainer = BackpropTrainer(ModularDFR(mask), n_classes=2,
                                  config=config, seed=0)
        result = trainer.fit(u, y)
        for h in result.history:
            assert h.n_skipped == 1          # exactly the poisoned row
            assert np.isfinite(h.mean_loss)  # the other 11 samples trained
        assert np.isfinite(result.A) and np.isfinite(result.B)

    def test_divergence_pull_back_applied_per_row(self):
        """k diverged rows in one batch shrink (A, B) k times, exactly as
        the per-sample loop would have."""
        rng = np.random.default_rng(1)
        u = rng.normal(size=(4, 30, 1))
        u[1] *= 1e160
        u[2] *= 1e160
        y = np.array([0, 1, 0, 1])
        mask = InputMask.binary(5, 1, seed=0)
        # vanishing learning rates isolate the pull-back effect on (A, B)
        config = TrainerConfig(epochs=1, batch_size=4, shuffle=False,
                               init_A=0.2, init_B=0.2, lr_reservoir=1e-300,
                               lr_output=1e-300)
        trainer = BackpropTrainer(ModularDFR(mask), n_classes=2,
                                  config=config, seed=0)
        result = trainer.fit(u, y)
        shrink = config.divergence_shrink
        assert result.history[0].n_skipped == 2
        assert result.A == pytest.approx(0.2 * shrink**2, rel=1e-12)
        assert result.B == pytest.approx(0.2 * shrink**2, rel=1e-12)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainerConfig(batch_size=0)


class TestMinibatchTrajectoryPin:
    """``batch_size > 1`` keeps the trajectory of the scalar minibatch loop.

    ``float.hex()`` per epoch ``(mean_loss, accuracy, A, B, n_skipped)``
    and the final ``|W|`` sum, recorded from the scalar minibatch loop
    ``BackpropTrainer`` ran before minibatch SGD moved to
    ``PopulationTrainer._fused_epoch``; with that loop gone, these are the
    independent reference for the fused one.  Like every batched bit-pin
    they assume one BLAS thread and the same OpenBLAS kernel
    (docs/ARCHITECTURE.md, "The DPRR contraction"), and both fits name the
    float64 NumPy backend, so ``REPRO_BACKEND`` cannot move them onto
    another backend or precision.
    """

    #: the NumPy reference the goldens were recorded on
    NUMPY = dict(backend="numpy")

    #: the module fixture at TrainerConfig(epochs=4, batch_size=8).  A ends
    #: on the 1e-6 clamp floor: the batched accuracy collapse, which a fix
    #: for it moves on purpose
    TOY_HISTORY = [
        (1, '0x1.24d1a9ba5266bp+0', '0x1.3e93e93e93e94p-3',
         '0x1.221a9d2410564p-3', '0x1.3f010e726084ap-7', 0),
        (2, '0x1.582d4a1dfc889p+6', '0x1.b05b05b05b05bp-2',
         '0x1.0c6f7a0b5ed8dp-20', '0x1.1d8917f8b1f20p-3', 0),
        (3, '0x1.f28130a470987p+6', '0x1.6c16c16c16c17p-2',
         '0x1.0c6f7a0b5ed8dp-20', '0x1.5e684895ded52p-4', 0),
        (4, '0x1.527f2e9c51e1bp+7', '0x1.999999999999ap-2',
         '0x1.0c6f7a0b5ed8dp-20', '0x1.ba5bc1351d4aep-20', 0),
    ]
    TOY_ABS_WEIGHT_SUM = '0x1.16986a8574358p+7'

    #: ``_divergent_fit`` below: four pull-backs in epoch 1
    DIVERGENT_HISTORY = [
        (1, '0x1.5a14b6977fcd2p+7', '0x1.4000000000000p-1',
         '0x1.0c6f7a0b5ed8dp-20', '0x1.0c6f7a0b5ed8dp-20', 4),
        (2, '0x1.7d7d71a5b56b3p-1', '0x1.0000000000000p-1',
         '0x1.56043772d3f76p-17', '0x1.0c7143b9a6a3dp-20', 0),
        (3, '0x1.86c9b8c4e43b0p-1', '0x1.5555555555555p-1',
         '0x1.0c6f7a0b5ed8dp-20', '0x1.0c6f7a0b5ed8dp-20', 0),
    ]
    DIVERGENT_ABS_WEIGHT_SUM = '0x1.2ef7d7d218df5p+6'

    @classmethod
    def _divergent_fit(cls):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(12, 250, 1))
        y = rng.integers(0, 2, size=12)
        config = TrainerConfig(epochs=3, batch_size=4, init_A=1.8,
                               init_B=0.9, param_max=2.0,
                               divergence_shrink=0.85, **cls.NUMPY)
        trainer = BackpropTrainer(ModularDFR(InputMask.binary(6, 1, seed=0)),
                                  n_classes=2, config=config, seed=0)
        return trainer.fit(u, y)

    @staticmethod
    def _assert_pinned(result, history, abs_weight_sum):
        got = [(h.epoch, h.mean_loss.hex(), float(h.accuracy).hex(),
                h.A.hex(), h.B.hex(), h.n_skipped) for h in result.history]
        assert got == history
        assert float(np.abs(result.readout.weights).sum()).hex() == \
            abs_weight_sum

    def test_toy_minibatch_trajectory(self, toy):
        self._assert_pinned(_fit_toy(toy, epochs=4, batch_size=8,
                                     **self.NUMPY),
                            self.TOY_HISTORY, self.TOY_ABS_WEIGHT_SUM)

    def test_divergent_minibatch_trajectory(self):
        self._assert_pinned(self._divergent_fit(), self.DIVERGENT_HISTORY,
                            self.DIVERGENT_ABS_WEIGHT_SUM)


class TestFinalWindowViews:
    def test_no_copy_returns_views(self, rng):
        dfr = ModularDFR(InputMask.binary(6, 2, seed=0))
        trace = dfr.run(rng.normal(size=(3, 20, 2)), 0.2, 0.3)
        view = trace.final_window(4, copy=False)
        assert np.shares_memory(view.window_states, trace.states)
        assert np.shares_memory(view.window_pre_activations,
                                trace.pre_activations)
        assert view.diverged is trace.diverged
        # the views are read-only so a caller cannot corrupt the trace
        assert not view.window_states.flags.writeable
        assert not view.window_pre_activations.flags.writeable
        with pytest.raises(ValueError):
            view.window_states[0, 0, 0] = 1.0

    def test_copy_default_is_independent(self, rng):
        dfr = ModularDFR(InputMask.binary(6, 2, seed=0))
        trace = dfr.run(rng.normal(size=(3, 20, 2)), 0.2, 0.3)
        copied = trace.final_window(4)
        assert not np.shares_memory(copied.window_states, trace.states)
        view = trace.final_window(4, copy=False)
        np.testing.assert_array_equal(copied.window_states,
                                      view.window_states)
        np.testing.assert_array_equal(copied.window_pre_activations,
                                      view.window_pre_activations)


class TestPipelineThreading:
    def test_chunked_features_identical(self, rng):
        u = rng.normal(size=(17, 25, 2))
        # backend="numpy": chunked-vs-full bit-equality is a *chunking*
        # property; accelerator BLAS may legally reduce in a shape-dependent
        # order, so the exact-equality pin belongs to the reference backend
        ext = DFRFeatureExtractor(n_nodes=6, backend="numpy", seed=0).fit(u)
        full, div_full = ext.features(u, 0.2, 0.3)
        ext.feature_batch_size = 5
        chunked, div_chunked = ext.features(u, 0.2, 0.3)
        np.testing.assert_array_equal(full, chunked)
        np.testing.assert_array_equal(div_full, div_chunked)

    def test_constructor_feature_batch_size(self, rng):
        u = rng.normal(size=(9, 25, 2))
        ext = DFRFeatureExtractor(n_nodes=6, feature_batch_size=4,
                                  backend="numpy", seed=0).fit(u)
        ref = DFRFeatureExtractor(n_nodes=6, backend="numpy", seed=0).fit(u)
        np.testing.assert_array_equal(ext.features(u, 0.2, 0.3)[0],
                                      ref.features(u, 0.2, 0.3)[0])
        with pytest.raises(ValueError, match="feature_batch_size"):
            DFRFeatureExtractor(n_nodes=6, feature_batch_size=0)

    def test_classifier_batch_size_override(self):
        clf = DFRClassifier(n_nodes=6, batch_size=16, seed=0)
        assert clf.config.batch_size == 16
        # an explicit config keeps its own batch_size unless overridden
        clf2 = DFRClassifier(n_nodes=6, config=TrainerConfig(batch_size=4),
                             seed=0)
        assert clf2.config.batch_size == 4

    def test_classifier_batched_fit_end_to_end(self):
        data = make_toy_dataset(n_classes=3, n_channels=2, length=25,
                                n_train=30, n_test=30, noise=0.25, seed=3)
        clf = DFRClassifier(n_nodes=8, batch_size=10,
                            config=TrainerConfig(epochs=5), seed=0)
        clf.fit(data.u_train, data.y_train)
        assert clf.score(data.u_test, data.y_test) > 0.5

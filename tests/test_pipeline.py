"""End-to-end tests for DFRClassifier and the shared evaluation protocol."""

import numpy as np
import pytest

from repro.core.pipeline import (
    DFRClassifier,
    DFRFeatureExtractor,
    evaluate_fixed_params,
)
from repro.core.trainer import TrainerConfig
from repro.data.loaders import make_toy_dataset


@pytest.fixture(scope="module")
def toy():
    return make_toy_dataset(n_classes=3, n_channels=2, length=30,
                            n_train=45, n_test=45, noise=0.25, seed=7)


@pytest.fixture(scope="module")
def fitted(toy):
    clf = DFRClassifier(n_nodes=8, seed=0)
    clf.fit(toy.u_train, toy.y_train)
    return clf


class TestDFRClassifier:
    def test_learns_toy_problem(self, toy, fitted):
        assert fitted.score(toy.u_test, toy.y_test) > 0.6

    def test_beats_untrained_parameters(self, toy, fitted):
        ext = DFRFeatureExtractor(n_nodes=8, seed=0).fit(toy.u_train)
        untrained = evaluate_fixed_params(
            ext, toy.u_train, toy.y_train, toy.u_test, toy.y_test,
            0.01, 0.01, seed=1,
        )
        assert fitted.score(toy.u_test, toy.y_test) >= untrained.test_accuracy

    def test_fitted_attributes(self, fitted):
        assert fitted.A_ is not None and fitted.B_ is not None
        assert fitted.beta_ in (1e-6, 1e-4, 1e-2, 1.0)
        assert fitted.n_classes_ == 3
        assert len(fitted.training_.history) == TrainerConfig().epochs

    def test_predict_shapes(self, toy, fitted):
        preds = fitted.predict(toy.u_test)
        assert preds.shape == (45,)
        probs = fitted.predict_proba(toy.u_test)
        assert probs.shape == (45, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        np.testing.assert_array_equal(preds, probs.argmax(axis=1))

    def test_unfitted_prediction_rejected(self):
        clf = DFRClassifier(n_nodes=4, seed=0)
        with pytest.raises(RuntimeError, match="fitted"):
            clf.predict(np.zeros((1, 5, 2)))

    def test_reproducible_under_seed(self, toy):
        a1 = DFRClassifier(n_nodes=6, seed=3).fit(toy.u_train, toy.y_train)
        a2 = DFRClassifier(n_nodes=6, seed=3).fit(toy.u_train, toy.y_train)
        assert a1.A_ == a2.A_ and a1.beta_ == a2.beta_
        np.testing.assert_array_equal(
            a1.predict(toy.u_test), a2.predict(toy.u_test)
        )

    def test_custom_config_is_used(self, toy):
        config = TrainerConfig(epochs=2)
        clf = DFRClassifier(n_nodes=6, config=config, seed=0)
        clf.fit(toy.u_train, toy.y_train)
        assert len(clf.training_.history) == 2


class TestClassifierCandidateEvaluation:
    def test_evaluate_candidates_matches_protocol(self, toy, fitted):
        params = [(0.05, 0.02), (0.1, 0.05)]
        evs = fitted.evaluate_candidates(
            toy.u_train, toy.y_train, toy.u_test, toy.y_test, params, seed=3,
        )
        assert [(ev.A, ev.B) for ev in evs] == params
        reference = evaluate_fixed_params(
            fitted.extractor, toy.u_train, toy.y_train, toy.u_test, toy.y_test,
            0.05, 0.02, n_classes=fitted.n_classes_,
            seed=int(np.random.default_rng(3).integers(2**31 - 1)),
        )
        assert evs[0] == reference

    def test_workers_knob_is_bit_identical(self, toy, fitted):
        params = [(0.05, 0.02), (0.1, 0.05), (0.02, 0.1)]
        serial = fitted.evaluate_candidates(
            toy.u_train, toy.y_train, toy.u_test, toy.y_test, params, seed=3)
        fitted.workers = 2
        try:
            parallel = fitted.evaluate_candidates(
                toy.u_train, toy.y_train, toy.u_test, toy.y_test, params, seed=3)
        finally:
            fitted.workers = None
        assert serial == parallel

    def test_requires_fit(self, toy):
        clf = DFRClassifier(n_nodes=4, seed=0)
        with pytest.raises(RuntimeError):
            clf.evaluate_candidates(toy.u_train, toy.y_train,
                                    toy.u_test, toy.y_test, [(0.1, 0.1)])


class TestFeatureExtractor:
    def test_feature_shape(self, toy):
        ext = DFRFeatureExtractor(n_nodes=8, seed=0).fit(toy.u_train)
        feats, diverged = ext.features(toy.u_test, 0.1, 0.1)
        assert feats.shape == (45, 8 * 9)
        assert diverged.shape == (45,)
        assert not diverged.any()

    def test_unfitted_rejected(self):
        ext = DFRFeatureExtractor(n_nodes=4)
        with pytest.raises(RuntimeError, match="fitted"):
            ext.features(np.zeros((1, 5, 2)), 0.1, 0.1)

    def test_standardization_is_fit_on_train_only(self, toy):
        ext = DFRFeatureExtractor(n_nodes=4, seed=0).fit(toy.u_train)
        mean_before = ext.standardizer.mean_.copy()
        ext.features(toy.u_test * 100, 0.1, 0.1)
        np.testing.assert_array_equal(ext.standardizer.mean_, mean_before)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DFRFeatureExtractor(n_nodes=0)
        with pytest.raises(ValueError):
            DFRFeatureExtractor(mask_kind="magic")


class TestEvaluateFixedParams:
    def test_diverged_params_reported_not_raised(self, toy):
        ext = DFRFeatureExtractor(n_nodes=6, seed=0).fit(toy.u_train)
        ev = evaluate_fixed_params(
            ext, toy.u_train, toy.y_train, toy.u_test, toy.y_test,
            5.0, 5.0, seed=1,  # wildly unstable for the identity shape
        )
        assert ev.diverged
        assert ev.test_accuracy == 0.0
        assert ev.val_loss == float("inf")

    def test_returns_consistent_selection(self, toy):
        ext = DFRFeatureExtractor(n_nodes=6, seed=0).fit(toy.u_train)
        ev = evaluate_fixed_params(
            ext, toy.u_train, toy.y_train, toy.u_test, toy.y_test,
            0.1, 0.2, seed=1,
        )
        assert not ev.diverged
        assert ev.beta in (1e-6, 1e-4, 1e-2, 1.0)
        assert 0.0 <= ev.test_accuracy <= 1.0
        assert ev.A == 0.1 and ev.B == 0.2


class TestExtractorConfigSchema:
    """Versioned, strict dict round trip of the extractor snapshot."""

    @staticmethod
    def _config():
        rng = np.random.default_rng(0)
        ext = DFRFeatureExtractor(
            n_nodes=6, nonlinearity="sine", mask_gamma=0.2, seed=1
        ).fit(rng.standard_normal((8, 12, 2)))
        return ext.snapshot()

    def test_json_round_trip_is_exact(self):
        import json

        from repro.core.pipeline import CONFIG_SCHEMA_VERSION, ExtractorConfig

        cfg = self._config()
        data = json.loads(json.dumps(cfg.to_dict()))
        assert data["version"] == CONFIG_SCHEMA_VERSION
        back = ExtractorConfig.from_dict(data)
        assert np.array_equal(back.mask_matrix, cfg.mask_matrix)
        assert np.array_equal(back.mean, cfg.mean)
        assert np.array_equal(back.std, cfg.std)
        assert back.nonlinearity == cfg.nonlinearity
        assert back.normalize == cfg.normalize
        assert back.mask_kind == cfg.mask_kind
        assert back.mask_gamma == cfg.mask_gamma
        # the rebuilt extractor produces bit-identical features
        rng = np.random.default_rng(5)
        u = rng.standard_normal((4, 12, 2))
        f_orig, _ = cfg.build().features(u, 0.4, 0.5)
        f_back, _ = back.build().features(u, 0.4, 0.5)
        assert np.array_equal(f_orig, f_back)

    def test_unknown_keys_rejected(self):
        from repro.core.pipeline import ExtractorConfig

        data = self._config().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown keys.*surprise"):
            ExtractorConfig.from_dict(data)

    def test_missing_keys_rejected(self):
        from repro.core.pipeline import ExtractorConfig

        data = self._config().to_dict()
        del data["std"]
        with pytest.raises(ValueError, match="missing keys.*std"):
            ExtractorConfig.from_dict(data)

    def test_future_version_rejected(self):
        from repro.core.pipeline import ExtractorConfig

        data = self._config().to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ExtractorConfig.from_dict(data)

    def test_version_one_snapshot_rejected(self):
        # version 1 carried a "dtype" key; the precision now rides in the
        # backend spec, so an older snapshot fails instead of half-loading
        from repro.core.pipeline import ExtractorConfig

        data = self._config().to_dict()
        data["version"] = 1
        with pytest.raises(ValueError, match="schema version"):
            ExtractorConfig.from_dict(data)
        data["dtype"] = "float32"
        with pytest.raises(ValueError, match="unknown keys.*dtype"):
            ExtractorConfig.from_dict(data)

    def test_unknown_nonlinearity_rejected(self):
        from repro.core.pipeline import ExtractorConfig

        data = self._config().to_dict()
        data["nonlinearity"] = {"name": "warp-drive", "params": {}}
        with pytest.raises(ValueError, match="warp-drive"):
            ExtractorConfig.from_dict(data)

    def test_nonlinearity_params_survive(self):
        from repro.core.pipeline import ExtractorConfig

        data = self._config().to_dict()
        assert data["nonlinearity"] == {"name": "sine", "params": {"omega": 1.0}}
        data["nonlinearity"]["params"]["omega"] = 2.5
        back = ExtractorConfig.from_dict(data)
        assert back.nonlinearity.omega == 2.5

    def test_non_dict_rejected(self):
        from repro.core.pipeline import ExtractorConfig

        with pytest.raises(TypeError):
            ExtractorConfig.from_dict([1, 2, 3])

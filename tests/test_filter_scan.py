"""Scan-kernel, filter-routing, LRU-cache and mixed-precision tests.

The log-depth associative scan of :mod:`repro.backend.scan` is the
device backends' long-chain replacement for the Toeplitz matmul; it is
backend-generic, so these tests exercise the *identical* arithmetic on
plain NumPy arrays and pin it against the exact SciPy ``lfilter``
reference across chain lengths, coefficient regimes (including the
marginally-stable ``c -> 1`` corner) and non-zero initial conditions.
Device-backend routing (``REPRO_FILTER_IMPL`` / ``REPRO_SCAN_CROSSOVER``)
and the float32 precision knob are covered alongside, with torch-gated
cases skipping cleanly when the library is absent.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.backend import (
    BackendUnavailableError,
    NumpyBackend,
    resolve_backend,
)
from repro.backend.scan import (
    DEFAULT_SCAN_CROSSOVER,
    FILTER_IMPL_ENV_VAR,
    SCAN_CROSSOVER_ENV_VAR,
    LRUCache,
    first_order_scan,
    first_order_scan_stacked,
    resolve_filter_impl,
    scan_crossover,
    use_scan,
)

XB = NumpyBackend()

#: chain lengths spanning both sides of the auto crossover, up to the
#: series-length regime the scan exists for
CHAIN_LENGTHS = (64, 1024, 8192)
#: decaying, strongly-damped, marginally-stable and integrating chains
COEFS = (0.0, 0.5, 0.999999, 1.0)


def _require(name):
    """Resolve a non-NumPy backend or skip the test cleanly."""
    try:
        return resolve_backend(name)
    except BackendUnavailableError as exc:
        pytest.skip(f"backend {name!r} not installed: {exc}")


def _lfilter_ref(x, coef, zi):
    y, _ = lfilter([1.0], np.array([1.0, -coef]), x, axis=-1, zi=zi)
    return y


# --------------------------------------------------------------------- #
# scan vs exact lfilter (NumPy arrays, backend-generic arithmetic)
# --------------------------------------------------------------------- #


class TestScanParity:
    @pytest.mark.parametrize("n", CHAIN_LENGTHS)
    @pytest.mark.parametrize("coef", COEFS)
    def test_scalar_chain_matches_lfilter(self, n, coef):
        gen = np.random.default_rng(n)
        x = gen.normal(size=(3, n))
        zi = gen.normal(size=(3, 1))
        got = first_order_scan(XB, x, coef, zi)
        want = _lfilter_ref(x, coef, zi)
        # c = 1 integrates ~n samples, so compare relative to magnitude
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", CHAIN_LENGTHS)
    def test_stacked_chain_matches_per_candidate_lfilter(self, n):
        gen = np.random.default_rng(n + 1)
        coefs = np.array(COEFS)
        k = coefs.shape[0]
        x = gen.normal(size=(k, 2, n))
        zi = gen.normal(size=(k, 2, 1))
        got = first_order_scan_stacked(XB, x, coefs, zi)
        for i, coef in enumerate(coefs):
            np.testing.assert_allclose(
                got[i], _lfilter_ref(x[i], coef, zi[i]),
                rtol=1e-10, atol=1e-10)

    def test_stacked_accepts_bare_2d_input(self):
        gen = np.random.default_rng(7)
        coefs = np.array([0.2, 0.8])
        x = gen.normal(size=(2, 300))
        zi = gen.normal(size=(2, 1))
        got = first_order_scan_stacked(XB, x, coefs, zi)
        for i, coef in enumerate(coefs):
            np.testing.assert_allclose(
                got[i], _lfilter_ref(x[i], coef, zi[i]),
                rtol=1e-10, atol=1e-10)

    def test_zero_zi_and_length_one_chain(self):
        x = np.array([[2.5]])
        assert first_order_scan(XB, x, 0.9, np.zeros((1, 1)))[0, 0] == 2.5
        # zi folds into sample 0: y_0 = x_0 + zi exactly
        got = first_order_scan(XB, x, 0.9, np.array([[1.5]]))
        assert got[0, 0] == 4.0

    def test_divergent_coef_overflows_without_raising(self):
        # |c| > 1 chains overflow to inf on long series, exactly like the
        # Toeplitz powers; the hot path's errstate silences the warning
        x = np.ones((1, 4096))
        with np.errstate(over="ignore", invalid="ignore"):
            y = first_order_scan(XB, x, 1.5, np.zeros((1, 1)))
        assert np.isinf(y[0, -1])


# --------------------------------------------------------------------- #
# implementation routing knobs
# --------------------------------------------------------------------- #


class TestFilterRouting:
    def test_default_is_auto_with_crossover(self, monkeypatch):
        monkeypatch.delenv(FILTER_IMPL_ENV_VAR, raising=False)
        monkeypatch.delenv(SCAN_CROSSOVER_ENV_VAR, raising=False)
        assert resolve_filter_impl() == "auto"
        assert scan_crossover() == DEFAULT_SCAN_CROSSOVER
        assert not use_scan(DEFAULT_SCAN_CROSSOVER - 1)
        assert use_scan(DEFAULT_SCAN_CROSSOVER)

    def test_pinned_impl_wins_over_length(self, monkeypatch):
        monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "scan")
        assert use_scan(2)
        monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "toeplitz")
        assert not use_scan(10**6)

    def test_crossover_override(self, monkeypatch):
        monkeypatch.delenv(FILTER_IMPL_ENV_VAR, raising=False)
        monkeypatch.setenv(SCAN_CROSSOVER_ENV_VAR, "32")
        assert use_scan(32)
        assert not use_scan(31)

    def test_invalid_values_raise(self, monkeypatch):
        monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "fft")
        with pytest.raises(ValueError, match="REPRO_FILTER_IMPL"):
            resolve_filter_impl()
        monkeypatch.delenv(FILTER_IMPL_ENV_VAR)
        monkeypatch.setenv(SCAN_CROSSOVER_ENV_VAR, "zero")
        with pytest.raises(ValueError, match="REPRO_SCAN_CROSSOVER"):
            scan_crossover()
        monkeypatch.setenv(SCAN_CROSSOVER_ENV_VAR, "0")
        with pytest.raises(ValueError, match=">= 1"):
            scan_crossover()

    def test_numpy_backend_ignores_the_pin(self, monkeypatch):
        # the NumPy reference keeps its exact lfilter under any pin — the
        # scan is a device-backend selection only (bit-pins stay intact)
        gen = np.random.default_rng(3)
        x = gen.normal(size=(2, 400))
        zi = gen.normal(size=(2, 1))
        base = XB.first_order_filter(x, 0.7, zi)
        monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "scan")
        pinned = XB.first_order_filter(x, 0.7, zi)
        np.testing.assert_array_equal(base, pinned)


# --------------------------------------------------------------------- #
# torch routing (skips when the library is absent)
# --------------------------------------------------------------------- #


class TestTorchScanRouting:
    def test_scan_matches_toeplitz_below_and_above_crossover(
            self, monkeypatch):
        xb = _require("torch")
        gen = np.random.default_rng(11)
        for n in (64, 1024):
            x = xb.asarray(gen.normal(size=(3, n)))
            zi = xb.asarray(gen.normal(size=(3, 1)))
            monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "toeplitz")
            y_toep = xb.to_numpy(xb.first_order_filter(x, 0.9, zi))
            monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "scan")
            y_scan = xb.to_numpy(xb.first_order_filter(x, 0.9, zi))
            np.testing.assert_allclose(y_scan, y_toep,
                                       rtol=1e-12, atol=1e-12)

    def test_stacked_scan_matches_numpy_reference(self, monkeypatch):
        xb = _require("torch")
        gen = np.random.default_rng(12)
        coefs = np.array([0.1, 0.5, 0.999999])
        x = gen.normal(size=(3, 2, 1024))
        zi = gen.normal(size=(3, 2, 1))
        want = XB.first_order_filter_stacked(x, coefs, zi)
        monkeypatch.setenv(FILTER_IMPL_ENV_VAR, "scan")
        got = xb.to_numpy(xb.first_order_filter_stacked(
            xb.asarray(x), coefs, xb.asarray(zi)))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_auto_routes_by_length(self, monkeypatch):
        xb = _require("torch")
        monkeypatch.delenv(FILTER_IMPL_ENV_VAR, raising=False)
        monkeypatch.setenv(SCAN_CROSSOVER_ENV_VAR, "256")
        gen = np.random.default_rng(13)
        # below the crossover the Toeplitz cache gains an entry; above it
        # the scan path allocates no matrix
        before = len(xb._toeplitz_cache)
        x = xb.asarray(gen.normal(size=(2, 300)))
        xb.first_order_filter(x, 0.42424242, xb.asarray(np.zeros((2, 1))))
        assert len(xb._toeplitz_cache) == before

        x = xb.asarray(gen.normal(size=(2, 100)))
        xb.first_order_filter(x, 0.42424242, xb.asarray(np.zeros((2, 1))))
        assert len(xb._toeplitz_cache) == before + 1


# --------------------------------------------------------------------- #
# LRU cache (the Toeplitz working-set fix)
# --------------------------------------------------------------------- #


class TestLRUCache:
    def test_eviction_drops_only_the_oldest(self):
        cache = LRUCache(maxsize=64)
        for i in range(64):
            cache.put(i, i * 10)
        cache.put(64, 640)  # 65th insert
        assert len(cache) == 64
        assert 0 not in cache  # only the stalest entry left
        for i in range(1, 65):
            assert cache.get(i) == i * 10

    def test_get_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_overwrite_refreshes_without_evicting(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        cache.put("c", 3)
        assert "b" not in cache and cache.get("a") == 10

    def test_miss_returns_none_and_maxsize_validates(self):
        cache = LRUCache(maxsize=1)
        assert cache.get("missing") is None
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache(maxsize=0)

    def test_keys_in_recency_order(self):
        cache = LRUCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]

    def test_torch_toeplitz_cache_is_lru(self):
        xb = _require("torch")
        assert isinstance(xb._toeplitz_cache, LRUCache)
        assert xb._toeplitz_cache.maxsize == 64

    def test_concurrent_access_is_safe(self):
        # the serving engine may tick from one thread while REPRO_WORKERS
        # extraction hammers the same cache from others; unsynchronized
        # OrderedDict mutation corrupts the recency list or raises
        import threading

        cache = LRUCache(maxsize=16)
        errors = []
        barrier = threading.Barrier(4)

        def worker(tid):
            rng = np.random.default_rng(tid)
            barrier.wait()
            try:
                for i in range(2000):
                    key = int(rng.integers(0, 64))
                    value = cache.get(key)
                    if value is not None:
                        assert value == key * 3
                    cache.put(key, key * 3)
                    if i % 500 == 0:
                        cache.keys()
                        len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        # the cache must still behave: a fresh put/get cycle works
        cache.put("post", 42)
        assert cache.get("post") == 42


# --------------------------------------------------------------------- #
# mixed precision (the backend spec's @dtype suffix)
# --------------------------------------------------------------------- #


class TestMixedPrecision:
    def test_spec_grammar_and_caching(self):
        xb32 = resolve_backend("numpy@float32")
        assert xb32.dtype_name == "float32"
        assert xb32 is resolve_backend("numpy@float32")
        # default-dtype specs keep resolving to the shared singleton
        assert resolve_backend("numpy@float64") is resolve_backend("numpy")
        with pytest.raises(ValueError, match="dtype"):
            resolve_backend("numpy@float16")

    def test_repro_dtype_env(self, monkeypatch):
        from repro.backend import default_backend

        monkeypatch.setenv("REPRO_BACKEND", "numpy@float32")
        assert default_backend().dtype_name == "float32"
        monkeypatch.setenv("REPRO_BACKEND", "numpy@float16")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend()

    def test_float32_arrays_stay_float32(self):
        xb32 = resolve_backend("numpy@float32")
        assert xb32.zeros((2, 2)).dtype == np.float32
        assert xb32.asarray(np.ones(3)).dtype == np.float32
        y = xb32.first_order_filter(
            xb32.asarray(np.random.default_rng(0).normal(size=(2, 50))),
            0.5, xb32.zeros((2, 1)))
        assert y.dtype == np.float32

    def test_float64_default_untouched(self):
        # the bit-pinned reference: float64 mode never converts
        xb = resolve_backend("numpy")
        a = np.arange(4.0)
        assert xb.asarray(a) is a

    def test_float32_scan_stays_float32(self):
        xb32 = resolve_backend("numpy@float32")
        gen = np.random.default_rng(5)
        x = xb32.asarray(gen.normal(size=(2, 3, 512)))
        zi = xb32.zeros((2, 3, 1))
        y = first_order_scan_stacked(xb32, x, np.array([0.3, 0.8]), zi)
        assert y.dtype == np.float32

    def test_float32_features_match_float64_within_tolerance(self):
        # the documented tolerance contract (docs/ARCHITECTURE.md):
        # features rtol ~1e-3 against the float64 reference
        from repro.core.pipeline import DFRFeatureExtractor

        gen = np.random.default_rng(21)
        u = gen.normal(size=(12, 40, 3))
        f64 = DFRFeatureExtractor(n_nodes=10, seed=0).fit(u)
        f32 = DFRFeatureExtractor(n_nodes=10, seed=0,
                                  backend="numpy@float32").fit(u)
        feats64, div64 = f64.features(u, 0.2, 0.3)
        feats32, div32 = f32.features(u, 0.2, 0.3)
        assert feats32.dtype == np.float32
        assert not div64.any() and not div32.any()
        scale = np.abs(feats64).max()
        np.testing.assert_allclose(feats32, feats64, rtol=1e-3,
                                   atol=1e-3 * scale)

    def test_float32_gradients_match_float64_within_tolerance(self):
        # gradients accumulate more rounding: rtol ~1e-2 on the scalar
        # parameter gradients (the quantities SGD consumes)
        from repro.core.backprop import BackpropEngine
        from repro.readout.softmax import SoftmaxReadout, one_hot
        from repro.representation.dprr import DPRR
        from repro.reservoir.masking import InputMask
        from repro.reservoir.modular import ModularDFR

        gen = np.random.default_rng(22)
        u = gen.normal(size=(8, 30, 2))
        dfr = ModularDFR(InputMask.binary(10, 2, seed=0))
        trace = dfr.run(u, 0.2, 0.3)
        dprr = DPRR()
        feats = dprr.features(trace)
        readout = SoftmaxReadout(feats.shape[1], 3)
        readout.weights = gen.normal(scale=0.01, size=readout.weights.shape)
        targets = one_hot(gen.integers(0, 3, size=8), 3)
        win = trace.final_window(1)

        def grads(backend):
            engine = BackpropEngine(window=1, dprr=dprr, backend=backend)
            return engine.batch_gradients(
                win.window_states, win.window_pre_activations, feats,
                readout, targets, 0.2, 0.3, n_steps=trace.n_steps)

        g64 = grads("numpy")
        g32 = grads("numpy@float32")
        np.testing.assert_allclose(g32.d_A, g64.d_A, rtol=1e-2, atol=1e-5)
        np.testing.assert_allclose(g32.d_B, g64.d_B, rtol=1e-2, atol=1e-5)
        np.testing.assert_allclose(g32.losses, g64.losses,
                                   rtol=1e-3, atol=1e-5)

    def test_extractor_config_roundtrips_dtype(self):
        from repro.core.pipeline import DFRFeatureExtractor

        gen = np.random.default_rng(23)
        u = gen.normal(size=(6, 20, 2))
        ext = DFRFeatureExtractor(n_nodes=6, seed=0,
                                  backend="numpy@float32").fit(u)
        rebuilt = ext.snapshot().build()
        assert rebuilt.backend_spec == "numpy@float32"
        assert rebuilt.backend.dtype_name == "float32"
        f_a, _ = ext.features(u, 0.2, 0.3)
        f_b, _ = rebuilt.features(u, 0.2, 0.3)
        np.testing.assert_array_equal(f_a, f_b)

    @pytest.mark.parametrize(
        "A, B", [(0.2, 0.3), (np.array([0.2, 0.4]), np.array([0.3, 0.1]))],
        ids=["scalar", "stacked"])
    def test_chunked_features_keep_backend_precision(self, A, B):
        # chunking bounds memory only: the chunked output must be the
        # unchunked one, dtype and bytes
        from repro.core.pipeline import DFRFeatureExtractor

        u = np.random.default_rng(24).normal(size=(10, 20, 2))
        ext = DFRFeatureExtractor(n_nodes=6, seed=0,
                                  backend="numpy@float32").fit(u)
        whole, div_whole = ext.features(u, A, B)
        ext.feature_batch_size = 4
        chunked, div_chunked = ext.features(u, A, B)
        assert whole.dtype == chunked.dtype == np.float32
        assert chunked.tobytes() == whole.tobytes()
        np.testing.assert_array_equal(div_chunked, div_whole)


class TestPrecisionSuffixEntryPoints:
    """``@float32`` reaches every entry point that runs the batched path,
    whether passed as ``backend=`` or set only through ``REPRO_BACKEND``."""

    @pytest.fixture
    def sweep_dtypes(self, monkeypatch):
        """The working precision of every reservoir sweep that runs."""
        from repro.reservoir.modular import ModularDFR

        seen = []
        run = ModularDFR.run

        def spy(self, u, A, B, *, backend=None):
            seen.append(getattr(backend, "dtype_name", "float64"))
            return run(self, u, A, B, backend=backend)

        monkeypatch.setattr(ModularDFR, "run", spy)
        return seen

    @pytest.fixture
    def toy(self):
        gen = np.random.default_rng(25)
        return gen.normal(size=(12, 20, 2)), gen.integers(0, 3, size=12)

    def test_feature_extractor_and_pickled_config(self, float32_spec, toy):
        import pickle

        from repro.core.pipeline import DFRFeatureExtractor

        u, _ = toy
        ext = DFRFeatureExtractor(n_nodes=6, seed=0,
                                  backend=float32_spec).fit(u)
        assert ext.backend.dtype_name == "float32"
        assert ext.features(u, 0.2, 0.3)[0].dtype == np.float32
        config = pickle.loads(pickle.dumps(ext.snapshot()))
        assert config.build().backend.dtype_name == "float32"

    def test_minibatch_trainers(self, float32_spec, toy, sweep_dtypes):
        from repro.core.population import PopulationTrainer
        from repro.core.trainer import BackpropTrainer, TrainerConfig
        from repro.reservoir.masking import InputMask
        from repro.reservoir.modular import ModularDFR

        u, y = toy
        reservoir = ModularDFR(InputMask.binary(6, 2, seed=0))
        config = TrainerConfig(epochs=1, batch_size=4, backend=float32_spec)
        BackpropTrainer(reservoir, 3, config=config, seed=0).fit(u, y)
        population = PopulationTrainer(reservoir, 3, config=config, seed=0)
        assert population.backend.dtype_name == "float32"
        population.fit(u, y, np.array([0.01, 0.2]), np.array([0.01, 0.3]))
        assert sweep_dtypes and set(sweep_dtypes) == {"float32"}

    def test_classifier(self, float32_spec, toy, sweep_dtypes):
        from repro.core.pipeline import DFRClassifier
        from repro.core.trainer import TrainerConfig

        u, y = toy
        clf = DFRClassifier(n_nodes=6, config=TrainerConfig(epochs=1),
                            batch_size=4, backend=float32_spec, seed=0)
        clf.fit(u, y)
        assert clf.extractor.backend.dtype_name == "float32"
        assert sweep_dtypes and set(sweep_dtypes) == {"float32"}

    def test_serve_engine(self, float32_spec):
        from repro.serve import ServeEngine

        engine = ServeEngine(backend=float32_spec)
        assert engine.stats()["carry_domain"] == ("numpy", "cpu", "float32")

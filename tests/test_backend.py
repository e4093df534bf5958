"""Array-backend shim: resolution, bit-identity, and cross-backend parity.

Three layers of guarantees:

* **resolution** — ``resolve_backend`` / ``default_backend`` /
  ``REPRO_BACKEND`` semantics, including the loud
  :class:`~repro.backend.BackendUnavailableError` when a requested
  library is missing (no silent NumPy fallback);
* **NumPy bit-identity** — routing the batched hot path through the
  explicit :class:`~repro.backend.NumpyBackend` reproduces pinned
  ``float.hex()`` goldens *bit for bit* (see ``TestNumpyBitIdentity`` for
  when each was captured), and the ``backend``
  knob threaded through ``TrainerConfig`` / ``DFRFeatureExtractor`` /
  ``BackendExecutor`` is a no-op for ``"numpy"``;
* **cross-backend parity** — every non-NumPy backend importable on this
  host must match the NumPy gradients within tight tolerance on fixed
  seeds; hosts without torch/cupy skip those cases cleanly (and assert
  that the skip is the *loud* error, not a quiet downgrade).
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    ArrayBackend,
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    default_backend,
    infer_backend,
    resolve_backend,
)
from repro.core.backprop import BackpropEngine
from repro.core.pipeline import DFRFeatureExtractor
from repro.core.trainer import BackpropTrainer, TrainerConfig
from repro.data.loaders import make_toy_dataset
from repro.exec import BackendExecutor, Candidate, EvaluationContext, SerialExecutor
from repro.readout.softmax import SoftmaxReadout, one_hot
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR
from repro.reservoir.nonlinearity import NONLINEARITIES, Nonlinearity

NON_NUMPY = [n for n in BACKEND_NAMES if n != "numpy"]
AVAILABLE_NON_NUMPY = [n for n in available_backends() if n != "numpy"]


def _require(name):
    """Resolve a non-NumPy backend or skip the test cleanly."""
    try:
        return resolve_backend(name)
    except BackendUnavailableError as exc:
        pytest.skip(f"backend {name!r} not installed: {exc}")


# --------------------------------------------------------------------- #
# resolution semantics
# --------------------------------------------------------------------- #


class TestResolution:
    def test_none_is_the_numpy_singleton(self):
        assert isinstance(resolve_backend(None), NumpyBackend)
        assert resolve_backend(None) is resolve_backend("numpy")

    def test_instances_pass_through(self):
        xb = resolve_backend("numpy")
        assert resolve_backend(xb) is xb

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend("tensorflow")

    def test_bad_type_raises(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend().name == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert default_backend().name == "numpy"

    def test_missing_backend_raises_cleanly(self):
        """An uninstalled backend must raise loudly, with install guidance.

        (On hosts where torch/cupy *are* installed this degrades to
        checking that resolution succeeds — the parity tests below then
        exercise the real thing.)
        """
        for name in NON_NUMPY:
            if name in AVAILABLE_NON_NUMPY:
                assert isinstance(resolve_backend(name), ArrayBackend)
                continue
            with pytest.raises(BackendUnavailableError, match="install"):
                resolve_backend(name)
            # the error is an ImportError subclass, so plain try/except
            # ImportError guards (the usual optional-dependency idiom) work
            assert issubclass(BackendUnavailableError, ImportError)

    def test_env_naming_missing_backend_raises(self, monkeypatch):
        missing = [n for n in NON_NUMPY if n not in AVAILABLE_NON_NUMPY]
        if not missing:
            pytest.skip("all registry backends installed on this host")
        monkeypatch.setenv(BACKEND_ENV_VAR, missing[0])
        with pytest.raises(BackendUnavailableError):
            default_backend()

    def test_infer_backend(self):
        assert infer_backend(np.zeros(3)).name == "numpy"
        assert infer_backend([1.0, 2.0]).name == "numpy"


# --------------------------------------------------------------------- #
# shared fixture: a small deterministic gradient problem
# --------------------------------------------------------------------- #


def _gradient_problem():
    rng = np.random.default_rng(1234)
    u = rng.normal(size=(6, 40, 3))
    dfr = ModularDFR(InputMask.binary(10, 3, seed=7))
    trace = dfr.run(u, 0.2, 0.3)
    dprr = DPRR()
    feats = dprr.features(trace)
    readout = SoftmaxReadout(feats.shape[1], 4)
    readout.weights = rng.normal(scale=0.01, size=readout.weights.shape)
    readout.bias = rng.normal(scale=0.01, size=readout.bias.shape)
    targets = one_hot(rng.integers(0, 4, size=6), 4)
    return u, dfr, trace, dprr, feats, readout, targets


def _batch_grads(backend, window=3):
    u, dfr, trace, dprr, feats, readout, targets = _gradient_problem()
    engine = BackpropEngine(window=window, dprr=dprr, backend=backend)
    win = trace.final_window(window)
    return engine.batch_gradients(
        win.window_states, win.window_pre_activations, feats, readout,
        targets, 0.2, 0.3, n_steps=trace.n_steps, keep_state_grads=True,
    )


# --------------------------------------------------------------------- #
# NumPy bit-identity (the pre-PR pin)
# --------------------------------------------------------------------- #


class TestNumpyBitIdentity:
    """``REPRO_BACKEND=numpy`` output is bit-pinned.

    Exact (``==``) comparison against ``float.hex()`` literals pins that the
    NumPy backend performs the same operations in the same order.  The
    losses, ``d_bias`` and the two sums were captured before the backend
    shim existed.  ``d_A``, ``d_B`` and the ``d_weights`` norm were
    re-captured when the batched DPRR contraction became one BLAS GEMM per
    sample (docs/ARCHITECTURE.md, "The DPRR contraction"); like the
    readout's GEMM, they assume one BLAS thread and the same OpenBLAS
    kernel.  The ``PRE_GEMM_*`` literals are their values under the seed's
    ``einsum`` contraction, still held at rounding distance.
    """

    GOLDEN_LOSSES = ['0x1.714451e888be2p+0', '0x1.5c15b252cc385p+0',
                     '0x1.39fa1f1d30d5cp+0', '0x1.4719e32817829p+0',
                     '0x1.334c713d77031p+0', '0x1.590b05b10fae4p+0']
    GOLDEN_D_A = ['0x1.794ffe5cb1252p-3', '0x1.3d5b75077d3cap-3',
                  '-0x1.46af63725e7f3p-4', '-0x1.51aa18b51150dp-3',
                  '-0x1.ad944d5093459p-5', '-0x1.2ba90f4361513p-3']
    GOLDEN_D_B = ['-0x1.3bf2e2ded919fp-9', '0x1.6c35bc75c4233p-4',
                  '0x1.0ea3e131c6b70p-7', '-0x1.ba53cd337b141p-7',
                  '-0x1.4bf28a4be62d1p-6', '-0x1.5910f02ecb486p-6']
    GOLDEN_D_BIAS = ['-0x1.037f64d6a2bf5p-2', '0x1.1862ca884483fp-2',
                     '0x1.e64b4258d27e8p-3', '-0x1.080906de0b03dp-2']
    GOLDEN_STATES_SUM = '0x1.2bdc2e9a5e980p+5'
    GOLDEN_FEATS_SUM = '0x1.87f0e189d36e0p+8'
    GOLDEN_DW_FROB = '0x1.f70613ff9f373p+2'

    PRE_GEMM_D_A = ['0x1.794ffe5cb1252p-3', '0x1.3d5b75077d3cap-3',
                    '-0x1.46af63725e7f3p-4', '-0x1.51aa18b51150ep-3',
                    '-0x1.ad944d5093459p-5', '-0x1.2ba90f4361512p-3']
    PRE_GEMM_D_B = ['-0x1.3bf2e2ded919fp-9', '0x1.6c35bc75c4233p-4',
                    '0x1.0ea3e131c6b70p-7', '-0x1.ba53cd337b146p-7',
                    '-0x1.4bf28a4be62d1p-6', '-0x1.5910f02ecb486p-6']
    PRE_GEMM_DW_FROB = '0x1.f70613ff9f372p+2'

    @staticmethod
    def _unhex(values):
        return np.array([float.fromhex(v) for v in values])

    def test_golden_forward_and_features(self):
        _, _, trace, _, feats, _, _ = _gradient_problem()
        assert float(trace.states.sum()) == float.fromhex(self.GOLDEN_STATES_SUM)
        assert float(feats.sum()) == float.fromhex(self.GOLDEN_FEATS_SUM)

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_golden_batch_gradients(self, backend, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        g = _batch_grads(backend)
        np.testing.assert_array_equal(g.losses, self._unhex(self.GOLDEN_LOSSES))
        np.testing.assert_array_equal(g.d_A, self._unhex(self.GOLDEN_D_A))
        np.testing.assert_array_equal(g.d_B, self._unhex(self.GOLDEN_D_B))
        np.testing.assert_array_equal(g.d_bias, self._unhex(self.GOLDEN_D_BIAS))
        dw_frob = float(np.sqrt((g.d_weights ** 2).sum()))
        assert dw_frob == float.fromhex(self.GOLDEN_DW_FROB)
        np.testing.assert_allclose(g.d_A, self._unhex(self.PRE_GEMM_D_A),
                                   rtol=1e-14)
        np.testing.assert_allclose(g.d_B, self._unhex(self.PRE_GEMM_D_B),
                                   rtol=1e-14)
        assert dw_frob == pytest.approx(float.fromhex(self.PRE_GEMM_DW_FROB),
                                        rel=1e-14)

    def test_streaming_matches_full_trace_backend_routed(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(4, 20, 2))
        dfr = ModularDFR(InputMask.binary(6, 2, seed=1), nonlinearity="tanh")
        sr = dfr.run_streaming(u, 0.2, 0.3, window=2)
        tr = dfr.run(u, 0.2, 0.3)
        # the streaming sweep computes its masked drive per time step so its
        # bits are chunk-invariant (the serving contract); the full-trace
        # sweep keeps the one-shot GEMM, so the two agree only to last-ulp
        # tolerance, not necessarily bit for bit
        np.testing.assert_allclose(sr.window_states,
                                   tr.states[:, -3:], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(DPRR().features(sr), DPRR().features(tr),
                                   rtol=1e-12, atol=1e-14)

    def test_trainer_backend_knob_is_noop_for_numpy(self):
        data = make_toy_dataset(n_classes=3, n_channels=2, length=20,
                                n_train=24, n_test=6, noise=0.25, seed=11)
        results = []
        for backend in (None, "numpy"):
            config = TrainerConfig(epochs=3, batch_size=8, backend=backend)
            trainer = BackpropTrainer(ModularDFR(InputMask.binary(6, 2, seed=0)),
                                      n_classes=3, config=config, seed=0)
            results.append(trainer.fit(data.u_train, data.y_train))
        r0, r1 = results
        assert r0.A == r1.A and r0.B == r1.B
        np.testing.assert_array_equal(r0.readout.weights, r1.readout.weights)
        assert [h.mean_loss for h in r0.history] == \
            [h.mean_loss for h in r1.history]

    def test_extractor_backend_knob_is_noop_for_numpy(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(9, 18, 2))
        ext_default = DFRFeatureExtractor(n_nodes=5, seed=0).fit(u)
        ext_numpy = DFRFeatureExtractor(n_nodes=5, backend="numpy",
                                        seed=0).fit(u)
        f0, d0 = ext_default.features(u, 0.2, 0.3)
        f1, d1 = ext_numpy.features(u, 0.2, 0.3)
        np.testing.assert_array_equal(f0, f1)
        np.testing.assert_array_equal(d0, d1)
        assert ext_numpy.snapshot().backend == "numpy"
        assert ext_numpy.snapshot().build().backend.name == "numpy"

    def test_backend_executor_bit_identical_to_serial(self):
        data = make_toy_dataset(n_classes=2, n_channels=1, length=15,
                                n_train=16, n_test=8, noise=0.3, seed=2)
        ext = DFRFeatureExtractor(n_nodes=4, seed=0).fit(data.u_train)
        context = EvaluationContext.from_data(
            ext.snapshot(), data.u_train, data.y_train,
            data.u_test, data.y_test, base_seed=0,
        )
        candidates = [Candidate(index=i, A=a, B=b, seed=7)
                      for i, (a, b) in enumerate([(0.1, 0.1), (0.3, 0.2)])]
        serial = SerialExecutor().run(context, candidates).evaluations()
        routed = BackendExecutor("numpy").run(context, candidates).evaluations()
        assert serial == routed

    def test_backend_executor_rejects_missing_backend_eagerly(self):
        missing = [n for n in NON_NUMPY if n not in AVAILABLE_NON_NUMPY]
        if not missing:
            pytest.skip("all registry backends installed on this host")
        with pytest.raises(BackendUnavailableError):
            BackendExecutor(missing[0])


# --------------------------------------------------------------------- #
# op-level and gradient parity for every installed non-NumPy backend
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", NON_NUMPY)
class TestBackendParity:
    """Each installed accelerator backend must match NumPy; others skip."""

    def test_first_order_filter_matches_scipy(self, name, rng):
        xb = _require(name)
        ref = resolve_backend("numpy")
        x = rng.normal(size=(5, 12))
        zi = rng.normal(size=(5, 1))
        for coef in (0.0, 0.3, 0.95):
            got = xb.to_numpy(xb.first_order_filter(
                xb.asarray(x), coef, xb.asarray(zi)))
            want = ref.first_order_filter(x, coef, zi)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_first_order_filter_stacked_matches_scipy(self, name, rng):
        xb = _require(name)
        ref = resolve_backend("numpy")
        x = rng.normal(size=(3, 5, 12))
        zi = rng.normal(size=(3, 5, 1))
        coefs = np.array([0.0, 0.3, 0.95])
        got = xb.to_numpy(xb.first_order_filter_stacked(
            xb.asarray(x), coefs, xb.asarray(zi)))
        want = ref.first_order_filter_stacked(x, coefs, zi)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        # stacked rows must equal the scalar filter of that coefficient
        for k, coef in enumerate(coefs):
            np.testing.assert_allclose(
                got[k],
                xb.to_numpy(xb.first_order_filter(
                    xb.asarray(x[k]), float(coef), xb.asarray(zi[k]))),
                rtol=1e-12, atol=1e-14)
        # the minimal documented shape — (K, n), no sample axis — must
        # return (K, n) like the NumPy reference, not a mis-broadcast
        x2 = rng.normal(size=(3, 12))
        zi2 = rng.normal(size=(3, 1))
        got2 = xb.to_numpy(xb.first_order_filter_stacked(
            xb.asarray(x2), coefs, xb.asarray(zi2)))
        want2 = ref.first_order_filter_stacked(x2, coefs, zi2)
        assert got2.shape == want2.shape == (3, 12)
        np.testing.assert_allclose(got2, want2, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_stacked_forward_parity(self, name, nonlinearity, rng):
        xb = _require(name)
        u = rng.normal(size=(4, 15, 2))
        dfr = ModularDFR(InputMask.binary(6, 2, seed=0),
                         nonlinearity=nonlinearity)
        a_vec = np.array([0.1, 0.25, 0.05])
        b_vec = np.array([0.3, 0.02, 0.2])
        ref = dfr.run(u, a_vec, b_vec)
        got = dfr.run(u, a_vec, b_vec, backend=xb)
        assert got.stacked
        np.testing.assert_allclose(xb.to_numpy(got.states), ref.states,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(got.diverged, ref.diverged)

    def test_dprr_features_parity(self, name, rng):
        """The GEMM contraction on the device, plain and candidate-stacked."""
        xb = _require(name)
        dprr = DPRR()
        for shape in ((4, 21, 6), (3, 4, 21, 6)):
            states = rng.normal(size=shape)
            states[..., 0, :] = 0.0
            got = dprr.features(xb.asarray(states))
            assert not isinstance(got, np.ndarray)  # stays on the device
            np.testing.assert_allclose(xb.to_numpy(got), dprr.features(states),
                                       rtol=1e-12, atol=1e-14)

    def test_structural_ops_roundtrip(self, name, rng):
        xb = _require(name)
        a = rng.normal(size=(4, 6))
        ta = xb.asarray(a)
        np.testing.assert_array_equal(xb.to_numpy(xb.flip(ta, -1)), a[:, ::-1])
        np.testing.assert_array_equal(
            xb.to_numpy(xb.take(ta, [2, 0], axis=0)), a[[2, 0]])
        np.testing.assert_array_equal(
            xb.to_numpy(xb.concatenate([ta, ta], axis=1)),
            np.concatenate([a, a], axis=1))
        np.testing.assert_allclose(
            xb.to_numpy(xb.einsum("ij,ij->i", ta, ta)),
            np.einsum("ij,ij->i", a, a), rtol=1e-12)
        np.testing.assert_allclose(
            xb.to_numpy(xb.sum(ta, axis=1)), a.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(
            xb.to_numpy(xb.max(ta, axis=-1, keepdims=True)),
            a.max(axis=-1, keepdims=True), rtol=1e-12)

    def test_shape_functions_match(self, name, rng):
        xb = _require(name)
        s = rng.normal(scale=2.0, size=(3, 50))
        ts = xb.asarray(s)
        for factory in NONLINEARITIES.values():
            nl = factory()
            np.testing.assert_allclose(
                xb.to_numpy(xb.phi(nl, ts)), nl.phi(s),
                rtol=1e-12, atol=1e-14, err_msg=f"phi[{nl.name}]")
            np.testing.assert_allclose(
                xb.to_numpy(xb.dphi(nl, ts)), nl.dphi(s),
                rtol=1e-12, atol=1e-14, err_msg=f"dphi[{nl.name}]")

    def test_unknown_shape_function_roundtrips(self, name):
        xb = _require(name)

        class Cubic(Nonlinearity):
            name = "cubic-test"

            def phi(self, s):
                return np.asarray(s) ** 3

            def dphi(self, s):
                return 3.0 * np.asarray(s) ** 2

        s = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(
            xb.to_numpy(xb.phi(Cubic(), xb.asarray(s))), s ** 3, rtol=1e-12)

    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_forward_parity(self, name, nonlinearity, rng):
        xb = _require(name)
        u = rng.normal(size=(4, 25, 2))
        dfr = ModularDFR(InputMask.binary(8, 2, seed=0),
                         nonlinearity=nonlinearity)
        ref = dfr.run(u, 0.2, 0.3)
        got = dfr.run(u, 0.2, 0.3, backend=xb)
        np.testing.assert_allclose(xb.to_numpy(got.states), ref.states,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(xb.to_numpy(got.pre_activations),
                                   ref.pre_activations, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(got.diverged, ref.diverged)

    @pytest.mark.parametrize("window", [1, 3])
    def test_gradient_parity(self, name, window):
        _require(name)
        ref = _batch_grads("numpy", window=window)
        got = _batch_grads(name, window=window)
        for field in ("losses", "probs", "d_A", "d_B",
                      "d_weights", "d_bias", "state_grads"):
            want = getattr(ref, field)
            have = getattr(got, field)
            assert isinstance(have, np.ndarray)  # engine outputs are NumPy
            np.testing.assert_allclose(
                have, want, rtol=1e-9, atol=1e-12, err_msg=field)

    def test_trainer_parity(self, name):
        _require(name)
        data = make_toy_dataset(n_classes=3, n_channels=2, length=20,
                                n_train=24, n_test=6, noise=0.25, seed=11)
        results = {}
        for backend in ("numpy", name):
            config = TrainerConfig(epochs=3, batch_size=8, backend=backend)
            trainer = BackpropTrainer(ModularDFR(InputMask.binary(6, 2, seed=0)),
                                      n_classes=3, config=config, seed=0)
            results[backend] = trainer.fit(data.u_train, data.y_train)
        assert results[name].A == pytest.approx(results["numpy"].A, rel=1e-7)
        assert results[name].B == pytest.approx(results["numpy"].B, rel=1e-7)
        np.testing.assert_allclose(results[name].readout.weights,
                                   results["numpy"].readout.weights,
                                   rtol=1e-6, atol=1e-9)

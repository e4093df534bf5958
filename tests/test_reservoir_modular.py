"""Differential tests: fast modular DFR vs the naive reference transcription."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from repro.backend import NumpyBackend, numpy_backend
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR
from repro.reservoir.reference import naive_modular_forward


@pytest.mark.parametrize("nonlinearity", ["identity", "tanh", "mackey-glass", "sine"])
def test_fast_forward_matches_naive_reference(nonlinearity):
    rng = np.random.default_rng(42)
    mask = InputMask.uniform(5, 3, seed=rng)
    u = rng.normal(size=(4, 11, 3))
    a_val, b_val = 0.3, 0.25
    dfr = ModularDFR(mask, nonlinearity=nonlinearity)
    trace = dfr.run(u, a_val, b_val)
    ref_states, ref_pre = naive_modular_forward(
        u, mask.matrix, a_val, b_val, nonlinearity
    )
    np.testing.assert_allclose(trace.states, ref_states, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(trace.pre_activations, ref_pre, rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    n_nodes=st.integers(1, 7),
    n_steps=st.integers(1, 9),
    a_val=st.floats(0.01, 0.5),
    b_val=st.floats(0.01, 0.5),
    seed=st.integers(0, 10_000),
)
def test_fast_forward_matches_naive_reference_property(
    n_nodes, n_steps, a_val, b_val, seed
):
    rng = np.random.default_rng(seed)
    mask = InputMask.binary(n_nodes, 2, seed=rng)
    u = rng.normal(size=(2, n_steps, 2))
    trace = ModularDFR(mask).run(u, a_val, b_val)
    ref_states, _ = naive_modular_forward(u, mask.matrix, a_val, b_val)
    np.testing.assert_allclose(trace.states, ref_states, rtol=1e-10, atol=1e-12)


def test_initial_state_is_zero_and_shapes():
    mask = InputMask.binary(8, 2, seed=0)
    u = np.random.default_rng(0).normal(size=(3, 12, 2))
    trace = ModularDFR(mask).run(u, 0.1, 0.1)
    assert trace.states.shape == (3, 13, 8)
    assert trace.pre_activations.shape == (3, 12, 8)
    np.testing.assert_array_equal(trace.states[:, 0], 0.0)
    assert trace.n_steps == 12 and trace.n_nodes == 8 and trace.n_samples == 3


def test_node_chain_boundary_crosses_time_steps():
    # with A = 0 the update is x(k)_n = B x(k)_{n-1}: node 1 at step 2 must
    # see node N_x of step 1 through the boundary, not zero
    mask = InputMask(np.ones((3, 1)))
    dfr = ModularDFR(mask)
    u = np.zeros((1, 2, 1))
    # seed the state via one step with A = 1: x(1) = phi(j) = j = 0 here,
    # so instead drive step 1 with input and A = 1
    u[0, 0, 0] = 1.0
    trace = dfr.run(u, 1.0, 0.5)
    x1 = trace.states[0, 1]  # after step 1
    x2 = trace.states[0, 2]
    # step 2 has zero input: x(2)_1 = A*x(1)_1 + B*x(1)_3
    assert x2[0] == pytest.approx(1.0 * x1[0] + 0.5 * x1[2])


def test_first_step_first_node_has_no_feedback():
    # x(1)_1 = A*phi(j(1)_1) exactly (all feedback terms are zero)
    mask = InputMask(np.array([[2.0], [1.0]]))
    dfr = ModularDFR(mask)
    u = np.array([[[3.0]]])  # one sample, one step, one channel
    trace = dfr.run(u, 0.25, 0.9)
    assert trace.states[0, 1, 0] == pytest.approx(0.25 * 6.0)
    # and node 2 sees node 1 through B
    assert trace.states[0, 1, 1] == pytest.approx(0.25 * 3.0 + 0.9 * 0.25 * 6.0)


def test_divergence_flagging():
    mask = InputMask(np.ones((4, 1)))
    dfr = ModularDFR(mask)  # identity shape -> can diverge
    u = np.ones((2, 400, 1))
    u[1] *= 0.0  # second sample: zero input stays at zero
    trace = dfr.run(u, 2.0, 1.5)  # wildly unstable parameters
    assert trace.diverged[0]
    assert not trace.diverged[1]


def test_stable_run_not_flagged():
    mask = InputMask.binary(10, 2, seed=0)
    u = np.random.default_rng(0).normal(size=(3, 200, 2))
    trace = ModularDFR(mask).run(u, 0.3, 0.3)
    assert not trace.diverged.any()
    assert np.all(np.isfinite(trace.states))


def test_rejects_nonfinite_params():
    mask = InputMask.binary(4, 1, seed=0)
    dfr = ModularDFR(mask)
    with pytest.raises(ValueError):
        dfr.run(np.ones((1, 5, 1)), np.nan, 0.1)
    with pytest.raises(ValueError):
        dfr.run(np.ones((1, 5, 1)), 0.1, np.inf)


#: (A, B) per input case: scalar, then three stacked candidates
_CHAIN_PARAMS = {
    "normal": ((0.3, 0.2), ([0.3, 0.05, 0.5], [0.2, 0.4, 0.01])),
    "zeros": ((0.3, 0.2), ([0.3, 0.05, 0.5], [0.2, 0.4, 0.01])),
    # states decay into subnormals, where sums underflow to zero
    "subnormal": ((1e-3, 1e-2), ([1e-3, 0.05, 1e-5], [1e-2, 1e-4, 0.1])),
    # rows overflow to inf; lfilter's zero taps then turn them to NaN
    "diverge": ((3.0, 3.0), ([0.1, 3.0, 1.5], [0.2, 3.0, 1.5])),
}


def _chain_input(case, n, n_steps=100):
    u = np.random.default_rng(5).normal(size=(n, n_steps, 1))
    if case == "zeros":
        u[:] = 0.0
    elif case == "subnormal":
        u[:, 3:, :] = 1e-320
    return u


def _df2t_chain(j, a_val, b_val, *, fused):
    """SciPy's direct-form-II-transposed loop for the chain, in Python.

    ``fused=False`` rounds each product and each sum on its own, as SciPy's
    compiled loop does here; ``fused=True`` rounds each ``z + b * x`` once,
    as a loop compiled with fused multiply-adds would.
    """
    def mul_add(z, b, x):
        if fused:
            return float(Fraction(z) + Fraction(b) * Fraction(x))
        return z + b * x

    n, t_len, nx = j.shape
    b = [a_val] + [0.0] * nx
    a = [1.0, -b_val] + [0.0] * (nx - 2) + [-a_val]
    out = np.empty((n, t_len * nx))
    for r, row in enumerate(j.reshape(n, -1).tolist()):
        z = [0.0] * nx
        for t, x in enumerate(row):
            y = mul_add(z[0], b[0], x)
            for m in range(nx - 1):
                z[m] = mul_add(mul_add(z[m + 1], b[m + 1], x), -y, a[m + 1])
            z[nx - 1] = mul_add(x * b[nx], -y, a[nx])
            out[r, t] = y
    return out.reshape(j.shape)


@pytest.fixture
def fresh_exactness_check():
    """Forget the process-wide exactness verdict before and after a test."""
    numpy_backend._recurrence_is_exact.cache_clear()
    yield
    numpy_backend._recurrence_is_exact.cache_clear()


class TestIdentityChainKernels:
    """The identity chain's two NumPy kernels give the same bytes.

    ``NumpyBackend.identity_chain`` runs as one SciPy ``lfilter`` call per
    candidate, or — once ``rows x N_x`` reaches ``_RECURRENCE_MIN_WIDTH`` —
    as one NumPy recurrence over every row of every candidate, handing back
    to ``lfilter`` only the rows that went non-finite or hold a ``-0.0``.

    Precondition: the bits agree only because SciPy's compiled ``lfilter``
    loop rounds each product and each sum on its own, with no fused
    multiply-add; the recurrence makes the same roundings in the same
    order.  The program checks this once per process on a small probe
    (``_recurrence_is_exact``) and keeps ``lfilter`` for every sweep where
    it fails.  A SciPy build that contracts them into FMAs (a compiler may,
    on targets with FMA) fails the byte test below loudly.
    """

    @staticmethod
    def _run(dfr, u, a_b, xb, width, monkeypatch):
        monkeypatch.setattr(numpy_backend, "_RECURRENCE_MIN_WIDTH", width)
        return dfr.run(u, *a_b, backend=xb)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("case", sorted(_CHAIN_PARAMS))
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("n_nodes", [10, 30])
    def test_recurrence_matches_lfilter_bytes(self, n_nodes, side, stacked,
                                              case, dtype, monkeypatch):
        assert numpy_backend._recurrence_is_exact(), (
            "this SciPy's lfilter rounds differently from the recurrence "
            "(fused multiply-adds?); every sweep keeps lfilter")
        width = numpy_backend._RECURRENCE_MIN_WIDTH
        n_cand = 3 if stacked else 1
        n = 12 if side == "below" else -(-width // (n_cand * n_nodes)) + 1
        assert (n_cand * n * n_nodes >= width) == (side == "above")
        dfr = ModularDFR(InputMask.binary(n_nodes, 1, seed=0))
        u = _chain_input(case, n)
        a_b = _CHAIN_PARAMS[case][stacked]
        xb = NumpyBackend(dtype)

        calls = []
        recurrence = numpy_backend._identity_recurrence
        monkeypatch.setattr(numpy_backend, "_identity_recurrence",
                            lambda *args: calls.append(1) or recurrence(*args))
        default = dfr.run(u, *a_b, backend=xb)
        assert len(calls) == (side == "above")
        ref = self._run(dfr, u, a_b, xb, float("inf"), monkeypatch)
        got = self._run(dfr, u, a_b, xb, 0, monkeypatch)
        if case == "diverge":
            assert np.isnan(ref.states).any()
        for trace in (got, default):
            assert trace.states.dtype == ref.states.dtype == xb.float_dtype
            assert trace.states.tobytes() == ref.states.tobytes()
            assert (trace.pre_activations.tobytes()
                    == ref.pre_activations.tobytes())
            np.testing.assert_array_equal(trace.diverged, ref.diverged)

    @pytest.mark.parametrize("case", ["subnormal", "diverge"])
    def test_rows_handed_back_would_differ(self, case):
        """The hand-back is needed: without it these rows change bytes."""
        xb = NumpyBackend()
        j = xb.masked_drive(InputMask.binary(10, 1, seed=0),
                            _chain_input(case, 40))
        a_vec, b_vec = (np.array(v) for v in _CHAIN_PARAMS[case][1])
        states = np.zeros((3, 40, 101, 10))
        with xb.errstate():
            redo = numpy_backend._identity_recurrence(j, a_vec, b_vec, states)
            ref = np.stack([xb._lfilter_chain(j, a, b)
                            for a, b in zip(a_vec, b_vec)])
        differ = np.array([
            got.tobytes() != want.tobytes()
            for got, want in zip(states[..., 1:, :].reshape(120, -1),
                                 ref.reshape(120, -1))
        ])
        assert differ.any()
        assert not (differ & ~redo).any()

    def test_probe_tells_fused_from_separate_rounding(self):
        """The exactness probe would catch an lfilter with fused mul-adds."""
        j, a_val, b_val = numpy_backend._exactness_probe()
        states = np.zeros((j.shape[0], j.shape[1] + 1, j.shape[2]))
        numpy_backend._identity_recurrence(j, a_val, b_val, states)
        separate = _df2t_chain(j, a_val, b_val, fused=False)
        fused = _df2t_chain(j, a_val, b_val, fused=True)
        assert separate.tobytes() == states[:, 1:, :].tobytes()
        assert fused.tobytes() != separate.tobytes()

    def test_inexact_lfilter_keeps_lfilter(self, monkeypatch,
                                           fresh_exactness_check):
        """Where the probe disagrees, even a wide sweep runs ``lfilter``."""
        lfilter_calls = []

        def other_lfilter(b, a, x, axis=-1):
            # stands in for an lfilter whose loop rounds differently
            lfilter_calls.append(1)
            return np.nextafter(lfilter(b, a, x, axis=axis), np.inf)

        monkeypatch.setattr(numpy_backend, "lfilter", other_lfilter)
        assert not numpy_backend._recurrence_is_exact()
        monkeypatch.setattr(numpy_backend, "_identity_recurrence",
                            lambda *args: pytest.fail("recurrence ran"))
        n = -(-numpy_backend._RECURRENCE_MIN_WIDTH // 30) + 1
        dfr = ModularDFR(InputMask.binary(30, 1, seed=0))
        del lfilter_calls[:]
        dfr.run(_chain_input("normal", n), [0.3, 0.05], [0.2, 0.4],
                backend=NumpyBackend())
        assert len(lfilter_calls) == 2


class TestStreaming:
    def test_streaming_window_matches_trace_tail(self):
        rng = np.random.default_rng(3)
        mask = InputMask.uniform(6, 2, seed=rng)
        dfr = ModularDFR(mask, nonlinearity="tanh")
        u = rng.normal(size=(5, 20, 2))
        trace = dfr.run(u, 0.4, 0.3)
        for window in (1, 3, 20):
            stream = dfr.run_streaming(u, 0.4, 0.3, window=window)
            np.testing.assert_allclose(
                stream.window_states,
                trace.states[:, -(window + 1):],
                rtol=1e-12,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                stream.window_pre_activations,
                trace.pre_activations[:, -window:],
                rtol=1e-12,
                atol=1e-12,
            )

    def test_streaming_dprr_sums_match_batch_dprr(self):
        rng = np.random.default_rng(4)
        mask = InputMask.uniform(5, 3, seed=rng)
        dfr = ModularDFR(mask)
        u = rng.normal(size=(3, 15, 3))
        trace = dfr.run(u, 0.2, 0.35)
        stream = dfr.run_streaming(u, 0.2, 0.35, window=2)
        dprr = DPRR(normalize=None)
        np.testing.assert_allclose(
            dprr.features(stream), dprr.features(trace), rtol=1e-10, atol=1e-12
        )

    def test_final_window_slicing_equals_streaming(self):
        rng = np.random.default_rng(5)
        mask = InputMask.uniform(4, 2, seed=rng)
        dfr = ModularDFR(mask)
        u = rng.normal(size=(2, 10, 2))
        trace = dfr.run(u, 0.3, 0.2)
        stream = dfr.run_streaming(u, 0.3, 0.2, window=4)
        sliced = trace.final_window(4)
        np.testing.assert_allclose(sliced.window_states, stream.window_states)
        np.testing.assert_allclose(
            sliced.window_pre_activations, stream.window_pre_activations
        )
        assert sliced.n_steps == stream.n_steps == 10

    def test_window_longer_than_series_is_clamped(self):
        mask = InputMask.binary(3, 1, seed=0)
        dfr = ModularDFR(mask)
        u = np.random.default_rng(0).normal(size=(1, 5, 1))
        stream = dfr.run_streaming(u, 0.2, 0.2, window=99)
        assert stream.window == 5

    def test_invalid_window_rejected(self):
        mask = InputMask.binary(3, 1, seed=0)
        dfr = ModularDFR(mask)
        with pytest.raises(ValueError):
            dfr.run_streaming(np.ones((1, 5, 1)), 0.2, 0.2, window=0)


class TestChunkedResume:
    """Feeding a series chunk by chunk via ``resume=`` is bit-identical to
    one ``run_streaming`` call over the concatenated series — the contract
    the serving layer's per-stream sessions (``repro.serve``) rely on."""

    @staticmethod
    def _chunked(dfr, u, A, B, window, chunk_sizes):
        result = None
        start = 0
        while start < u.shape[1]:
            stop = min(start + chunk_sizes[0], u.shape[1])
            result = dfr.run_streaming(
                u[:, start:stop], A, B, window=window, resume=result
            )
            start = stop
        return result

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("nonlinearity", ["identity", "tanh"])
    def test_chunked_equals_one_shot_scalar(self, chunk, nonlinearity):
        rng = np.random.default_rng(11)
        mask = InputMask.uniform(6, 2, seed=rng)
        dfr = ModularDFR(mask, nonlinearity=nonlinearity)
        u = rng.normal(size=(4, 70, 2))
        full = dfr.run_streaming(u, 0.4, 0.5, window=1)
        chunked = self._chunked(dfr, u, 0.4, 0.5, 1, [chunk])
        assert np.array_equal(chunked.window_states, full.window_states)
        assert np.array_equal(
            chunked.window_pre_activations, full.window_pre_activations
        )
        assert np.array_equal(chunked.dprr_sums[0], full.dprr_sums[0])
        assert np.array_equal(chunked.dprr_sums[1], full.dprr_sums[1])
        assert np.array_equal(chunked.diverged, full.diverged)
        assert chunked.n_steps == full.n_steps == 70

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_equals_one_shot_stacked(self, chunk):
        # K > 1 candidates on the leading axis: every row of every carried
        # array must survive the chunk boundary bit for bit
        rng = np.random.default_rng(12)
        mask = InputMask.uniform(5, 3, seed=rng)
        dfr = ModularDFR(mask, nonlinearity="tanh")
        u = rng.normal(size=(3, 70, 3))
        A = np.array([0.2, 0.5, 0.8])
        B = np.array([0.6, 0.4, 0.1])
        full = dfr.run_streaming(u, A, B, window=1)
        chunked = self._chunked(dfr, u, A, B, 1, [chunk])
        assert chunked.stacked and chunked.window_states.shape[0] == 3
        assert np.array_equal(chunked.window_states, full.window_states)
        assert np.array_equal(chunked.dprr_sums[0], full.dprr_sums[0])
        assert np.array_equal(chunked.dprr_sums[1], full.dprr_sums[1])
        assert np.array_equal(chunked.diverged, full.diverged)

    def test_chunked_dprr_features_match_full_run(self):
        # against the one-shot full-trace pipeline the drives differ by a
        # GEMM kernel choice, so the contract is tight tolerance, not bits
        rng = np.random.default_rng(13)
        mask = InputMask.uniform(6, 2, seed=rng)
        dfr = ModularDFR(mask)
        u = rng.normal(size=(4, 40, 2))
        trace = dfr.run(u, 0.3, 0.4)
        chunked = self._chunked(dfr, u, 0.3, 0.4, 1, [7])
        dprr = DPRR(normalize=None)
        np.testing.assert_allclose(
            dprr.features(chunked), dprr.features(trace),
            rtol=1e-12, atol=1e-13,
        )

    def test_window_wider_than_one_survives_chunking(self):
        rng = np.random.default_rng(14)
        mask = InputMask.uniform(4, 2, seed=rng)
        dfr = ModularDFR(mask, nonlinearity="tanh")
        u = rng.normal(size=(2, 24, 2))
        full = dfr.run_streaming(u, 0.4, 0.3, window=4)
        chunked = self._chunked(dfr, u, 0.4, 0.3, 4, [8])
        assert np.array_equal(chunked.window_states, full.window_states)
        assert np.array_equal(
            chunked.window_pre_activations, full.window_pre_activations
        )

    def test_resume_from_sliced_trace_rejected(self):
        mask = InputMask.binary(3, 1, seed=0)
        dfr = ModularDFR(mask)
        u = np.random.default_rng(0).normal(size=(1, 10, 1))
        sliced = dfr.run(u, 0.2, 0.2).final_window(2)
        assert sliced.dprr_sums is None
        with pytest.raises(ValueError, match="sliced"):
            dfr.run_streaming(u, 0.2, 0.2, window=2, resume=sliced)

    def test_resume_window_mismatch_rejected(self):
        mask = InputMask.binary(3, 1, seed=0)
        dfr = ModularDFR(mask)
        u = np.random.default_rng(0).normal(size=(1, 10, 1))
        first = dfr.run_streaming(u, 0.2, 0.2, window=3)
        with pytest.raises(ValueError, match="window"):
            dfr.run_streaming(u, 0.2, 0.2, window=5, resume=first)

    def test_resume_wrong_type_rejected(self):
        mask = InputMask.binary(3, 1, seed=0)
        dfr = ModularDFR(mask)
        u = np.random.default_rng(0).normal(size=(1, 10, 1))
        with pytest.raises(TypeError):
            dfr.run_streaming(u, 0.2, 0.2, resume=np.zeros((1, 2, 3)))

    def test_resume_layout_mismatch_rejected(self):
        # carry from a 2-sample batch cannot resume a 3-sample batch
        mask = InputMask.binary(3, 1, seed=0)
        dfr = ModularDFR(mask)
        rng = np.random.default_rng(0)
        first = dfr.run_streaming(rng.normal(size=(2, 8, 1)), 0.2, 0.2)
        with pytest.raises(ValueError):
            dfr.run_streaming(
                rng.normal(size=(3, 8, 1)), 0.2, 0.2, resume=first
            )

    def test_divergence_flag_carries_across_chunks(self):
        # a sample that diverges in chunk 1 must stay flagged after a
        # resumed chunk even if the later chunk alone would look finite
        mask = InputMask.binary(4, 1, seed=1)
        dfr = ModularDFR(mask)
        rng = np.random.default_rng(2)
        u = np.concatenate(
            [rng.normal(size=(1, 8, 1)) * 1e300, rng.normal(size=(1, 8, 1))],
            axis=1,
        )
        first = dfr.run_streaming(u[:, :8], 0.99, 0.99)
        assert first.diverged.all()
        second = dfr.run_streaming(u[:, 8:], 0.99, 0.99, resume=first)
        assert second.diverged.all()

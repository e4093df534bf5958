"""Tests for the DPRR and baseline representations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import NumpyBackend
from repro.representation.baselines import LastState, MeanState, SubsampledStates
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR
from repro.reservoir.reference import naive_dprr


def _random_trace(rng, n=3, t_len=9, nx=5):
    states = rng.normal(size=(n, t_len + 1, nx))
    states[:, 0] = 0.0  # convention: zero initial state
    return states


def test_vectorized_matches_naive_reference(rng):
    states = _random_trace(rng)
    np.testing.assert_allclose(
        DPRR(normalize=None).features(states), naive_dprr(states), rtol=1e-12
    )


def test_normalized_matches_naive_reference(rng):
    states = _random_trace(rng, t_len=7)
    np.testing.assert_allclose(
        DPRR(normalize="length").features(states),
        naive_dprr(states, normalize="length"),
        rtol=1e-12,
    )


@settings(max_examples=20, deadline=None)
@given(
    t_len=st.integers(1, 8),
    nx=st.integers(1, 6),
    seed=st.integers(0, 9999),
)
def test_vectorized_matches_naive_property(t_len, nx, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(2, t_len + 1, nx))
    states[:, 0] = 0.0
    np.testing.assert_allclose(
        DPRR(normalize=None).features(states), naive_dprr(states), rtol=1e-10
    )


def test_candidate_stacked_matches_naive_reference(rng):
    stacked = np.stack([_random_trace(rng, n=3, t_len=11, nx=4)
                        for _ in range(2)])        # (K, N, T+1, N_x)
    feats = DPRR(normalize=None).features(stacked)
    assert feats.shape == (2, 3, 20)
    for k in range(2):
        np.testing.assert_allclose(feats[k], naive_dprr(stacked[k]), rtol=1e-12)


def test_float32_trace_stays_float32(rng):
    mask = InputMask.binary(5, 2, seed=0)
    trace = ModularDFR(mask).run(rng.normal(size=(3, 30, 2)), 0.3, 0.2,
                                 backend=NumpyBackend(dtype="float32"))
    assert trace.states.dtype == np.float32
    feats = DPRR().features(trace)
    assert feats.dtype == np.float32
    want = naive_dprr(trace.states)  # float64 sums of the same float32 states
    np.testing.assert_allclose(feats, want, rtol=1e-5,
                               atol=1e-5 * np.abs(want).max())


def test_sample_bits_independent_of_batch_and_stack(rng):
    """One GEMM per sample: a row's bits never depend on its neighbours."""
    stacked = np.stack([_random_trace(rng, n=6, t_len=40, nx=7)
                        for _ in range(3)])
    feats = DPRR().features(stacked)
    for k in range(3):
        np.testing.assert_array_equal(DPRR().features(stacked[k]), feats[k])
        np.testing.assert_array_equal(
            DPRR().features(stacked[k, 2:5]), feats[k, 2:5])
        for i in range(6):
            np.testing.assert_array_equal(
                DPRR().features(stacked[k, i:i + 1])[0], feats[k, i])


class TestReferenceContraction:
    """``reference_features`` is the per-sample SGD's bit-pinned path."""

    #: ``DPRR().features(trace)[0]`` of ``_trace()`` before the batched
    #: contraction became a GEMM, when every path ran the seed's einsum
    SEED_FEATURES = [
        '0x1.0412a79ee2086p+0', '0x1.0759584775726p-1', '-0x1.bcb52a77e2463p-1',
        '-0x1.36a920fe01d47p+0', '0x1.0a0f51ed7d46dp+1', '0x1.49b27f54b8492p+2',
        '-0x1.4aee2960504e8p+0', '-0x1.5ef9aff0af345p+1', '-0x1.92dabca5730e9p+1',
        '0x1.15479d8b9c5b0p-1', '0x1.dba0d90995137p+1', '0x1.20c27637147d3p+2',
        '-0x1.3dc16c0204771p+2', '-0x1.2c1fd3f8aff66p+0', '0x1.5e509c5078848p+2',
        '0x1.c64e98c824668p+2', '0x1.59844dec903c6p+1', '-0x1.ca11e4db100cap+1',
        '-0x1.38cc9f509dacdp+2', '-0x1.4a21daf882a35p+2',
    ]

    @staticmethod
    def _trace():
        # one sample, as the per-sample trainer runs it
        rng = np.random.default_rng(0)
        dfr = ModularDFR(InputMask.binary(4, 2, seed=0))
        return dfr.run(rng.normal(size=(1, 60, 2)), 0.3, 0.2)

    def test_reference_keeps_the_seed_bits(self):
        feats = DPRR().reference_features(self._trace())[0]
        assert [float(v).hex() for v in feats] == self.SEED_FEATURES

    def test_gemm_agrees_to_rounding(self, rng):
        trace = self._trace()
        np.testing.assert_allclose(DPRR().features(trace),
                                   DPRR().reference_features(trace),
                                   rtol=1e-12)
        stacked = np.stack([_random_trace(rng) for _ in range(2)])
        dprr = DPRR(normalize="length")
        np.testing.assert_allclose(dprr.features(stacked),
                                   dprr.reference_features(stacked),
                                   rtol=1e-12)


def test_feature_layout_matches_paper_indexing(rng):
    """Entry (i-1)N_x + j must be sum_k x(k)_i x(k-1)_j (paper Eq. 18)."""
    states = _random_trace(rng, n=1, t_len=5, nx=4)
    feats = DPRR(normalize=None).features(states)[0]
    nx = 4
    i, j = 2, 1  # zero-based node indices
    expected = sum(
        states[0, k, i] * states[0, k - 1, j] for k in range(1, 6)
    )
    assert feats[i * nx + j] == pytest.approx(expected)
    # Eq. 19 tail block
    expected_sum = states[0, 1:, i].sum()
    assert feats[nx * nx + i] == pytest.approx(expected_sum)


def test_n_features():
    assert DPRR.n_features(30) == 930  # the paper's N_x = 30 case
    assert DPRR.n_features(1) == 2


def test_scale():
    assert DPRR(normalize=None).scale(100) == 1.0
    assert DPRR(normalize="length").scale(100) == pytest.approx(0.01)


def test_accepts_trace_object(rng):
    mask = InputMask.uniform(4, 2, seed=rng)
    dfr = ModularDFR(mask)
    trace = dfr.run(rng.normal(size=(2, 8, 2)), 0.3, 0.2)
    feats = DPRR().features(trace)
    assert feats.shape == (2, 20)
    np.testing.assert_allclose(feats, DPRR().features(trace.states))


def test_sliced_streaming_result_without_sums_is_rejected(rng):
    mask = InputMask.uniform(4, 2, seed=rng)
    dfr = ModularDFR(mask)
    trace = dfr.run(rng.normal(size=(2, 8, 2)), 0.3, 0.2)
    sliced = trace.final_window(2)
    with pytest.raises(ValueError, match="no DPRR accumulators"):
        DPRR().features(sliced)


def test_invalid_normalize_rejected():
    with pytest.raises(ValueError):
        DPRR(normalize="bogus")


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        DPRR().features(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        DPRR().features(np.zeros((2, 1, 3)))  # zero time steps


def test_zero_states_give_zero_features():
    feats = DPRR(normalize=None).features(np.zeros((2, 6, 3)))
    np.testing.assert_array_equal(feats, 0.0)


@pytest.mark.parametrize("normalize", [None, "length"])
def test_integer_states_give_float_features(normalize):
    states = np.arange(2 * 6 * 3).reshape(2, 6, 3)
    dprr = DPRR(normalize=normalize)
    want = dprr.features(states.astype(np.float64))
    for feats in (dprr.features(states), dprr.reference_features(states)):
        assert feats.dtype == np.float64
        np.testing.assert_array_equal(feats, want)


class TestBaselines:
    def test_last_state(self, rng):
        states = _random_trace(rng)
        np.testing.assert_array_equal(
            LastState().features(states), states[:, -1, :]
        )
        assert LastState.n_features(7) == 7

    def test_mean_state_excludes_initial_row(self, rng):
        states = _random_trace(rng)
        np.testing.assert_allclose(
            MeanState().features(states), states[:, 1:, :].mean(axis=1)
        )

    def test_subsampled_includes_final_state(self, rng):
        states = _random_trace(rng, t_len=20, nx=3)
        feats = SubsampledStates(n_points=4).features(states)
        assert feats.shape == (3, 12)
        np.testing.assert_array_equal(feats[:, -3:], states[:, -1, :])

    def test_subsampled_pads_short_series(self, rng):
        states = _random_trace(rng, t_len=2, nx=3)
        feats = SubsampledStates(n_points=5).features(states)
        assert feats.shape == (3, 15)
        # padding repeats the final state
        np.testing.assert_array_equal(feats[:, -3:], states[:, -1, :])

    def test_subsampled_rejects_bad_count(self):
        with pytest.raises(ValueError):
            SubsampledStates(n_points=0)

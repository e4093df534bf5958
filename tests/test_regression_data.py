"""Tests for the regression benchmarks (NARMA-10, Mackey-Glass series)."""

import numpy as np
import pytest

from repro.data.regression import mackey_glass_series, narma, narma10
from repro.readout.metrics import nrmse
from repro.readout.ridge import RidgeRegressor, fit_ridge_regressor
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR


class TestNarma10:
    def test_shapes_and_finiteness(self):
        u, y = narma10(500, seed=0)
        assert u.shape == y.shape == (500,)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(y))

    def test_input_range(self):
        u, _ = narma10(1000, seed=0)
        assert u.min() >= 0.0 and u.max() <= 0.5

    def test_reproducible(self):
        u1, y1 = narma10(100, seed=3)
        u2, y2 = narma10(100, seed=3)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(y1, y2)

    def test_target_depends_on_input_history(self):
        """NARMA-10 has order-10 memory: same final input, different history
        -> different target."""
        u1, y1 = narma10(50, seed=1)
        u2, y2 = narma10(50, seed=2)
        assert not np.allclose(y1, y2)

    def test_validation(self):
        with pytest.raises(ValueError):
            narma10(0)
        with pytest.raises(ValueError):
            narma10(100, washout=5)

    def test_reservoir_beats_trivial_baseline(self):
        """A DFR with the standard quadratic-augmented readout must clearly
        beat predicting the mean (NRMSE << 1)."""
        train_u, train_y = narma10(1500, seed=0)
        test_u, test_y = narma10(800, seed=1)
        dfr = ModularDFR(InputMask.binary(50, 1, seed=0))

        def features(u):
            states = dfr.run(u[np.newaxis, :, np.newaxis], 0.45, 0.5).states[0, 1:]
            return np.concatenate([states, states**2, u[:, np.newaxis]], axis=1)

        model = fit_ridge_regressor(features(train_u), train_y, beta=1e-9)
        assert nrmse(test_y, model.predict(features(test_u))) < 0.7


class TestNarmaGeneral:
    """The parametric NARMA-N family behind the registered generator."""

    def test_narma10_is_order_10(self):
        """``narma10`` must stay bit-identical to its historical output,
        i.e. exactly ``narma(order=10, washout=50)``."""
        u_named, y_named = narma10(300, seed=7)
        u_gen, y_gen = narma(300, order=10, seed=7, washout=50)
        np.testing.assert_array_equal(u_named, u_gen)
        np.testing.assert_array_equal(y_named, y_gen)

    @pytest.mark.parametrize("order", [2, 5, 10, 20])
    def test_orders_produce_finite_series(self, order):
        u, y = narma(400, order=order, seed=0)
        assert u.shape == y.shape == (400,)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(y))

    @pytest.mark.parametrize("order", [2, 5, 10, 15, 20, 30])
    def test_orders_produce_bounded_series(self, order):
        """Orders above 10 saturate instead of overflowing to ~1e308."""
        _, y = narma(400, order=order, seed=0)
        assert 0.0 <= y.min() and y.max() < 2.0

    @pytest.mark.parametrize("seed", [262, 513, 1150, 2442, 6853])
    def test_order_10_saturates_instead_of_running_away(self, seed):
        """Seeds whose unsaturated NARMA-10 overflows within 200 steps (or,
        for 2442, reaches ~7e63) stay finite and inside [0, 1]."""
        _, y = narma(200, order=10, seed=seed)
        assert np.all(np.isfinite(y))
        assert 0.0 <= y.min() and y.max() <= 1.0

    def test_orders_differ(self):
        _, y5 = narma(200, order=5, seed=0)
        _, y15 = narma(200, order=15, seed=0)
        assert not np.allclose(y5, y15)

    def test_default_washout_scales_with_order(self):
        # order 30 needs a longer transient than the classic 50 steps
        u, y = narma(100, order=30, seed=0)
        assert u.shape == (100,)

    def test_validation(self):
        with pytest.raises(ValueError):
            narma(0)
        with pytest.raises(ValueError):
            narma(100, order=0)
        with pytest.raises(ValueError, match="washout must cover"):
            narma(100, order=20, washout=10)


class TestMackeyGlassSeries:
    def test_shape_and_range(self):
        x = mackey_glass_series(800, seed=0)
        assert x.shape == (800,)
        assert np.all(np.isfinite(x))
        # MG with these parameters stays in a bounded band around ~1
        assert 0.1 < x.min() and x.max() < 2.0

    def test_chaotic_regime_is_aperiodic(self):
        x = mackey_glass_series(1000, tau=17.0, seed=0)
        # autocorrelation at large lag decays well below 1
        x0 = x - x.mean()
        ac = np.correlate(x0, x0, mode="full")[len(x0) - 1:]
        ac /= ac[0]
        assert np.abs(ac[400]) < 0.9

    def test_variance_nontrivial(self):
        x = mackey_glass_series(1000, seed=0)
        assert x.std() > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            mackey_glass_series(0)
        with pytest.raises(ValueError):
            mackey_glass_series(100, tau=-1.0)


class TestRidgeRegressor:
    def test_recovers_linear_map(self, rng):
        x = rng.normal(size=(200, 6))
        w = rng.normal(size=(6, 2))
        y = x @ w + 3.0
        model = fit_ridge_regressor(x, y, beta=1e-10)
        pred = model.predict(x)
        np.testing.assert_allclose(pred, y, atol=1e-6)

    def test_1d_targets_squeeze(self, rng):
        x = rng.normal(size=(50, 3))
        y = x @ rng.normal(size=3)
        model = fit_ridge_regressor(x, y, beta=1e-8)
        assert model.predict(x).shape == (50,)

    def test_regularization_shrinks(self, rng):
        x = rng.normal(size=(60, 4))
        y = x @ rng.normal(size=(4, 1))
        light = fit_ridge_regressor(x, y, beta=1e-8)
        heavy = fit_ridge_regressor(x, y, beta=1e3)
        assert np.linalg.norm(heavy.coef) < np.linalg.norm(light.coef)

    def test_validation(self, rng):
        x = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            fit_ridge_regressor(x, np.zeros(9), beta=1e-6)
        with pytest.raises(ValueError):
            fit_ridge_regressor(x, np.zeros(10), beta=0.0)
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit_ridge_regressor(x, np.zeros(10), beta=1e-6)

"""Tests for the ridge readout and beta model selection."""

import numpy as np
import pytest

from repro.readout.ridge import (
    PAPER_BETAS,
    fit_ridge,
    fit_ridge_sweep,
    select_beta,
)
from repro.readout.softmax import one_hot


def _separable_problem(rng, n=60, n_features=8, n_classes=3, scale=3.0):
    """Gaussian blobs: linearly separable when scale is large."""
    y = rng.integers(0, n_classes, size=n)
    centers = rng.normal(size=(n_classes, n_features)) * scale
    x = centers[y] + rng.normal(size=(n, n_features))
    return x, y


def test_fit_ridge_learns_separable_blobs(rng):
    x, y = _separable_problem(rng)
    model = fit_ridge(x, y, beta=1e-4)
    assert model.accuracy(x, y) >= 0.95


def test_predictions_generalize(rng):
    x, y = _separable_problem(rng, n=200)
    model = fit_ridge(x[:100], y[:100], beta=1e-2)
    assert model.accuracy(x[100:], y[100:]) >= 0.9


def test_small_beta_approaches_least_squares(rng):
    """As beta -> 0 on a well-conditioned problem, ridge -> OLS."""
    x = rng.normal(size=(100, 5))
    w_true = rng.normal(size=(5, 2))
    scores = x @ w_true
    y = scores.argmax(axis=1)
    m_small = fit_ridge(x, y, beta=1e-10)
    m_tiny = fit_ridge(x, y, beta=1e-12)
    np.testing.assert_allclose(m_small.coef, m_tiny.coef, rtol=1e-3, atol=1e-6)


def test_heavier_beta_shrinks_coefficients(rng):
    x, y = _separable_problem(rng)
    sweep = fit_ridge_sweep(x, y, [1e-6, 1e2])
    assert np.linalg.norm(sweep[1e2].coef) < np.linalg.norm(sweep[1e-6].coef)


def test_sweep_matches_individual_fits(rng):
    x, y = _separable_problem(rng)
    sweep = fit_ridge_sweep(x, y, PAPER_BETAS)
    for beta in PAPER_BETAS:
        single = fit_ridge(x, y, beta)
        np.testing.assert_allclose(sweep[beta].coef, single.coef, rtol=1e-10)


def test_rank_deficient_features_are_handled(rng):
    """More features than samples (the DPRR regime: N_r=930 >> N)."""
    x = rng.normal(size=(20, 50))
    y = rng.integers(0, 2, size=20)
    model = fit_ridge(x, y, beta=1e-2)
    assert np.all(np.isfinite(model.coef))
    assert model.accuracy(x, y) >= 0.5


def test_dual_solve_matches_primal_when_well_conditioned(rng):
    """n < p factors the n x n Gram; it agrees with the p x p primal.

    The two orientations are the same coefficients in exact arithmetic,
    not the same bits: the agreement is pinned at a stated tolerance, on a
    problem where the primal itself is well conditioned (beta n well above
    rounding of X^T X).
    """
    n, p = 40, 120
    x = rng.normal(size=(n, p)) * 3.0 + 1.0
    y = rng.integers(0, 3, size=n)
    sweep = fit_ridge_sweep(x, y, PAPER_BETAS)
    x_c = x - x.mean(axis=0)
    targets = one_hot(y, 3)
    y_c = targets - targets.mean(axis=0)
    for beta in (1e-2, 1.0):
        primal = np.linalg.solve(x_c.T @ x_c + beta * n * np.eye(p),
                                 x_c.T @ y_c)
        np.testing.assert_allclose(sweep[beta].coef, primal, rtol=1e-10,
                                   atol=1e-10 * np.abs(primal).max())


def test_constant_feature_does_not_blow_up(rng):
    x, y = _separable_problem(rng)
    x[:, 0] = 5.0  # zero variance
    model = fit_ridge(x, y, beta=1e-4)
    assert np.all(np.isfinite(model.coef))


def test_scores_shape_and_intercept(rng):
    x, y = _separable_problem(rng, n_classes=4)
    model = fit_ridge(x, y, beta=1e-2)
    assert model.scores(x).shape == (60, 4)
    # one-hot regression scores should average to the class priors
    np.testing.assert_allclose(
        model.scores(x).mean(axis=0),
        np.bincount(y, minlength=4) / len(y),
        atol=0.05,
    )


def test_nonfinite_features_rejected(rng):
    x, y = _separable_problem(rng)
    x[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fit_ridge(x, y, beta=1e-2)


def test_nonpositive_beta_rejected(rng):
    x, y = _separable_problem(rng)
    with pytest.raises(ValueError):
        fit_ridge(x, y, beta=0.0)
    with pytest.raises(ValueError):
        fit_ridge(x, y, beta=-1.0)


class TestSelectBeta:
    def test_selects_regularized_model_when_overfitting(self, rng):
        # high-dimensional noise + weak signal: tiny beta overfits badly
        n, n_features = 40, 200
        y = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, n_features))
        x[:, 0] += 0.5 * (2 * y - 1)
        sel = select_beta(x, y, betas=PAPER_BETAS, seed=0)
        assert sel.best_beta >= 1e-4

    def test_selection_returns_all_candidates(self, rng):
        x, y = _separable_problem(rng)
        sel = select_beta(x, y, betas=PAPER_BETAS, seed=0)
        assert set(sel.val_losses) == set(PAPER_BETAS)
        assert set(sel.val_accuracies) == set(PAPER_BETAS)
        assert sel.best_val_loss == sel.val_losses[sel.best_beta]

    def test_final_model_is_refit_on_all_data(self, rng):
        x, y = _separable_problem(rng)
        sel = select_beta(x, y, betas=[1e-2], seed=0)
        direct = fit_ridge(x, y, beta=1e-2)
        np.testing.assert_allclose(sel.best_model.coef, direct.coef, rtol=1e-10)

    def test_tiny_dataset_fallback(self, rng):
        # every class has a single sample -> empty holdout -> fallback
        x = rng.normal(size=(3, 5))
        y = np.array([0, 1, 2])
        sel = select_beta(x, y, betas=PAPER_BETAS, seed=0)
        assert sel.best_beta in PAPER_BETAS

    def test_deterministic_under_seed(self, rng):
        x, y = _separable_problem(rng)
        s1 = select_beta(x, y, seed=7)
        s2 = select_beta(x, y, seed=7)
        assert s1.best_beta == s2.best_beta
        assert s1.val_losses == s2.val_losses


class TestSmallSampleConditioning:
    """n << p at WALK's scale: 22 x 930 features, lambda_max(X^T X) ~ 1e11.

    There the p x p primal Gram has 909 zero eigenvalues, lifted only to
    beta n = 2.2e-5 at beta = 1e-6 — below the rounding of its ~1e11 top,
    so a primal Cholesky follows rounding noise: on this problem, moving
    every feature by one ulp flipped the selected beta from 1e-2 to 1e-4
    and moved the beta = 1e-6 validation loss from 1.353 to 1.403.  The
    n x n dual Gram keeps only the sample-space spectrum, so the same move
    leaves the selection alone.
    """

    @staticmethod
    def _walk_like(seed=1, n=28, p=930, n_classes=6, scale=9e3):
        rng = np.random.default_rng(seed)
        y = np.arange(n) % n_classes
        centers = rng.normal(size=(n_classes, p))
        return (rng.normal(size=(n, p)) + 0.5 * centers[y]) * scale, y

    def test_one_ulp_keeps_beta_and_validation_scores(self):
        x, y = self._walk_like()
        x_c = x - x.mean(axis=0)
        assert 5e10 < np.linalg.eigvalsh(x_c @ x_c.T)[-1] < 5e11
        base = select_beta(x, y, seed=0)
        moved = select_beta(np.nextafter(x, np.inf), y, seed=0)
        assert moved.best_beta == base.best_beta
        for beta in PAPER_BETAS:
            np.testing.assert_allclose(moved.val_losses[beta],
                                       base.val_losses[beta], rtol=1e-9)
            np.testing.assert_allclose(moved.val_accuracies[beta],
                                       base.val_accuracies[beta], rtol=1e-9)

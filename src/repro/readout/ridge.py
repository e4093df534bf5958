"""Ridge-regression readout with regularization selection (paper Sec. 4).

After the backpropagation phase fixes the reservoir parameters, the paper
retrains the output layer by ridge regression on one-hot targets, trying
``beta in {1e-6, 1e-4, 1e-2, 1}`` and keeping "the one with the smallest
loss L".  The split used for that loss is not specified; selecting by
*training* loss degenerates to the smallest ``beta``, so this implementation
scores each candidate on a seeded stratified holdout of the training set
(documented substitution — see DESIGN.md).  Grid search uses the identical
criterion so the comparison stays fair.

Conventions
-----------
* Features are *centered* (and targets centered) so the intercept never
  needs regularizing, but **not variance-scaled** by default: with the
  identity reservoir shape, feature variance scales as ``A^2``, and it is
  precisely the interplay between that scale and a fixed ``beta`` that
  makes the paper's accuracy landscape depend on ``A`` (Fig. 6).  Full
  standardization (``standardize=True``) is available but would flatten
  the ``A`` axis of the landscape.
* The normal equations use ``(X^T X + beta * n * I)`` — scaling the
  regularizer by the sample count makes ``beta`` comparable across datasets
  of different sizes.
* For model selection, scores are converted to probabilities with a softmax
  and scored by cross-entropy, mirroring the loss the backpropagation phase
  optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from repro.data.preprocessing import stratified_split
from repro.readout.softmax import cross_entropy, one_hot, softmax
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_document, ensure_1d_labels

__all__ = [
    "RidgeModel",
    "fit_ridge",
    "fit_ridge_sweep",
    "RidgeSelection",
    "select_beta",
    "RidgeRegressor",
    "fit_ridge_regressor",
]

#: the paper's candidate regularization values
PAPER_BETAS = (1e-6, 1e-4, 1e-2, 1.0)


@dataclass
class RidgeModel:
    """A fitted multi-output ridge readout."""

    beta: float
    coef: np.ndarray        # (N_r, N_y)
    intercept: np.ndarray   # (N_y,)
    feature_mean: np.ndarray
    feature_std: np.ndarray
    n_classes: int

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Linear scores ``(N, N_y)`` (one-hot regression outputs)."""
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        z = (f - self.feature_mean) / self.feature_std
        return z @ self.coef + self.intercept

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.scores(features).argmax(axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax-calibrated probabilities of the linear scores."""
        return softmax(self.scores(features))

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean softmax cross-entropy on ``(features, labels)``."""
        labels = ensure_1d_labels(labels)
        probs = self.predict_proba(features)
        return float(cross_entropy(probs, one_hot(labels, self.n_classes)).mean())

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on ``(features, labels)``."""
        labels = ensure_1d_labels(labels)
        return float((self.predict(features) == labels).mean())

    def to_dict(self) -> dict:
        """A JSON-serializable dict of the fitted readout (exact round trip).

        Python's ``json`` serializes finite floats via ``repr`` and parses
        them back to the same IEEE-754 doubles, so :meth:`from_dict` of the
        serialized form scores bit-identically.
        """
        return {
            "beta": float(self.beta),
            "coef": np.asarray(self.coef, dtype=np.float64).tolist(),
            "intercept": np.asarray(self.intercept,
                                    dtype=np.float64).tolist(),
            "feature_mean": np.asarray(self.feature_mean,
                                       dtype=np.float64).tolist(),
            "feature_std": np.asarray(self.feature_std,
                                      dtype=np.float64).tolist(),
            "n_classes": int(self.n_classes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RidgeModel":
        """Rebuild a readout from :meth:`to_dict` output — strictly.

        Unknown or missing keys raise ``ValueError`` so a snapshot written
        by an incompatible release fails loudly instead of scoring wrong.
        """
        check_document(data, {"beta", "coef", "intercept", "feature_mean",
                              "feature_std", "n_classes"},
                       what="RidgeModel snapshot")
        return cls(
            beta=float(data["beta"]),
            coef=np.asarray(data["coef"], dtype=np.float64),
            intercept=np.asarray(data["intercept"], dtype=np.float64),
            feature_mean=np.asarray(data["feature_mean"], dtype=np.float64),
            feature_std=np.asarray(data["feature_std"], dtype=np.float64),
            n_classes=int(data["n_classes"]),
        )


def _center_or_standardize(
    features: np.ndarray, standardize: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = features.mean(axis=0)
    if standardize:
        std = features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
    else:
        std = np.ones(features.shape[1])
    return (features - mean) / std, mean, std


def fit_ridge(
    features: np.ndarray,
    labels: np.ndarray,
    beta: float,
    *,
    n_classes: Optional[int] = None,
    standardize: bool = False,
) -> RidgeModel:
    """Fit one ridge readout; see :func:`fit_ridge_sweep` for several betas."""
    return fit_ridge_sweep(
        features, labels, [beta], n_classes=n_classes, standardize=standardize
    )[beta]


def fit_ridge_sweep(
    features: np.ndarray,
    labels: np.ndarray,
    betas: Sequence[float],
    *,
    n_classes: Optional[int] = None,
    standardize: bool = False,
) -> Dict[float, RidgeModel]:
    """Fit ridge readouts for several ``beta`` values, sharing the Gram matrix.

    The Gram matrix ``X^T X`` and cross-moment ``X^T Y`` are computed once;
    each ``beta`` then costs only one symmetric solve — this mirrors how a
    careful grid-search implementation amortizes the per-point ridge cost.

    Parameters
    ----------
    features:
        ``(N, N_r)`` training representations.
    labels:
        ``(N,)`` integer labels.
    betas:
        Regularization values (must be positive).
    n_classes:
        Total class count; inferred as ``max(labels) + 1`` when omitted.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = ensure_1d_labels(labels, n_samples=features.shape[0])
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values (diverged reservoir?)")
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    n = features.shape[0]
    x, mean, std = _center_or_standardize(features, standardize)
    targets = one_hot(labels, n_classes)
    y_mean = targets.mean(axis=0)
    y_c = targets - y_mean

    gram = x.T @ x
    cross = x.T @ y_c
    eye = np.eye(gram.shape[0])
    models = {}
    for beta in betas:
        beta = float(beta)
        if beta <= 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
        lhs = gram + beta * n * eye
        try:
            cho = scipy.linalg.cho_factor(lhs, check_finite=False)
            coef = scipy.linalg.cho_solve(cho, cross, check_finite=False)
        except scipy.linalg.LinAlgError:
            coef = np.linalg.lstsq(lhs, cross, rcond=None)[0]
        models[beta] = RidgeModel(
            beta=beta,
            coef=coef,
            intercept=y_mean,
            feature_mean=mean,
            feature_std=std,
            n_classes=n_classes,
        )
    return models


@dataclass
class RidgeSelection:
    """Outcome of the ``beta`` model selection."""

    best_beta: float
    best_model: RidgeModel          # refitted on the full training set
    val_losses: Dict[float, float] = field(default_factory=dict)
    val_accuracies: Dict[float, float] = field(default_factory=dict)

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_beta]


def select_beta(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    betas: Sequence[float] = PAPER_BETAS,
    val_fraction: float = 0.2,
    n_classes: Optional[int] = None,
    standardize: bool = False,
    seed: SeedLike = None,
) -> RidgeSelection:
    """Select ``beta`` by holdout cross-entropy and refit on all data.

    A stratified ``val_fraction`` holdout of the training set scores each
    candidate ``beta`` by validation error, with mean softmax cross-entropy
    as the tiebreak and smaller ``beta`` last; the winning ``beta`` is then
    refitted on the full training set.  (The paper selects by "the smallest
    loss L" without specifying the split; cross-entropy on raw ridge outputs
    is ill-defined — they can be negative — so holdout error with a CE
    tiebreak is the faithful executable version.  See DESIGN.md.)

    When the holdout would be empty (tiny datasets where every class has one
    sample), selection falls back to training loss on the full set.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = ensure_1d_labels(labels, n_samples=features.shape[0])
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    rng = ensure_rng(seed)
    fit_idx, val_idx = stratified_split(labels, val_fraction, seed=rng)
    if val_idx.size == 0:
        fit_idx = np.arange(features.shape[0])
        val_idx = fit_idx  # degenerate fallback: score on the fit data

    sweep = fit_ridge_sweep(
        features[fit_idx], labels[fit_idx], betas, n_classes=n_classes,
        standardize=standardize,
    )
    val_losses = {}
    val_accs = {}
    for beta, model in sweep.items():
        val_losses[beta] = model.loss(features[val_idx], labels[val_idx])
        val_accs[beta] = model.accuracy(features[val_idx], labels[val_idx])
    best_beta = min(
        val_losses, key=lambda b: (-val_accs[b], val_losses[b], b)
    )
    final = fit_ridge_sweep(
        features, labels, [best_beta], n_classes=n_classes, standardize=standardize
    )
    return RidgeSelection(
        best_beta=best_beta,
        best_model=final[best_beta],
        val_losses=val_losses,
        val_accuracies=val_accs,
    )


@dataclass
class RidgeRegressor:
    """A fitted multi-output ridge *regressor* (continuous targets).

    The classification pipeline uses :class:`RidgeModel`; this lighter
    variant serves the time-series regression tasks of the classic DFR
    literature (NARMA-10, Mackey-Glass prediction; see
    ``examples/narma_prediction.py``).
    """

    beta: float
    coef: np.ndarray        # (N_f, N_out)
    intercept: np.ndarray   # (N_out,)
    feature_mean: np.ndarray

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted targets ``(N, N_out)`` (squeezed to 1-D for N_out=1)."""
        f = np.atleast_2d(np.asarray(features, dtype=np.float64))
        out = (f - self.feature_mean) @ self.coef + self.intercept
        return out[:, 0] if out.shape[1] == 1 else out


def fit_ridge_regressor(
    features: np.ndarray, targets: np.ndarray, beta: float
) -> RidgeRegressor:
    """Fit centered ridge regression of continuous ``targets`` on ``features``.

    Parameters
    ----------
    features:
        ``(N, N_f)`` design matrix.
    targets:
        ``(N,)`` or ``(N, N_out)`` continuous targets.
    beta:
        Regularization strength (scaled by ``N`` as in the classifier).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, np.newaxis]
    if targets.shape[0] != features.shape[0]:
        raise ValueError(
            f"{targets.shape[0]} targets for {features.shape[0]} samples"
        )
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    n = features.shape[0]
    mean = features.mean(axis=0)
    x = features - mean
    y_mean = targets.mean(axis=0)
    y_c = targets - y_mean
    lhs = x.T @ x + beta * n * np.eye(x.shape[1])
    try:
        cho = scipy.linalg.cho_factor(lhs, check_finite=False)
        coef = scipy.linalg.cho_solve(cho, x.T @ y_c, check_finite=False)
    except scipy.linalg.LinAlgError:
        coef = np.linalg.lstsq(lhs, x.T @ y_c, rcond=None)[0]
    return RidgeRegressor(beta=float(beta), coef=coef, intercept=y_mean,
                          feature_mean=mean)

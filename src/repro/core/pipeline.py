"""End-to-end DFR classification pipeline (paper Sec. 4 protocol).

:class:`DFRClassifier` glues the full stack together:

1. fit a per-channel standardizer on the training inputs;
2. draw the fixed random input mask;
3. optimize ``A``, ``B`` (and a softmax readout) by truncated
   backpropagation + SGD (:class:`~repro.core.trainer.BackpropTrainer`);
4. re-train the output layer by ridge regression, selecting the
   regularizer ``beta`` from the paper's four candidates by holdout
   cross-entropy;
5. predict with the ridge readout.

:class:`DFRFeatureExtractor` (mask + reservoir + DPRR over standardized
inputs) and :func:`evaluate_fixed_params` are shared with the grid-search
baseline, so backpropagation and grid search score candidate ``(A, B,
beta)`` triples through *identical* code paths — the fairness requirement of
the Table 1 comparison.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import default_backend, resolve_backend
from repro.core.population import (
    PopulationResult,
    descend_population,
    resolve_population,
)
from repro.core.trainer import BackpropTrainer, TrainerConfig, TrainingResult
from repro.data.preprocessing import ChannelStandardizer
from repro.readout.metrics import accuracy_score
from repro.readout.ridge import PAPER_BETAS, RidgeSelection, select_beta
from repro.representation.dprr import DPRR
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR
from repro.reservoir.nonlinearity import NONLINEARITIES, get_nonlinearity
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import as_batch, check_document, ensure_1d_labels

__all__ = [
    "DFRFeatureExtractor",
    "ExtractorConfig",
    "CONFIG_SCHEMA_VERSION",
    "DFRClassifier",
    "FixedParamsEvaluation",
    "evaluate_fixed_params",
    "evaluate_fixed_params_block",
]

#: the paper's reservoir size
PAPER_N_NODES = 30

#: schema version of :meth:`ExtractorConfig.to_dict`; bump on any field
#: change so persisted snapshots from other releases fail loudly in
#: :meth:`ExtractorConfig.from_dict` instead of mis-deserializing
CONFIG_SCHEMA_VERSION = 2


class DFRFeatureExtractor:
    """Standardizer + mask + modular DFR + DPRR, with ``(A, B)`` left free.

    Build once per dataset (the mask and standardizer are fixed), then call
    :meth:`features` for any candidate ``(A, B)`` — this is the inner loop
    of both grid search and classifier inference.
    """

    def __init__(
        self,
        n_nodes: int = PAPER_N_NODES,
        *,
        nonlinearity="identity",
        normalize: Optional[str] = None,
        mask_kind: str = "binary",
        mask_gamma: float = 1.0,
        feature_batch_size: Optional[int] = None,
        backend: Optional[str] = None,
        seed: SeedLike = None,
    ):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if mask_kind not in ("binary", "uniform"):
            raise ValueError(f"mask_kind must be 'binary' or 'uniform', got {mask_kind!r}")
        if feature_batch_size is not None and feature_batch_size < 1:
            raise ValueError(
                f"feature_batch_size must be None or >= 1, got {feature_batch_size}"
            )
        self.n_nodes = int(n_nodes)
        self.nonlinearity = get_nonlinearity(nonlinearity)
        self.dprr = DPRR(normalize=normalize)
        self.mask_kind = mask_kind
        self.mask_gamma = float(mask_gamma)
        #: when set, feature extraction runs the reservoir in chunks of this
        #: many samples so the peak trace storage is bounded at
        #: ``feature_batch_size * (T+1) * N_x`` regardless of the batch size
        self.feature_batch_size = feature_batch_size
        #: array backend spec for the reservoir/DPRR sweeps, its ``@dtype``
        #: suffix choosing the working precision; None defers to the
        #: REPRO_BACKEND environment variable (NumPy when unset).  The
        #: spec string (not the resolved object) is what snapshots carry.
        self.backend_spec = backend
        self.backend = (default_backend() if backend is None
                        else resolve_backend(backend))
        self._rng = ensure_rng(seed)
        self.standardizer = ChannelStandardizer()
        self.reservoir: Optional[ModularDFR] = None

    @property
    def n_features(self) -> int:
        """DPRR width ``N_x (N_x + 1)``."""
        return self.dprr.n_features(self.n_nodes)

    def fit(self, u_train: np.ndarray) -> "DFRFeatureExtractor":
        """Fit the standardizer and draw the mask from the training inputs."""
        u_train = as_batch(u_train)
        self.standardizer.fit(u_train)
        n_channels = u_train.shape[2]
        factory = InputMask.binary if self.mask_kind == "binary" else InputMask.uniform
        mask = factory(self.n_nodes, n_channels, gamma=self.mask_gamma, seed=self._rng)
        self.reservoir = ModularDFR(mask, nonlinearity=self.nonlinearity)
        return self

    def features(self, u: np.ndarray, A, B) -> tuple:
        """DPRR features for a batch under candidate parameters.

        Returns ``(features, diverged)`` where ``diverged`` is the per-sample
        flag from the reservoir run; rows flagged as diverged contain
        non-finite values and must not reach the ridge solver.

        Vector-valued ``A``/``B`` (length ``K``) sweep K candidates over
        the batch in one fused reservoir program — standardization and the
        mask drive are computed once for the whole block — returning
        ``(K, N, N_r)`` features and ``(K, N)`` divergence flags.  On the
        NumPy backend each candidate row is bit-identical to a scalar call
        with that candidate (pinned by tests).

        The extractor's ``feature_batch_size`` chunks the reservoir sweep
        over samples, bounding peak memory; the features are identical
        either way since samples are independent.

        The sweep runs on the extractor's array backend; the returned
        arrays are always NumPy (the ridge solver downstream is NumPy), in
        the backend's working precision, so the device boundary sits
        exactly here.
        """
        if self.reservoir is None:
            raise RuntimeError("extractor must be fitted before use")
        xb = self.backend
        u_std = as_batch(self.standardizer.transform(u))
        batch_size = self.feature_batch_size
        n = u_std.shape[0]
        if batch_size is None or n <= batch_size:
            trace = self.reservoir.run(u_std, A, B, backend=xb)
            feats = xb.to_numpy(self.dprr.features(trace, backend=xb))
            return feats, trace.diverged
        stacked = not (np.ndim(A) == 0 and np.ndim(B) == 0)
        lead = (np.broadcast(np.atleast_1d(A), np.atleast_1d(B)).size,) if stacked else ()
        feats = np.empty(lead + (n, self.n_features), dtype=xb.dtype_name)
        diverged = np.empty(lead + (n,), dtype=bool)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            trace = self.reservoir.run(u_std[start:stop], A, B, backend=xb)
            feats[..., start:stop, :] = xb.to_numpy(
                self.dprr.features(trace, backend=xb))
            diverged[..., start:stop] = trace.diverged
        return feats, diverged

    def snapshot(self) -> "ExtractorConfig":
        """Freeze the fitted state into a cheaply picklable :class:`ExtractorConfig`.

        The config carries only plain arrays and scalars (mask matrix,
        standardizer statistics, nonlinearity, DPRR normalization) — no RNG
        state, no live reservoir — so it is what the execution layer ships
        to worker processes instead of the extractor itself.
        """
        if self.reservoir is None or self.standardizer.mean_ is None:
            raise RuntimeError("extractor must be fitted before snapshot()")
        return ExtractorConfig(
            n_nodes=self.n_nodes,
            nonlinearity=self.nonlinearity,
            normalize=self.dprr.normalize,
            mask_kind=self.mask_kind,
            mask_gamma=self.mask_gamma,
            feature_batch_size=self.feature_batch_size,
            mask_matrix=np.array(self.reservoir.mask.matrix, copy=True),
            mean=np.array(self.standardizer.mean_, copy=True),
            std=np.array(self.standardizer.std_, copy=True),
            backend=self.backend_spec,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DFRFeatureExtractor(n_nodes={self.n_nodes}, "
            f"nonlinearity={self.nonlinearity!r}, mask_kind={self.mask_kind!r})"
        )


@dataclass
class ExtractorConfig:
    """Picklable snapshot of a fitted :class:`DFRFeatureExtractor`.

    Rebuilding via :meth:`build` restores a functionally identical extractor
    (same mask, same standardizer statistics, same nonlinearity and DPRR
    settings) without re-fitting, so a worker process reconstructs the exact
    feature pipeline of the parent from a few small arrays.
    """

    n_nodes: int
    nonlinearity: object
    normalize: Optional[str]
    mask_kind: str
    mask_gamma: float
    feature_batch_size: Optional[int]
    mask_matrix: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    #: array-backend *spec string* (never a live backend — specs pickle,
    #: device handles do not), precision suffix included; None re-resolves
    #: REPRO_BACKEND on build, so worker processes honour their own
    #: environment
    backend: Optional[str] = None
    #: schema version stamped on every snapshot; :meth:`from_dict` rejects
    #: versions this release does not know how to read
    version: int = CONFIG_SCHEMA_VERSION

    def to_dict(self) -> dict:
        """A JSON-serializable dict of this snapshot (exact round trip).

        Arrays become nested lists and the nonlinearity its registry name
        plus constructor parameters; Python's ``json`` round-trips finite
        floats exactly, so :meth:`from_dict` of the serialized form rebuilds
        a bit-identical config.  This is the on-disk representation the
        serving layer's :func:`repro.serve.save_model` persists.
        """
        nl = get_nonlinearity(self.nonlinearity)
        return {
            "version": int(self.version),
            "n_nodes": int(self.n_nodes),
            "nonlinearity": {"name": nl.name, "params": dict(vars(nl))},
            "normalize": self.normalize,
            "mask_kind": self.mask_kind,
            "mask_gamma": float(self.mask_gamma),
            "feature_batch_size": self.feature_batch_size,
            "mask_matrix": np.asarray(self.mask_matrix,
                                      dtype=np.float64).tolist(),
            "mean": np.asarray(self.mean, dtype=np.float64).tolist(),
            "std": np.asarray(self.std, dtype=np.float64).tolist(),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExtractorConfig":
        """Rebuild a config from :meth:`to_dict` output — strictly.

        Unknown keys, missing keys and unsupported schema versions all
        raise ``ValueError``: a persisted snapshot from an incompatible
        release must fail loudly here rather than build a subtly wrong
        extractor.
        """
        check_document(
            data,
            {"version", "n_nodes", "nonlinearity", "normalize", "mask_kind",
             "mask_gamma", "feature_batch_size", "mask_matrix", "mean", "std",
             "backend"},
            what="ExtractorConfig snapshot", version=CONFIG_SCHEMA_VERSION,
            version_key="version",
        )
        nl_spec = data["nonlinearity"]
        if isinstance(nl_spec, dict):
            check_document(nl_spec, {"name"}, what="nonlinearity entry",
                           optional=("params",))
            nl_name = nl_spec["name"]
            if nl_name not in NONLINEARITIES:
                raise ValueError(
                    f"unknown nonlinearity {nl_name!r}; known: "
                    f"{sorted(NONLINEARITIES)}"
                )
            nonlinearity = NONLINEARITIES[nl_name](**nl_spec.get("params", {}))
        else:
            nonlinearity = get_nonlinearity(nl_spec)
        feature_batch_size = data["feature_batch_size"]
        return cls(
            n_nodes=int(data["n_nodes"]),
            nonlinearity=nonlinearity,
            normalize=data["normalize"],
            mask_kind=data["mask_kind"],
            mask_gamma=float(data["mask_gamma"]),
            feature_batch_size=(None if feature_batch_size is None
                                else int(feature_batch_size)),
            mask_matrix=np.asarray(data["mask_matrix"], dtype=np.float64),
            mean=np.asarray(data["mean"], dtype=np.float64),
            std=np.asarray(data["std"], dtype=np.float64),
            backend=data["backend"],
            version=int(data["version"]),
        )

    def build(self) -> DFRFeatureExtractor:
        """Reconstruct the fitted extractor this config was snapshot from."""
        extractor = DFRFeatureExtractor(
            self.n_nodes,
            nonlinearity=self.nonlinearity,
            normalize=self.normalize,
            mask_kind=self.mask_kind,
            mask_gamma=self.mask_gamma,
            feature_batch_size=self.feature_batch_size,
            backend=self.backend,
        )
        extractor.standardizer.mean_ = np.array(self.mean, copy=True)
        extractor.standardizer.std_ = np.array(self.std, copy=True)
        extractor.reservoir = ModularDFR(
            InputMask(np.array(self.mask_matrix, copy=True)),
            nonlinearity=extractor.nonlinearity,
        )
        return extractor


@dataclass
class FixedParamsEvaluation:
    """Scores of one ``(A, B)`` candidate under the shared protocol."""

    A: float
    B: float
    beta: float
    val_loss: float
    val_accuracy: float
    test_accuracy: float
    diverged: bool
    #: populated when the candidate failed outright (e.g. a worker raised)
    #: rather than merely diverging numerically
    error: Optional[str] = None

    def __eq__(self, other) -> bool:
        # field-wise equality with NaN == NaN: diverged/failed sentinels
        # carry beta=nan, and the serial-vs-parallel bit-identity checks
        # must treat two such identical sentinels as equal
        if not isinstance(other, FixedParamsEvaluation):
            return NotImplemented

        def same(a, b):
            if isinstance(a, float) and isinstance(b, float):
                return a == b or (a != a and b != b)
            return a == b

        return all(
            same(getattr(self, name), getattr(other, name))
            for name in ("A", "B", "beta", "val_loss", "val_accuracy",
                         "test_accuracy", "diverged", "error")
        )

    @classmethod
    def failed(cls, A: float, B: float, error: Optional[str] = None
               ) -> "FixedParamsEvaluation":
        """A sentinel evaluation for a candidate that could not be scored.

        Failed candidates carry infinite loss and zero accuracy so every
        selection rule ranks them last, and ``diverged=True`` so existing
        divergence handling treats them as unusable.
        """
        return cls(
            A=float(A), B=float(B), beta=float("nan"),
            val_loss=float("inf"), val_accuracy=0.0, test_accuracy=0.0,
            diverged=True, error=error,
        )


def evaluate_fixed_params(
    extractor: Union[DFRFeatureExtractor, ExtractorConfig],
    u_train: np.ndarray,
    y_train: np.ndarray,
    u_test: np.ndarray,
    y_test: np.ndarray,
    A: float,
    B: float,
    *,
    betas: Sequence[float] = PAPER_BETAS,
    val_fraction: float = 0.2,
    n_classes: Optional[int] = None,
    seed: SeedLike = None,
) -> FixedParamsEvaluation:
    """Evaluate fixed reservoir parameters exactly like the pipeline would.

    Runs the reservoir, selects ``beta`` by holdout cross-entropy, refits on
    the full training set and scores the test set.  Diverged reservoirs are
    reported with infinite loss and zero accuracy instead of raising, so a
    grid sweep can cross unstable corners of the search box.  The
    extractor's ``feature_batch_size`` chunks the reservoir sweeps
    (identical features, bounded memory) — unrelated to the SGD minibatch
    size of :class:`~repro.core.trainer.TrainerConfig`.

    ``extractor`` may be a live (fitted) :class:`DFRFeatureExtractor` or an
    :class:`ExtractorConfig` snapshot; the two paths compute bit-identical
    results, which is what lets worker processes receive the small config
    instead of the live object.
    """
    if isinstance(extractor, ExtractorConfig):
        extractor = extractor.build()
    y_train = ensure_1d_labels(y_train)
    y_test = ensure_1d_labels(y_test)
    if n_classes is None:
        n_classes = int(max(y_train.max(), y_test.max())) + 1
    f_train, div_train = extractor.features(u_train, A, B)
    f_test, div_test = extractor.features(u_test, A, B)
    return _score_fixed_params(
        f_train, f_test, y_train, y_test, A, B,
        diverged=bool(div_train.any() or div_test.any()),
        betas=betas, val_fraction=val_fraction, n_classes=n_classes,
        seed=seed,
    )


def _score_fixed_params(
    f_train: np.ndarray,
    f_test: np.ndarray,
    y_train: np.ndarray,
    y_test: np.ndarray,
    A: float,
    B: float,
    *,
    diverged: bool,
    betas: Sequence[float],
    val_fraction: float,
    n_classes: int,
    seed: SeedLike,
) -> FixedParamsEvaluation:
    """Score one candidate's feature matrices (the shared protocol tail).

    This single function builds the evaluation record for both the serial
    path (:func:`evaluate_fixed_params`) and each row of the fused block
    path (:func:`evaluate_fixed_params_block`) — which is what keeps the
    two bit-identical by construction.
    """
    if diverged:
        return FixedParamsEvaluation(
            A=A, B=B, beta=float("nan"), val_loss=float("inf"),
            val_accuracy=0.0, test_accuracy=0.0, diverged=True,
        )
    selection = select_beta(
        f_train, y_train, betas=betas, val_fraction=val_fraction,
        n_classes=n_classes, seed=seed,
    )
    test_acc = selection.best_model.accuracy(f_test, y_test)
    return FixedParamsEvaluation(
        A=A,
        B=B,
        beta=selection.best_beta,
        val_loss=selection.best_val_loss,
        val_accuracy=selection.val_accuracies[selection.best_beta],
        test_accuracy=test_acc,
        diverged=False,
    )


def evaluate_fixed_params_block(
    extractor: Union[DFRFeatureExtractor, ExtractorConfig],
    u_train: np.ndarray,
    y_train: np.ndarray,
    u_test: np.ndarray,
    y_test: np.ndarray,
    A_values: Sequence[float],
    B_values: Sequence[float],
    *,
    betas: Sequence[float] = PAPER_BETAS,
    val_fraction: float = 0.2,
    n_classes: Optional[int] = None,
    seeds: Optional[Sequence] = None,
) -> List[FixedParamsEvaluation]:
    """Evaluate a block of K ``(A, B)`` candidates in one fused sweep.

    The reservoir/DPRR phase — the expensive part of
    :func:`evaluate_fixed_params` — runs *once* for the whole block with a
    candidate axis stacked in front of the batch axis (standardization and
    the mask drive are shared, the per-candidate node chains go through the
    backend's stacked filter), then each candidate's ridge/beta selection
    scores its feature slice through the identical protocol.  On the NumPy
    backend every returned evaluation is bit-identical to the serial
    :func:`evaluate_fixed_params` of that candidate (pinned by tests).

    ``seeds`` carries one holdout-split seed per candidate (``None``
    entries mean an unseeded split, exactly like the serial path).

    Failure semantics are row-wise: a candidate that diverges numerically
    gets the usual diverged record, and one whose *scoring* raises gets the
    :meth:`FixedParamsEvaluation.failed` sentinel (traceback in
    ``error``) — the rest of the block is unaffected.  Non-finite
    ``A``/``B`` entries raise up front, as they would serially; callers
    that need per-row isolation for those (the vectorized executor) filter
    them before building the block.
    """
    if isinstance(extractor, ExtractorConfig):
        extractor = extractor.build()
    y_train = ensure_1d_labels(y_train)
    y_test = ensure_1d_labels(y_test)
    if n_classes is None:
        n_classes = int(max(y_train.max(), y_test.max())) + 1
    A_values = np.atleast_1d(np.asarray(A_values, dtype=np.float64))
    B_values = np.atleast_1d(np.asarray(B_values, dtype=np.float64))
    if A_values.shape != B_values.shape or A_values.ndim != 1:
        raise ValueError(
            f"A_values and B_values must be matching 1-D candidate vectors, "
            f"got shapes {A_values.shape} and {B_values.shape}"
        )
    n_cand = A_values.shape[0]
    if seeds is None:
        seeds = [None] * n_cand
    elif len(seeds) != n_cand:
        raise ValueError(
            f"need one seed per candidate ({n_cand}), got {len(seeds)}"
        )
    f_train, div_train = extractor.features(u_train, A_values, B_values)
    f_test, div_test = extractor.features(u_test, A_values, B_values)
    out: List[FixedParamsEvaluation] = []
    for k in range(n_cand):
        a_k = float(A_values[k])
        b_k = float(B_values[k])
        try:
            out.append(_score_fixed_params(
                f_train[k], f_test[k], y_train, y_test, a_k, b_k,
                diverged=bool(div_train[k].any() or div_test[k].any()),
                betas=betas, val_fraction=val_fraction, n_classes=n_classes,
                seed=seeds[k],
            ))
        except Exception:
            out.append(FixedParamsEvaluation.failed(
                a_k, b_k, error=traceback.format_exc(limit=10),
            ))
    return out


class DFRClassifier:
    """The paper's full method: backprop-optimized DFR + ridge readout.

    Parameters
    ----------
    n_nodes:
        Virtual-node count ``N_x`` (paper: 30).
    nonlinearity:
        Reservoir shape function (paper evaluation: identity).
    config:
        :class:`~repro.core.trainer.TrainerConfig`; defaults to the paper's
        SGD protocol (25 epochs, truncated backprop, LR schedule).
    batch_size:
        Convenience override for ``config.batch_size``: 1 (the default
        config) is the paper's per-sample SGD, larger values train through
        the vectorized minibatch engine.
    betas:
        Ridge regularizer candidates (paper: ``1e-6, 1e-4, 1e-2, 1``).
    val_fraction:
        Holdout fraction for ``beta`` selection.
    mask_kind, mask_gamma:
        Input mask family and scale.
    search:
        Parameter-optimization strategy for the backprop phase:
        ``"backprop"`` (default) is the paper's single gradient run from
        ``(0.01, 0.01)``; ``"descent"`` runs *population* gradient descent
        — ``population`` restarts descended concurrently through the
        candidate-axis-vectorized engine
        (:func:`~repro.core.population.descend_population`), with the
        winner picked by the shared validation criterion on the training
        set.  ``search="descent"`` with ``population=1`` runs the default
        path, so it is bit-identical to it (pinned by tests), and
        ``population_`` holds that one fit as a one-member population.
    population:
        Restart count for ``search="descent"``; ``None`` defers to the
        ``REPRO_POPULATION`` environment variable (default 8).  Ignored by
        ``search="backprop"``.
    workers:
        Worker-process count for candidate evaluation through the shared
        execution layer (:meth:`candidate_executor`,
        :meth:`evaluate_candidates`, and any search built on this
        classifier's extractor).  ``None`` defers to the ``REPRO_WORKERS``
        environment variable; 0/1 evaluates serially.  The backprop fit
        itself is the paper's sequential algorithm and is unaffected.
    backend:
        Array backend spec (``"numpy"``, ``"torch"``, ``"torch:cuda:0"``,
        ``"cupy"``) executing the reservoir/DPRR sweeps and — when
        ``batch_size > 1`` — the batched training engine.  ``None`` defers
        to the ``REPRO_BACKEND`` environment variable (NumPy when unset);
        the per-sample SGD of ``batch_size=1`` always runs the pinned
        float64 NumPy reference.  An ``@float32`` suffix
        (``"numpy@float32"``) opts those sweeps into single precision
        (rtol-bounded against the float64 reference — tolerance contract
        in ``docs/ARCHITECTURE.md``).
    seed:
        Master seed (mask, shuffling, splits).

    Examples
    --------
    >>> from repro.data import load_dataset
    >>> data = load_dataset("JPVOW", seed=0)
    >>> clf = DFRClassifier(seed=0).fit(data.u_train, data.y_train)
    >>> acc = clf.score(data.u_test, data.y_test)
    """

    def __init__(
        self,
        n_nodes: int = PAPER_N_NODES,
        *,
        nonlinearity="identity",
        config: Optional[TrainerConfig] = None,
        batch_size: Optional[int] = None,
        betas: Sequence[float] = PAPER_BETAS,
        val_fraction: float = 0.2,
        normalize: Optional[str] = None,
        mask_kind: str = "binary",
        mask_gamma: float = 1.0,
        search: str = "backprop",
        population: Optional[int] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
        seed: SeedLike = None,
    ):
        if search not in ("backprop", "descent"):
            raise ValueError(
                f"search must be 'backprop' or 'descent', got {search!r}"
            )
        self._rng = ensure_rng(seed)
        self.search = search
        self.population = population
        self.workers = workers
        self.backend = backend
        self._executor = None
        self._executor_workers = None
        self.extractor = DFRFeatureExtractor(
            n_nodes,
            nonlinearity=nonlinearity,
            normalize=normalize,
            mask_kind=mask_kind,
            mask_gamma=mask_gamma,
            backend=backend,
            seed=self._rng,
        )
        self.config = config if config is not None else TrainerConfig()
        if batch_size is not None:
            self.config = replace(self.config, batch_size=int(batch_size))
        if backend is not None and self.config.backend is None:
            self.config = replace(self.config, backend=backend)
        self.betas = tuple(betas)
        self.val_fraction = float(val_fraction)
        # fitted attributes
        self.A_: Optional[float] = None
        self.B_: Optional[float] = None
        self.beta_: Optional[float] = None
        self.ridge_ = None
        self.training_: Optional[TrainingResult] = None
        self.selection_: Optional[RidgeSelection] = None
        self.n_classes_: Optional[int] = None
        self.population_: Optional[PopulationResult] = None

    def fit(self, u: np.ndarray, y: np.ndarray) -> "DFRClassifier":
        """Run the full two-phase optimization on a training set."""
        u = as_batch(u)
        y = ensure_1d_labels(y, n_samples=u.shape[0])
        self.n_classes_ = int(y.max()) + 1
        self.extractor.fit(u)
        u_std = self.extractor.standardizer.transform(u)

        k = 1
        if self.search == "descent":
            k = resolve_population(self.population)
        if k > 1:
            # population gradient descent: K restarts trained as fused
            # candidate-stacked chunks, the winner picked by the shared
            # validation rule
            from repro.core.grid_search import PAPER_A_RANGE, PAPER_B_RANGE

            from repro.exec import resolve_candidate_block_size

            self.population_ = descend_population(
                self.extractor.reservoir,
                self.n_classes_,
                u_std,
                y,
                self._rng,
                population=k,
                a_range=PAPER_A_RANGE,
                b_range=PAPER_B_RANGE,
                dprr=self.extractor.dprr,
                config=self.config,
                block_size=resolve_candidate_block_size(None),
            )
            return self._select_member(u, y)
        trainer = BackpropTrainer(
            self.extractor.reservoir,
            self.n_classes_,
            dprr=self.extractor.dprr,
            config=self.config,
            seed=self._rng,
        )
        self.training_ = trainer.fit(u_std, y)
        if self.search == "descent":
            # a population of one is the default path on the live rng
            # stream, so it is bit-identical to search="backprop"
            self.population_ = PopulationResult.of_one(
                self.training_, self.config.init_A, self.config.init_B)
        self.A_ = self.training_.A
        self.B_ = self.training_.B

        features, diverged = self.extractor.features(u, self.A_, self.B_)
        if diverged.any():
            raise RuntimeError(
                "reservoir diverged at the trained parameters; this indicates "
                "an unstable configuration (check TrainerConfig.param_max)"
            )
        self.selection_ = select_beta(
            features,
            y,
            betas=self.betas,
            val_fraction=self.val_fraction,
            n_classes=self.n_classes_,
            seed=self._rng,
        )
        self.beta_ = self.selection_.best_beta
        self.ridge_ = self.selection_.best_model
        return self

    def _select_member(self, u: np.ndarray, y: np.ndarray) -> "DFRClassifier":
        """Pick the best population member by the shared validation rule.

        Every member's descent endpoint is scored on the *training* data
        only — fused feature sweeps over the population (chunked by the
        ``REPRO_CANDIDATE_BLOCK_SIZE`` block size so the stacked trace
        stays bounded at any population, like every other fused stage),
        then the usual ridge/beta selection per member on a shared holdout
        split (highest validation accuracy, cross-entropy then smallest
        ``(A, B)`` as tiebreaks — the same criterion every search uses).
        The test set plays no role, exactly as in the default path.
        """
        # selection.py imports this module, so the shared rule is pulled in
        # lazily here
        from repro.core.selection import better_evaluation
        from repro.exec import resolve_candidate_block_size

        results = self.population_.results()
        a_vec = np.array([r.A for r in results])
        b_vec = np.array([r.B for r in results])
        block = resolve_candidate_block_size(None)
        split_seed = int(self._rng.integers(2**31 - 1))
        best = None
        for lo in range(0, len(results), block):
            hi = min(lo + block, len(results))
            features, diverged = self.extractor.features(
                u, a_vec[lo:hi], b_vec[lo:hi])
            for pos, k in enumerate(range(lo, hi)):
                if diverged[pos].any():
                    continue
                result = results[k]
                selection = select_beta(
                    features[pos], y,
                    betas=self.betas,
                    val_fraction=self.val_fraction,
                    n_classes=self.n_classes_,
                    seed=split_seed,
                )
                # rank through the shared selection rule (the test accuracy
                # is deliberately absent here — the rule never consults it)
                record = FixedParamsEvaluation(
                    A=result.A,
                    B=result.B,
                    beta=selection.best_beta,
                    val_loss=selection.best_val_loss,
                    val_accuracy=selection.val_accuracies[selection.best_beta],
                    test_accuracy=float("nan"),
                    diverged=False,
                )
                if best is None or better_evaluation(record, best[0]):
                    best = (record, k, selection)
        if best is None:
            raise RuntimeError(
                "every population member diverged at its trained parameters; "
                "this indicates an unstable configuration (check "
                "TrainerConfig.param_max)"
            )
        _, winner, selection = best
        self.training_ = results[winner]
        self.A_ = self.training_.A
        self.B_ = self.training_.B
        self.selection_ = selection
        self.beta_ = selection.best_beta
        self.ridge_ = selection.best_model
        return self

    def candidate_executor(self):
        """The :class:`~repro.exec.CandidateExecutor` for this classifier.

        Serial for ``workers in (None-without-env, 0, 1)``, multiprocess
        otherwise; pass it to :class:`~repro.core.grid_search.GridSearch`
        and friends via their ``executor`` argument to share the knob.
        The executor is cached on the classifier until ``workers`` changes;
        its worker pool persists across submissions that reuse one
        evaluation context (as the searches do).
        """
        from repro.exec import make_executor, resolve_workers

        n = resolve_workers(self.workers)
        # the cache keys on the *requested* worker count, not the built
        # executor's own (a REPRO_EXECUTOR kind override may build an
        # executor whose workers differ — e.g. vectorized is always 1 —
        # and comparing against that would rebuild on every call)
        if self._executor is None or self._executor_workers != n:
            if self._executor is not None:
                self._executor.close()
            self._executor = make_executor(n)
            self._executor_workers = n
        return self._executor

    def evaluate_candidates(
        self,
        u_train: np.ndarray,
        y_train: np.ndarray,
        u_test: np.ndarray,
        y_test: np.ndarray,
        params: Sequence[Tuple[float, float]],
        *,
        seed: SeedLike = None,
    ) -> List[FixedParamsEvaluation]:
        """Score arbitrary ``(A, B)`` candidates through the execution layer.

        Uses the classifier's fitted feature pipeline and ``workers``
        setting; each candidate pays the same protocol as the grid-search
        baseline (beta selection on a shared holdout, then a test score).
        The result order matches ``params``.

        Each call builds a fresh evaluation context, so with ``workers > 1``
        it also pays one worker-pool spawn and one data shipment — batch
        your candidates into one call rather than looping over many small
        ones (or drive a :class:`~repro.core.grid_search.GridSearch`-style
        search, which reuses a single context across submissions).
        """
        from repro.exec import Candidate, EvaluationContext

        self._check_fitted()
        split_seed = int(ensure_rng(seed).integers(2**31 - 1))
        context = EvaluationContext.from_data(
            self.extractor.snapshot(),
            u_train, y_train, u_test, y_test,
            betas=self.betas,
            val_fraction=self.val_fraction,
            n_classes=self.n_classes_,
        )
        candidates = [
            Candidate(index=i, A=float(a), B=float(b), seed=split_seed)
            for i, (a, b) in enumerate(params)
        ]
        report = self.candidate_executor().run(context, candidates)
        return report.evaluations()

    def _check_fitted(self) -> None:
        if self.ridge_ is None:
            raise RuntimeError("classifier must be fitted before prediction")

    def predict(self, u: np.ndarray) -> np.ndarray:
        """Predict class labels for a batch of series."""
        self._check_fitted()
        features, diverged = self.extractor.features(u, self.A_, self.B_)
        if diverged.any():
            raise RuntimeError("reservoir diverged on the given inputs")
        return self.ridge_.predict(features)

    def predict_proba(self, u: np.ndarray) -> np.ndarray:
        """Softmax-calibrated class probabilities."""
        self._check_fitted()
        features, diverged = self.extractor.features(u, self.A_, self.B_)
        if diverged.any():
            raise RuntimeError("reservoir diverged on the given inputs")
        return self.ridge_.predict_proba(features)

    def score(self, u: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(u, y)``."""
        y = ensure_1d_labels(y)
        return accuracy_score(y, self.predict(u))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        fitted = self.ridge_ is not None
        return (
            f"DFRClassifier(n_nodes={self.extractor.n_nodes}, "
            f"nonlinearity={self.extractor.nonlinearity!r}, fitted={fitted})"
        )

"""Versioned single-file persistence for trained DFR pipelines.

A deployed model is three things: the frozen feature pipeline (an
:class:`~repro.core.pipeline.ExtractorConfig` — mask matrix, standardizer
statistics, nonlinearity, DPRR settings), the optimized reservoir
parameters ``(A, B)``, and optionally the fitted ridge readout.  All of it
is plain floats and small arrays, and CPython's ``json`` round-trips finite
doubles exactly (``repr``-based serialization), so one human-readable JSON
document restores the pipeline *bit for bit* — no pickle, no NPZ sidecar.

The document is versioned twice over: the envelope carries
``format``/``format_version`` and the embedded config carries its own
schema version, and every ``from_dict`` on the way in is strict (unknown or
missing keys raise).  A snapshot written by an incompatible release fails
loudly at load time instead of serving subtly wrong scores.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.pipeline import ExtractorConfig
from repro.readout.ridge import RidgeModel
from repro.utils.validation import check_document

__all__ = [
    "MODEL_FORMAT",
    "MODEL_FORMAT_VERSION",
    "ServableModel",
    "save_model",
    "load_model",
]

#: magic string identifying a serialized model document
MODEL_FORMAT = "repro-dfr-model"
#: envelope schema version; bump on any envelope field change
MODEL_FORMAT_VERSION = 1

_ENVELOPE_KEYS = {"format", "format_version", "name", "A", "B", "config",
                  "readout"}


@dataclass
class ServableModel:
    """A trained DFR pipeline frozen for serving.

    Parameters
    ----------
    name:
        Deployment name (the key sessions open against).
    A, B:
        The optimized reservoir parameters.
    config:
        Snapshot of the fitted feature extractor.
    readout:
        The fitted ridge readout, or ``None`` for a feature-only deployment
        (the engine then returns DPRR features without scores).
    """

    name: str
    A: float
    B: float
    config: ExtractorConfig
    readout: Optional[RidgeModel] = None

    def __post_init__(self):
        self.A = float(self.A)
        self.B = float(self.B)
        if not np.isfinite(self.A) or not np.isfinite(self.B):
            raise ValueError(
                f"A and B must be finite, got A={self.A!r}, B={self.B!r}"
            )

    @classmethod
    def from_classifier(cls, clf, name: str) -> "ServableModel":
        """Freeze a fitted :class:`~repro.core.pipeline.DFRClassifier`."""
        if getattr(clf, "ridge_", None) is None:
            raise RuntimeError("classifier must be fitted before freezing")
        return cls(
            name=name,
            A=float(clf.A_),
            B=float(clf.B_),
            config=clf.extractor.snapshot(),
            readout=clf.ridge_,
        )

    def fingerprint(self) -> str:
        """Digest of the *numerics-relevant* feature pipeline.

        Two deployed models with equal fingerprints produce identical
        standardized inputs and mask drives, so the engine may pack their
        sessions into one fused sweep with the models' ``(A, B)`` pairs on
        the candidate axis.  ``A``/``B`` themselves, the readout, the
        backend *preference* and the chunk size are deliberately excluded —
        the first two live on the candidate axis, the backend is overridden
        by the engine's own, and chunking never changes a feature.
        """
        cfg = self.config.to_dict()
        for key in ("backend", "feature_batch_size"):
            cfg.pop(key)
        payload = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """The versioned JSON envelope (see :func:`save_model`)."""
        return {
            "format": MODEL_FORMAT,
            "format_version": MODEL_FORMAT_VERSION,
            "name": self.name,
            "A": self.A,
            "B": self.B,
            "config": self.config.to_dict(),
            "readout": None if self.readout is None else self.readout.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServableModel":
        """Rebuild from :meth:`to_dict` output — strictly versioned."""
        check_document(data, _ENVELOPE_KEYS, what="model document",
                       fmt=MODEL_FORMAT, version=MODEL_FORMAT_VERSION)
        readout = data["readout"]
        return cls(
            name=str(data["name"]),
            A=data["A"],
            B=data["B"],
            config=ExtractorConfig.from_dict(data["config"]),
            readout=None if readout is None else RidgeModel.from_dict(readout),
        )


def save_model(model: ServableModel, path: str) -> str:
    """Write ``model`` to ``path`` as one JSON document; returns ``path``.

    The write is atomic (temp file + ``os.replace``) so a crashed save
    never leaves a truncated snapshot where a loadable one used to be.
    """
    doc = json.dumps(model.to_dict(), indent=2, sort_keys=False)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(doc)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_model(path: str) -> ServableModel:
    """Read a :func:`save_model` snapshot back; strict on schema."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return ServableModel.from_dict(data)

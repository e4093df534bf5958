"""Input validation helpers shared across the library.

The conventions enforced here are global to the package:

* a *sample* is a 2-D array of shape ``(T, C)`` — ``T`` time steps of a
  ``C``-channel multivariate series;
* a *batch* is a 3-D array of shape ``(N, T, C)``;
* labels are 1-D integer arrays of shape ``(N,)``.

:func:`env_knob` is the one place a ``REPRO_*`` environment variable is
read, parsed, bounded and reported; :func:`check_document` is the one
place a persisted JSON document's envelope is checked.
"""

from __future__ import annotations

import os

import numpy as np


def as_batch(u: np.ndarray, *, name: str = "u") -> np.ndarray:
    """Coerce ``u`` to a float64 batch of shape ``(N, T, C)``.

    A single 2-D sample ``(T, C)`` is promoted to a batch of one.  A 1-D
    univariate series ``(T,)`` is promoted to ``(1, T, 1)``.
    """
    arr = np.asarray(u, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :, np.newaxis]
    elif arr.ndim == 2:
        arr = arr[np.newaxis, :, :]
    elif arr.ndim != 3:
        raise ValueError(
            f"{name} must have 1, 2 or 3 dimensions (got shape {arr.shape})"
        )
    if arr.shape[1] < 1:
        raise ValueError(f"{name} must contain at least one time step")
    if arr.shape[2] < 1:
        raise ValueError(f"{name} must contain at least one channel")
    return arr


def check_positive(value: float, *, name: str) -> float:
    """Validate that ``value`` is a finite, strictly positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_probability(value: float, *, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_at_least(value, lo, *, name: str, cast=int, finite: bool = False):
    """Validate ``cast(value) >= lo``; NaN fails, and ``finite`` rejects inf.

    A value ``cast`` refuses raises ``ValueError`` naming the setting too,
    and an ``int`` cast never truncates: ``2.9`` or ``inf`` fails, while
    ``3.0`` and the string ``"3"`` give ``3``.
    """
    try:
        number = cast(value)
        exact = cast is not int or isinstance(value, str) or number == value
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if not number >= lo or (finite and not np.isfinite(number)):
        bound = f"finite and >= {lo}" if finite else f">= {lo}"
        raise ValueError(f"{name} must be {bound}, got {number}")
    return number


def check_choice(value, choices, *, name: str) -> str:
    """Validate that the stripped, lower-cased ``value`` is in ``choices``."""
    value = str(value).strip().lower()
    if value not in choices:
        raise ValueError(
            f"{name} must be one of {', '.join(choices)}; got {value!r}"
        )
    return value


def check_document(doc, keys, *, what: str, fmt=None, version=None,
                   version_key: str = "format_version", optional=()) -> None:
    """Validate a persisted document's envelope strictly.

    ``doc`` must be a dict (else ``TypeError``) holding every key of
    ``keys``, any of ``optional`` and nothing else; when given, its
    ``format`` must equal ``fmt`` and its ``version_key`` entry must equal
    ``version``.  Each failure raises ``ValueError`` naming ``what`` and
    the offending keys or value, so a document written by an incompatible
    release fails loudly instead of loading as something subtly wrong.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be a dict, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys) - set(optional))
    missing = sorted(set(keys) - set(doc))
    if unknown or missing:
        parts = [f"{kind} keys {names}" for kind, names
                 in (("unknown", unknown), ("missing", missing)) if names]
        raise ValueError(
            f"{what} does not match its schema: {'; '.join(parts)}"
        )
    if fmt is not None and doc["format"] != fmt:
        raise ValueError(
            f"{what} is not a {fmt} document (format={doc['format']!r})"
        )
    if version is not None and doc[version_key] != version:
        raise ValueError(
            f"unsupported {what} schema version: {version_key}="
            f"{doc[version_key]!r}; this release reads version {version} only"
        )


def env_knob(value, env_var: str, parse, default, check=None, *,
             lenient: bool = False):
    """Resolve a knob: explicit ``value``, then ``env_var``, then ``default``.

    An explicit ``value`` wins and goes through ``check``, so a bad one
    always raises.  Otherwise the stripped variable is parsed with
    ``parse`` and checked; an unset or blank variable gives ``default``.
    A variable that fails to parse or check raises ``ValueError`` naming
    the variable and its raw value — unless the knob is ``lenient`` (a
    best-effort fleet-wide hint), which falls back to ``default`` instead.
    ``check`` returns the validated value or raises ``ValueError``.
    """
    if value is not None:
        return value if check is None else check(value)
    raw = os.environ.get(env_var, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
        return value if check is None else check(value)
    except (ValueError, OverflowError) as exc:
        if lenient:
            return default
        raise ValueError(f"invalid {env_var}={raw!r}: {exc}") from None


def ensure_1d_labels(y: np.ndarray, *, n_samples: int = None) -> np.ndarray:
    """Coerce ``y`` to a 1-D int64 label array, optionally checking length."""
    labels = np.asarray(y)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        rounded = np.rint(labels)
        if not np.allclose(labels, rounded):
            raise ValueError("labels must be integers")
        labels = rounded
    labels = labels.astype(np.int64)
    if n_samples is not None and labels.shape[0] != n_samples:
        raise ValueError(
            f"expected {n_samples} labels, got {labels.shape[0]}"
        )
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative class indices")
    return labels

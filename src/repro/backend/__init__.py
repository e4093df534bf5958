"""Pluggable array backends for the batched hot path.

The batched DFR forward/backward (paper Eqs. 13, 23, 30-32), the DPRR
contraction (Eqs. 10-11) and the batched softmax gradients (Eqs. 14-17)
are expressed as dense array ops — exactly what accelerator array
libraries provide.  This package is the seam that makes those ops
retargetable:

* :class:`~repro.backend.base.ArrayBackend` — the protocol (conversion,
  ``einsum``, first-order ``lfilter`` chains, fused element-wise chains,
  reductions, shape-function evaluation);
* :class:`~repro.backend.numpy_backend.NumpyBackend` — the CPU reference,
  delegating to the exact NumPy/SciPy calls of the pre-backend code
  (bit-identical, pinned by tests);
* ``TorchBackend`` / ``CupyBackend`` — lazily imported GPU-capable
  implementations; requesting one without the library installed raises
  :class:`BackendUnavailableError` (no silent NumPy fallback).

Resolution
----------
``resolve_backend(None)`` is the NumPy reference; ``default_backend()``
additionally consults the ``REPRO_BACKEND`` environment variable, which is
how the pipeline-level entry points (:class:`~repro.core.trainer.TrainerConfig`,
:class:`~repro.core.pipeline.DFRClassifier`,
:class:`~repro.core.pipeline.DFRFeatureExtractor`,
:class:`~repro.exec.BackendExecutor`) pick their default.  Specs are
``"name[:device][@dtype]"`` — e.g. ``REPRO_BACKEND=torch:cuda:1`` or
``REPRO_BACKEND=torch:cuda:0@float32``.  The ``@dtype`` suffix is the one
way to select the working precision (``float64`` default, ``float32``
opt-in); because it travels inside the spec string, it reaches every layer
a spec reaches, pickled worker contexts included.
Low-level components (:class:`~repro.reservoir.modular.ModularDFR`,
:class:`~repro.representation.dprr.DPRR`,
:class:`~repro.readout.softmax.SoftmaxReadout`) stay on NumPy unless a
backend is passed explicitly, so the paper-pinned reference numerics never
shift underneath an environment variable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.backend.base import (
    ArrayBackend,
    BackendUnavailableError,
    TransferStats,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.utils.validation import env_knob

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "TransferStats",
    "NumpyBackend",
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "DTYPE_NAMES",
    "resolve_backend",
    "default_backend",
    "available_backends",
    "infer_backend",
]

#: environment variable selecting the default backend for pipeline entry
#: points (``"numpy"``, ``"torch"``, ``"torch:cuda:0@float32"``, ...)
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: registry names, in resolution-preference order
BACKEND_NAMES = ("numpy", "torch", "cupy")

#: recognized working precisions
DTYPE_NAMES = ("float64", "float32")

_NUMPY = NumpyBackend()
#: resolved-instance cache, keyed by normalized "name:device@dtype" spec
#: (the default "@float64" suffix is stripped during normalization, so
#: "numpy" and "numpy@float64" share one instance)
_INSTANCES: Dict[str, ArrayBackend] = {"numpy": _NUMPY}

_INSTALL_HINTS = {
    "torch": "pip install 'repro[torch]' (or: pip install torch)",
    "cupy": "pip install 'repro[cupy]' (or: pip install cupy-cuda12x)",
}


def _split_spec(spec: str) -> Tuple[str, Optional[str], Optional[str]]:
    """Split ``"name[:device][@dtype]"`` into its three parts.

    Returns ``(name, device, dtype)`` with ``None`` for absent parts; the
    dtype, when present, is validated against :data:`DTYPE_NAMES`.
    """
    body, _, dtype = spec.partition("@")
    dtype = dtype.strip() or None
    if dtype is not None and dtype not in DTYPE_NAMES:
        known = ", ".join(DTYPE_NAMES)
        raise ValueError(
            f"backend dtype suffix must be one of {known}; got {dtype!r} "
            f"(in spec {spec!r})"
        )
    name, _, device = body.strip().partition(":")
    return name, device or None, dtype


def _construct(name: str, device: Optional[str],
               dtype: str) -> ArrayBackend:
    if name == "numpy":
        return _NUMPY if dtype == "float64" else NumpyBackend(dtype=dtype)
    try:
        if name == "torch":
            from repro.backend.torch_backend import TorchBackend

            return TorchBackend(device, dtype=dtype)
        if name == "cupy":
            from repro.backend.cupy_backend import CupyBackend

            return CupyBackend(device, dtype=dtype)
    except ImportError as exc:
        hint = _INSTALL_HINTS.get(name, "")
        raise BackendUnavailableError(
            f"array backend {name!r} requested but its library is not "
            f"importable ({exc}); install it with: {hint}"
        ) from exc
    known = ", ".join(BACKEND_NAMES)
    raise ValueError(f"unknown array backend {name!r}; known: {known}")


def resolve_backend(spec: Union[None, str, ArrayBackend] = None
                    ) -> ArrayBackend:
    """Resolve ``spec`` into an :class:`ArrayBackend` instance.

    ``None`` means the NumPy reference (the environment variable is *not*
    consulted here — see :func:`default_backend`).  A string is a registry
    name with optional device and dtype suffixes
    (``"torch:cuda:1@float32"``); instances pass through unchanged.
    Resolved backends are cached per normalized spec, so two components
    asking for the same spec share one instance (and its device caches).
    """
    if isinstance(spec, ArrayBackend):
        return spec
    if spec is None:
        return _NUMPY
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be None, a name, or an ArrayBackend, got "
            f"{type(spec).__name__}"
        )
    name, device, dtype = _split_spec(spec.strip().lower())
    dtype = dtype or "float64"
    key = name if device is None else f"{name}:{device}"
    if dtype != "float64":
        key = f"{key}@{dtype}"
    if key in _INSTANCES:
        return _INSTANCES[key]
    backend = _construct(name, device, dtype)
    _INSTANCES[key] = backend
    return backend


def default_backend() -> ArrayBackend:
    """The backend pipeline entry points use when none is given explicitly.

    Consults ``REPRO_BACKEND``; unset or empty means NumPy.  A malformed
    spec (unknown name, bad ``@dtype`` suffix) raises a ``ValueError``
    naming the variable; a variable naming an uninstalled backend raises
    :class:`BackendUnavailableError` — loudly, so a mis-configured
    environment cannot silently run on CPU.
    """
    return env_knob(None, BACKEND_ENV_VAR, resolve_backend, _NUMPY)


def available_backends() -> List[str]:
    """Names of the registry backends whose libraries import on this host."""
    out = []
    for name in BACKEND_NAMES:
        try:
            resolve_backend(name)
        except Exception:  # unavailable lib, or a broken CUDA runtime
            continue
        out.append(name)
    return out


def infer_backend(array) -> ArrayBackend:
    """The backend an array belongs to, judged by its type *and device*.

    Lets consumers that receive already-materialized arrays (e.g.
    :meth:`~repro.representation.dprr.DPRR.features` fed a device-resident
    trace) stay on the producing device without explicit threading — a
    tensor pinned to ``cuda:1`` (or to CPU) resolves to a backend on that
    same device, never to the auto-selected default.  Only checks
    libraries that are already imported, so the test never pays an import.
    """
    import sys

    import numpy as np

    if isinstance(array, np.ndarray):
        return _NUMPY
    torch = sys.modules.get("torch")
    if torch is not None and isinstance(array, torch.Tensor):
        return resolve_backend(f"torch:{array.device}")
    cupy = sys.modules.get("cupy")
    if cupy is not None and isinstance(array, cupy.ndarray):
        return resolve_backend(f"cupy:{array.device.id}")
    return _NUMPY

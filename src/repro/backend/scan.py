"""Log-depth associative scan for the first-order node chain.

The Eq.-13/Eq.-30 recursion ``y_n = x_n + c * y_{n-1}`` is a linear
recurrence, i.e. a prefix "sum" under the associative pair composition

.. math:: (a, b) \\circ (c, d) = (a \\cdot c,\\; b \\cdot c + d),

where a pair ``(a, b)`` represents the affine map ``y -> a*y + b``.  With a
*constant* coefficient the multiplier of every pair is the same ``c``, so
the Blelloch/Hillis-Steele scan collapses to recursive doubling: after step
``s`` each position holds the weighted window sum
:math:`y_k^{(s)} = \\sum_{j=k-2^s+1}^{k} c^{k-j} x_j`, and one fused
multiply-add per step doubles the window:

.. math:: y_k^{(s+1)} = y_k^{(s)} + c^{2^s}\\, y_{k-2^s}^{(s)}.

``ceil(log2 n)`` vectorized passes replace either the sequential C scan
(``lfilter``) or the O(n²) Toeplitz-of-powers matmul — the win on
accelerators at long chain lengths, where the ``(n, n)`` Toeplitz stops
fitting in cache (or memory: n = 8192 is a 512 MB float64 matrix).

The SciPy ``zi`` initial condition (``y_0 = x_0 + zi``) folds into the
scan for free: adding ``zi`` to the first sample injects it at position 0,
and the scan then propagates the required ``zi * c^k`` term to every
position — no separate powers vector.

Everything here is backend-generic: the functions take an
:class:`~repro.backend.base.ArrayBackend` and use only protocol methods
plus shared Python operators, so NumPy arrays exercise the identical
arithmetic the Torch/CuPy backends run on device (the long-``T`` parity
tests lean on this).  The NumPy *backend* itself keeps its exact
``lfilter`` path — the scan is selected only by the device backends.

Implementation selection
------------------------
``REPRO_FILTER_IMPL`` pins the device-backend filter kernel:

* ``auto`` (default) — Toeplitz matmul below :func:`scan_crossover`
  samples (cached matmuls win at the paper's ``N_x = 30``), the scan at or
  above it;
* ``toeplitz`` / ``scan`` — force one kernel unconditionally.

``REPRO_SCAN_CROSSOVER`` overrides the auto crossover length (default
``256``); the long-``T`` microbenchmark in
``benchmarks/test_component_speed.py`` measures where the true crossover
sits on a given machine.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.utils.validation import check_at_least, check_choice, env_knob

__all__ = [
    "FILTER_IMPL_ENV_VAR",
    "SCAN_CROSSOVER_ENV_VAR",
    "DEFAULT_SCAN_CROSSOVER",
    "FILTER_IMPLS",
    "LRUCache",
    "resolve_filter_impl",
    "scan_crossover",
    "use_scan",
    "first_order_scan",
    "first_order_scan_stacked",
]

#: environment variable pinning the device-backend filter kernel
FILTER_IMPL_ENV_VAR = "REPRO_FILTER_IMPL"
#: environment variable overriding the auto-selection crossover length
SCAN_CROSSOVER_ENV_VAR = "REPRO_SCAN_CROSSOVER"
#: chain length at which ``auto`` switches from Toeplitz matmul to the scan
DEFAULT_SCAN_CROSSOVER = 256
#: recognized ``REPRO_FILTER_IMPL`` values
FILTER_IMPLS = ("auto", "toeplitz", "scan")


class LRUCache:
    """A bounded mapping that evicts the *least recently used* entry only.

    The device backends key their Toeplitz-of-powers matrices by
    ``(coef, n)``; a grid sweep touches many coefficients per pass, so
    evicting the whole dict on overflow (the previous behaviour) threw the
    entire working set away mid-sweep.  This cache drops exactly one stale
    entry per insert beyond capacity, and a :meth:`get` refreshes recency.

    All operations take an internal lock: the serving engine ticks from
    whatever thread the caller drives it on while ``REPRO_WORKERS`` feature
    extraction fans out across a pool, and ``OrderedDict.move_to_end`` under
    concurrent mutation can corrupt the recency list or raise spuriously.
    """

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key):
        """Return the cached value (refreshing recency) or ``None``."""
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key, value) -> None:
        """Insert/overwrite ``key``, evicting only the oldest on overflow."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self):
        """Keys in recency order (oldest first)."""
        with self._lock:
            return list(self._data.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LRUCache(maxsize={self.maxsize}, len={len(self._data)})"


def resolve_filter_impl(env: Optional[str] = None) -> str:
    """The pinned filter implementation (``auto`` when unset).

    Reads ``REPRO_FILTER_IMPL`` (or the explicit ``env`` override) and
    validates it against :data:`FILTER_IMPLS` — an unknown value raises
    rather than silently running the wrong kernel.
    """
    return env_knob(env, FILTER_IMPL_ENV_VAR, str, "auto",
                    lambda v: check_choice(v.strip() or "auto", FILTER_IMPLS,
                                           name="filter impl"))


def scan_crossover() -> int:
    """Chain length where ``auto`` switches to the scan kernel."""
    return env_knob(None, SCAN_CROSSOVER_ENV_VAR, int, DEFAULT_SCAN_CROSSOVER,
                    lambda n: check_at_least(n, 1, name="scan crossover"))


def use_scan(n: int) -> bool:
    """Whether a device backend should scan a length-``n`` chain.

    Resolved per call so a pinned ``REPRO_FILTER_IMPL`` takes effect
    immediately (the env read is nanoseconds next to any filter kernel).
    """
    impl = resolve_filter_impl()
    if impl == "auto":
        return n >= scan_crossover()
    return impl == "scan"


def _doubling_scan(xb, y, factor):
    """The recursive-doubling core: inclusive scan of ``y`` under ``c``.

    ``factor`` is the current window multiplier ``c^{2^s}`` — a Python
    float for a scalar-coefficient chain, or a backend array broadcastable
    against ``y[..., :-offset]`` for a stacked per-candidate chain (it is
    squared in place of kind each step, staying on device).
    """
    n = y.shape[-1]
    offset = 1
    while offset < n:
        y = xb.concatenate(
            [y[..., :offset], y[..., offset:] + factor * y[..., :-offset]],
            axis=-1,
        )
        factor = factor * factor
        offset <<= 1
    return y


def first_order_scan(xb, x, coef: float, zi):
    """Scan form of ``ArrayBackend.first_order_filter`` (same semantics).

    Solves ``y_n = x_n + coef * y_{n-1}`` along the last axis with the
    SciPy initial condition ``y_0 = x_0 + zi`` (``zi`` has trailing axis 1).
    """
    # folding zi into sample 0 makes the scan propagate zi * c^k for free
    y = xb.concatenate([x[..., :1] + zi, x[..., 1:]], axis=-1)
    # a Python float stays a weak scalar under NumPy/Torch promotion (a
    # float32 chain is not silently upcast) and its squaring overflows to
    # inf at |c| > 1, matching the Toeplitz entries' behaviour
    return _doubling_scan(xb, y, float(coef))


def first_order_scan_stacked(xb, x, coefs, zi):
    """Scan form of ``ArrayBackend.first_order_filter_stacked``.

    ``x`` is ``(K, ..., n)``, ``coefs`` a 1-D host array of K coefficients
    and ``zi[k]`` the per-candidate initial condition (trailing axis 1).
    One fused scan sweeps all K chains — the per-candidate coefficient just
    rides along as a broadcast ``(K, 1, ..., 1)`` multiplier.
    """
    coefs = np.asarray(coefs, dtype=np.float64)
    factor = xb.asarray(coefs, dtype=getattr(x, "dtype", None))
    factor = factor.reshape((coefs.shape[0],) + (1,) * (x.ndim - 1))
    y = xb.concatenate([x[..., :1] + zi, x[..., 1:]], axis=-1)
    return _doubling_scan(xb, y, factor)

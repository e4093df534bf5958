"""One BLAS thread per OpenBLAS pool, in every process that imports repro.

NumPy and SciPy wheels each bundle their own OpenBLAS (NumPy's
``libscipy_openblas64_``, SciPy's ``libscipy_openblas``), and each sizes
its thread pool to the host's cores.  The ridge β-sweep alternates between
the two libraries, so on a 2-core host four BLAS threads compete for two
cores; and the last bits of a BLAS result depend on its thread count,
hence on the host.  Importing :mod:`repro` therefore calls
:func:`pin_blas_threads`, which sets every OpenBLAS pool the process has
loaded to one thread, and all parallelism comes from the
``CandidateExecutor``.  Worker processes of every start method import
:mod:`repro` before their first BLAS call, so they compute under the same
setting as the main process; that is the precondition of every NumPy
bit-identity claim in ``docs/ARCHITECTURE.md`` ("BLAS threads").

``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` are not consulted: a
pool they sized is set to one thread all the same, so there is one
policy.  A caller who raises a pool after import owns that precondition.

Loaded libraries are found through ``/proc/self/maps`` (Linux).  Where
none is found, on another platform or under a BLAS other than OpenBLAS
such as MKL, nothing is set and :func:`blas_threads` reports no pools.
"""

from __future__ import annotations

import ctypes
import os
import re
from typing import Callable, Dict, Iterator, Tuple

#: (setter, getter) symbol pairs, tried in order on each library: NumPy's
#: ILP64 scipy-openblas, SciPy's LP64 scipy-openblas, the ILP64 OpenBLAS of
#: NumPy 1.x wheels, a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> Dict[str, str]:
    """Pool name (file name up to its first ``-`` or ``.``) -> mapped path.

    A path matches when it names OpenBLAS anywhere, which also covers a
    distribution's ``openblas-pthread/libblas.so.3``.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return {}
    found = {}
    for line in lines:
        if "openblas" in line:  # only the path field of a line can match
            path = line.split(maxsplit=5)[5]
            name = re.match(r"[^-.]*", os.path.basename(path)).group(0)
            found.setdefault(name, path)
    return found


def _pools() -> Iterator[Tuple[str, Callable, Callable]]:
    for name, path in _loaded_openblas().items():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not a loaded shared library
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                yield name, setter, getter
                break


def pin_blas_threads() -> None:
    """Set every OpenBLAS pool this process has loaded to one thread."""
    for _, setter, _ in _pools():
        setter(1)


def blas_threads() -> Dict[str, int]:
    """Current thread count of each loaded OpenBLAS pool, by library name.

    On the NumPy and SciPy wheels this reads
    ``{"libscipy_openblas64_": 1, "libscipy_openblas": 1}`` after
    ``import repro``; ``{}`` when no OpenBLAS is found.
    """
    return {name: int(getter()) for name, _, getter in _pools()}

"""One heap policy, in every process that imports repro.

A grid candidate or a population minibatch allocates the same few
megabytes of arrays again and again: the standardized input and its
drive, the states and pre-activations, the divergence temporaries, the
DPRR features and the ridge temporaries.  Under glibc's defaults most of
them are ``mmap``-ed and returned to the kernel when freed (or freed to
a heap top that is then trimmed), so the next candidate faults the same
amount of memory in on fresh pages: about 73k minor faults per perfbench
``grid`` level (16 candidates), about 30% of its time on a 2-core host.

Importing :mod:`repro` therefore calls :func:`set_heap_policy`, which
sets two glibc ``mallopt`` parameters through ctypes:

* ``M_MMAP_THRESHOLD`` to 32 MiB, the highest value glibc's own dynamic
  threshold can reach on 64-bit, so arrays below it come from the heap;
* ``M_TRIM_THRESHOLD`` to 64 MiB, so up to that much freed memory at the
  heap top stays mapped for the next candidate.

Both are needed: setting either one switches glibc's dynamic threshold
off, and a trim threshold alone leaves the mmap threshold at 128 KiB.
Only where arrays live changes, never their values, so every result keeps
its bits.  Worker processes of every start method import :mod:`repro`
(fork workers inherit the setting), as they do for the BLAS pin in
:mod:`repro.utils.blas`.

``MALLOC_*`` environment variables are not consulted: the policy
overrides what they set, so there is one policy.  A caller who changes
it after import owns that change.  Where ``mallopt`` is missing or
refuses (macOS, musl), nothing is set and :func:`heap_policy` reports
``{}``.  docs/ARCHITECTURE.md ("Heap policy") records the measurements.
"""

from __future__ import annotations

import ctypes
from typing import Dict

#: glibc ``mallopt`` parameter numbers (malloc.h) -> the value set at import
_POLICY = {
    "mmap_threshold": (-3, 32 << 20),  # M_MMAP_THRESHOLD
    "trim_threshold": (-1, 64 << 20),  # M_TRIM_THRESHOLD
}

#: the thresholds that took effect in this process (the allocator is
#: per process, and so is this record)
_applied: Dict[str, int] = {}


def set_heap_policy() -> None:
    """Set glibc's mmap and trim thresholds; a no-op without glibc."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide symbol table (Windows)
        return
    mallopt = getattr(libc, "mallopt", None)
    # the parameter numbers are glibc's; another libc may read them otherwise
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    for name, (param, value) in _POLICY.items():
        if mallopt(param, value) == 1:
            _applied[name] = value


def heap_policy() -> Dict[str, int]:
    """The thresholds :func:`set_heap_policy` set, in bytes, by name.

    Under glibc this reads ``{"mmap_threshold": 33554432,
    "trim_threshold": 67108864}`` after ``import repro``; ``{}`` where
    ``mallopt`` is missing or refuses.
    """
    return dict(_applied)

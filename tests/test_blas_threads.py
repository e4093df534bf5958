"""The BLAS thread contract: one thread per OpenBLAS pool in every process.

``import repro`` sets every loaded OpenBLAS pool to one thread
(``repro.utils.blas``).  These tests pin that the setting reaches the main
process and fork and spawn workers, and that it makes BLAS results
independent of how many cores a process may use.
"""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy

import repro
from repro.utils.blas import blas_threads

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _wheel_openblas(module) -> bool:
    """Whether ``module`` was built against its own bundled scipy-openblas."""
    try:
        config = module.show_config(mode="dicts")
    except TypeError:  # releases without dict-mode build configs
        return False
    return config["Build Dependencies"]["blas"]["name"] == "scipy-openblas"


def test_every_pool_reads_one_after_import():
    pools = blas_threads()
    if _wheel_openblas(np) and _wheel_openblas(scipy):
        assert set(pools) == {"libscipy_openblas64_", "libscipy_openblas"}
    assert all(threads == 1 for threads in pools.values()), pools


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_pools_match_the_main_process(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context(method)
    ) as pool:
        assert pool.submit(blas_threads).result(timeout=120) == blas_threads()


_SELECT_BETA = """
import hashlib, os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from repro.readout.ridge import select_beta
rng = np.random.default_rng(0)
x = rng.normal(size=(270, 930))
coef = select_beta(x, np.arange(270) % 9, seed=0).best_model.coef
print(hashlib.sha256(coef.tobytes()).hexdigest(), coef.sum().hex())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_select_beta_bits_do_not_depend_on_usable_cores():
    """One core or two, a 270x930 ridge selection gives the same bytes."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs at least 2 usable cores")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    one_core, all_cores = (
        subprocess.run(
            [sys.executable, "-c", _SELECT_BETA, cores], env=env,
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout.split()
        for cores in ("1", "all")
    )
    assert one_core == all_cores

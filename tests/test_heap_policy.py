"""The heap policy: freed arrays stay mapped for the next candidate.

``import repro`` sets glibc's mmap and trim thresholds
(``repro.utils.heap``), so a grid candidate or a population minibatch
reuses the pages the last one freed instead of faulting fresh ones in.
These tests pin that the setting is in effect in the main process and in
spawn workers, and that the two hot loops it serves — a grid candidate
(features, then the ridge β-sweep) and a K=8 minibatch fit — run without
page faults once warm.  Without the policy the candidate takes about
2,600 minor faults and the fit thousands.
"""

import multiprocessing
import resource
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.pipeline import DFRFeatureExtractor
from repro.core.population import PopulationTrainer
from repro.core.trainer import TrainerConfig
from repro.readout.ridge import select_beta
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR
from repro.utils.heap import heap_policy

pytestmark = pytest.mark.skipif(not heap_policy(),
                                reason="mallopt missing or refused")

#: a warm repetition may touch a few pages (interpreter bookkeeping);
#: without the policy each takes thousands
MAX_WARM_FAULTS = 100

#: JPVOW's bench shape: 270 series of 28 steps over 12 channels
N_SAMPLES, T_STEPS, N_CHANNELS = 270, 28, 12


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _warm_faults(op) -> int:
    """Minor faults of ``op()`` after one warm-up call."""
    op()
    before = _minor_faults()
    op()
    return _minor_faults() - before


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(N_SAMPLES, T_STEPS, N_CHANNELS))
    return u, np.arange(N_SAMPLES) % 9


def test_import_sets_both_thresholds():
    assert heap_policy() == {"mmap_threshold": 32 << 20,
                             "trim_threshold": 64 << 20}


def test_grid_candidate_reuses_pages(series):
    u, y = series
    extractor = DFRFeatureExtractor(30, seed=0).fit(u)

    def candidate():
        feats, _ = extractor.features(u, 0.2, 0.3)
        assert feats.shape == (N_SAMPLES, 930)
        return select_beta(feats, y, seed=0)

    assert _warm_faults(candidate) < MAX_WARM_FAULTS


def test_population_fit_reuses_pages(series):
    u, y = series
    trainer = PopulationTrainer(
        ModularDFR(InputMask.binary(30, N_CHANNELS, seed=0)), 9,
        config=TrainerConfig(epochs=2, batch_size=16), seed=0)
    a0 = np.linspace(0.01, 0.3, 8)

    def fit():
        return trainer.fit(u, y, a0, a0[::-1])

    assert _warm_faults(fit) < MAX_WARM_FAULTS


def test_spawn_worker_matches_the_main_process():
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("start method 'spawn' unavailable")
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        assert pool.submit(heap_policy).result(timeout=120) == heap_policy()

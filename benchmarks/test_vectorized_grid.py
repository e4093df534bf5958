"""Benchmark: serial vs candidate-axis-vectorized grid search.

Times one full ``d=4`` grid level (16 independent ``(A, B)`` candidates)
through the :class:`~repro.exec.SerialExecutor` (one dispatch per
candidate) and through the :class:`~repro.exec.VectorizedExecutor` (one
fused ``(K, N, ...)`` sweep per block of 16), asserting bit-identical
results and recording both timings plus the speedup ratio in
``extra_info`` so the pytest-benchmark JSON report tracks it across PRs.
Every additional backend available on the host (torch, cupy) gets its own
fused timing recorded alongside.

What to expect from the ratio: the fusion amortizes the per-candidate
standardize/mask/dispatch work, and on NumPy most of the margin is the
identity chain: the fused block's 16 x 90 stacked rows run it as one
recurrence whose per-position Python cost they share, while each serial
candidate's 90 rows (x N_x = 24, below the kernel crossover) stay on
``lfilter`` (docs/ARCHITECTURE.md, "The identity chain").  The
per-candidate ridge/beta fits are inherent.  On a 2-core x86_64 host the
ratio read 1.18-1.59 in six runs of this file alone; with more samples
per candidate the serial path runs the recurrence too and the margin
narrows, and on very long series the stacked trace fights the cache —
tune ``candidate_block_size`` there.  The default floor is therefore a
conservative "measurably faster" gate; ``REPRO_VECTORIZED_SPEEDUP_FLOOR``
overrides it either way, mirroring the other speedup gates on shared
runners.  Accelerator backends are where the fused block pays most — one
resident program instead of K dispatches — which is what the per-backend
``extra_info`` timings track.
"""

import os

from repro.backend import available_backends
from repro.core.grid_search import GridSearch
from repro.core.pipeline import DFRFeatureExtractor
from repro.exec import BackendExecutor, SerialExecutor, VectorizedExecutor

DIVISIONS = 4
BLOCK_SIZE = 16
N_NODES = 24

DEFAULT_FLOOR = "1.02"


def test_vectorized_grid_speedup(benchmark, jpvow_small):
    data = jpvow_small
    extractor = DFRFeatureExtractor(n_nodes=N_NODES, seed=0).fit(data.u_train)

    def run_level(executor):
        grid = GridSearch(extractor, seed=0, executor=executor)
        return grid.run_level(
            data.u_train, data.y_train, data.u_test, data.y_test,
            DIVISIONS, n_classes=data.n_classes,
        )

    # warm both paths once (allocator/cache effects), then time best-of-2
    run_level(SerialExecutor())
    run_level(VectorizedExecutor(block_size=BLOCK_SIZE))
    serial = min((run_level(SerialExecutor()) for _ in range(2)),
                 key=lambda level: level.elapsed_seconds)
    fused = min((run_level(VectorizedExecutor(block_size=BLOCK_SIZE))
                 for _ in range(2)),
                key=lambda level: level.elapsed_seconds)

    # candidate-axis fusion must never change results — bit for bit
    assert fused.evaluations == serial.evaluations
    assert fused.best == serial.best

    speedup = serial.elapsed_seconds / fused.elapsed_seconds
    benchmark.extra_info["divisions"] = DIVISIONS
    benchmark.extra_info["grid_points"] = DIVISIONS * DIVISIONS
    benchmark.extra_info["candidate_block_size"] = BLOCK_SIZE
    benchmark.extra_info["serial_seconds"] = serial.elapsed_seconds
    benchmark.extra_info["fused_seconds_numpy"] = fused.elapsed_seconds
    benchmark.extra_info["speedup_fused_numpy_vs_serial"] = speedup

    # every other importable backend gets its fused-sweep timing recorded
    # (and a serial BackendExecutor timing for the per-backend ratio)
    for name in available_backends():
        if name == "numpy":
            continue
        per_candidate = run_level(BackendExecutor(name))
        fused_backend = run_level(
            VectorizedExecutor(block_size=BLOCK_SIZE, backend=name))
        benchmark.extra_info[f"serial_seconds_{name}"] = (
            per_candidate.elapsed_seconds)
        benchmark.extra_info[f"fused_seconds_{name}"] = (
            fused_backend.elapsed_seconds)
        benchmark.extra_info[f"speedup_fused_{name}_vs_serial_{name}"] = (
            per_candidate.elapsed_seconds / fused_backend.elapsed_seconds)

    level = benchmark.pedantic(
        run_level, args=(VectorizedExecutor(block_size=BLOCK_SIZE),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert level.n_points == DIVISIONS * DIVISIONS

    floor = float(os.environ.get("REPRO_VECTORIZED_SPEEDUP_FLOOR",
                                 DEFAULT_FLOOR))
    assert speedup >= floor, (
        f"fused K={BLOCK_SIZE} grid level only {speedup:.3f}x the serial "
        f"per-candidate dispatch on the NumPy backend (floor {floor})"
    )

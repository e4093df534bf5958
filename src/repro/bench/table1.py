"""Table 1 harness: backpropagation vs grid search, per dataset.

Reproduces the paper's Table 1 protocol end to end:

1. train the full pipeline (25-epoch truncated backprop + ridge/beta
   selection), record test accuracy and wall-clock time;
2. run grid search with divisions 1, 2, 3, ... (cumulative time) until the
   grid-selected configuration reaches the backprop accuracy;
3. report: bp accuracy, bp time, grid divisions, grid time, and the
   gs/bp time ratio.

Absolute times differ from the paper (different machine, synthetic data,
scaled sample counts — see DESIGN.md); the reproduction claim is the
*shape*: grid search pays a rapidly growing multiple of the backprop cost
on datasets that need fine grids, and only the datasets whose coarse grid
already wins (divs = 1) stay at ratio ~1 or below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bench.reporting import format_table
from repro.core.grid_search import GridSearch
from repro.core.pipeline import DFRClassifier, DFRFeatureExtractor
from repro.core.trainer import TrainerConfig
from repro.data.loaders import load_dataset
from repro.data.metadata import N_X_PAPER, PAPER_TABLE1, dataset_keys

__all__ = ["Table1Row", "run_dataset", "run_table1", "format_table1"]


@dataclass
class Table1Row:
    """One measured row of Table 1."""

    dataset: str
    bp_accuracy: float
    bp_seconds: float
    gs_divisions: int
    gs_seconds: float
    gs_accuracy: float
    ratio: float
    gs_reached_target: bool
    #: minibatch size used for the backprop phase (1 = the paper's
    #: per-sample SGD); lets one report compare per-sample vs batched
    #: training throughput
    batch_size: int = 1
    #: worker-process count used for the grid-search phase (1 = serial)
    workers: int = 1
    #: summed per-candidate grid evaluation time across workers;
    #: ``gs_seconds / gs_compute_seconds`` < 1 measures the parallel gain
    gs_compute_seconds: float = 0.0
    #: parameter search of the backprop phase: "backprop" (the paper's
    #: single run) or "descent" (fused population gradient descent)
    search: str = "backprop"
    #: restart count of the descent phase (1 for plain backprop)
    population: int = 1
    #: working float precision the backend phases ran in (the resolved
    #: backend's ``dtype_name``)
    dtype: str = "float64"


def run_dataset(
    key: str,
    *,
    n_nodes: int = N_X_PAPER,
    size_profile: str = "bench",
    seed: int = 0,
    max_divisions: int = 20,
    epochs: int = 25,
    batch_size: int = 1,
    search: str = "backprop",
    population: Optional[int] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> Table1Row:
    """Run the full bp-vs-grid-search protocol on one dataset.

    ``batch_size=1`` reproduces the paper's per-sample SGD timing; larger
    values time the vectorized minibatch engine instead, so two runs of the
    harness report per-sample vs batched training throughput directly.

    ``search="descent"`` replaces the single backprop run with fused
    population gradient descent (``population`` restarts trained as one
    candidate-stacked program; ``None`` defers to ``REPRO_POPULATION``) —
    the "bp" columns then measure the multi-start method, against the same
    grid-search baseline.

    ``workers`` shards the grid-search candidates across processes through
    the shared execution layer (results are bit-identical to serial; only
    the reported wall-clock changes).  ``None`` defers to ``REPRO_WORKERS``.

    ``backend`` selects the array backend for both phases — the batched
    training engine (when ``batch_size > 1``) and every grid candidate's
    reservoir/DPRR sweeps; ``None`` defers to ``REPRO_BACKEND``.  Its
    ``@dtype`` suffix selects their working precision (``"numpy@float32"``),
    and the row records the precision that ran.
    """
    data = load_dataset(key, size_profile=size_profile, seed=seed)

    # --- proposed method: backprop + ridge ---------------------------------
    start = time.perf_counter()
    clf = DFRClassifier(
        n_nodes=n_nodes,
        config=TrainerConfig(epochs=epochs, batch_size=batch_size),
        search=search,
        population=population,
        workers=workers,
        backend=backend,
        seed=seed,
    )
    clf.fit(data.u_train, data.y_train)
    bp_acc = clf.score(data.u_test, data.y_test)
    bp_seconds = time.perf_counter() - start

    # --- baseline: cumulative grid search until parity ----------------------
    # a fresh extractor with the same seed gives the identical mask and
    # standardizer, so both methods see the same feature pipeline
    extractor = DFRFeatureExtractor(n_nodes=n_nodes, seed=seed,
                                    backend=backend).fit(data.u_train)
    grid = GridSearch(extractor, seed=seed, workers=workers, backend=backend)
    outcome = grid.search_until(
        data.u_train,
        data.y_train,
        data.u_test,
        data.y_test,
        target_accuracy=bp_acc,
        max_divisions=max_divisions,
        n_classes=data.n_classes,
    )
    return Table1Row(
        dataset=key,
        bp_accuracy=bp_acc,
        bp_seconds=bp_seconds,
        gs_divisions=outcome.divisions,
        gs_seconds=outcome.total_seconds,
        gs_accuracy=outcome.achieved_accuracy,
        ratio=outcome.total_seconds / bp_seconds if bp_seconds > 0 else float("inf"),
        gs_reached_target=outcome.reached,
        batch_size=batch_size,
        workers=grid.executor.workers,
        gs_compute_seconds=outcome.total_compute_seconds,
        search=search,
        population=(clf.population_.population
                    if clf.population_ is not None else 1),
        dtype=extractor.backend.dtype_name,
    )


def run_table1(
    keys: Optional[Sequence[str]] = None,
    *,
    n_nodes: int = N_X_PAPER,
    size_profile: str = "bench",
    seed: int = 0,
    max_divisions: int = 20,
    epochs: int = 25,
    batch_size: int = 1,
    search: str = "backprop",
    population: Optional[int] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    verbose: bool = True,
) -> List[Table1Row]:
    """Run the Table 1 protocol over a set of datasets (default: all 12)."""
    keys = list(keys) if keys is not None else list(dataset_keys())
    rows = []
    for key in keys:
        if verbose:
            print(f"[table1] running {key} ...", flush=True)
        row = run_dataset(
            key,
            n_nodes=n_nodes,
            size_profile=size_profile,
            seed=seed,
            max_divisions=max_divisions,
            epochs=epochs,
            batch_size=batch_size,
            search=search,
            population=population,
            workers=workers,
            backend=backend,
        )
        if verbose:
            print(
                f"[table1]   bp acc {row.bp_accuracy:.3f} in {row.bp_seconds:.1f}s | "
                f"gs divs {row.gs_divisions} acc {row.gs_accuracy:.3f} in "
                f"{row.gs_seconds:.1f}s | ratio {row.ratio:.1f}x",
                flush=True,
            )
        rows.append(row)
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render measured rows next to the paper's reference values."""
    table_rows = []
    for row in rows:
        paper = PAPER_TABLE1.get(row.dataset)
        paper_divs = paper[2] if paper else "-"
        paper_ratio = paper[4] if paper else "-"
        table_rows.append(
            [
                row.dataset,
                f"{row.bp_accuracy:.3f}",
                f"{row.bp_seconds:.1f}",
                f"{row.batch_size}",
                f"{row.population}",
                f"{row.gs_divisions}{'' if row.gs_reached_target else '+'}",
                f"{row.gs_seconds:.1f}",
                f"{row.workers}",
                f"{row.ratio:.1f}",
                f"{paper_divs}",
                f"{paper_ratio}",
            ]
        )
    dtypes = sorted({row.dtype for row in rows}) or ["float64"]
    return format_table(
        [
            "dataset",
            "bp acc",
            "bp time (s)",
            "bp bs",
            "bp pop",
            "gs divs",
            "gs time (s)",
            "gs wk",
            "(gs)/(bp)",
            "paper divs",
            "paper ratio",
        ],
        table_rows,
        title="Table 1 — backpropagation vs grid search "
        f"[dtype {'/'.join(dtypes)}] "
        "('+' marks grids stopped at the division cap)",
    )

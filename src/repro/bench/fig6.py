"""Fig. 6 harness: the recursive grid-search failure mode on CHAR.

The paper's Fig. 6 shows two grid levels on the CHAR dataset: the coarse
level-1 grid over the full ``(A, B)`` box and the level-2 grid zoomed into
the level-1 winner's cell.  Because the accuracy landscape is rugged, the
zoom can lock onto a region that does *not* contain the globally best
parameters — which is why the paper rejects recursive refinement and uses
exhaustive grids (making grid search expensive, and backprop attractive).

This harness regenerates both heat maps and quantifies the failure: it
compares the level-2 winner against the best point of an exhaustive
reference grid over the full box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bench.reporting import ascii_heatmap
from repro.core.grid_search import GridSearch, RecursiveGridSearch, RecursiveLevel
from repro.core.pipeline import DFRFeatureExtractor
from repro.data.loaders import load_dataset
from repro.data.metadata import N_X_PAPER

__all__ = ["Fig6Result", "run_fig6", "format_fig6"]


@dataclass
class Fig6Result:
    """Outcome of the two-level recursive search plus the reference grid."""

    dataset: str
    levels: List[RecursiveLevel]
    reference_best_accuracy: float
    reference_divisions: int
    zoom_final_accuracy: float

    @property
    def zoom_missed_optimum(self) -> bool:
        """Did recursive refinement end below the exhaustive-grid best?"""
        return self.zoom_final_accuracy < self.reference_best_accuracy - 1e-9

    @property
    def accuracy_gap(self) -> float:
        return self.reference_best_accuracy - self.zoom_final_accuracy


def run_fig6(
    dataset: str = "CHAR",
    *,
    n_nodes: int = N_X_PAPER,
    divisions: int = 5,
    n_levels: int = 2,
    reference_divisions: int = 10,
    size_profile: str = "bench",
    seed: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    verbose: bool = True,
) -> Fig6Result:
    """Run the two-level recursive zoom plus an exhaustive reference grid.

    ``workers`` shards each grid level's candidates across processes
    (bit-identical results; ``None`` defers to ``REPRO_WORKERS``) — the
    ``reference_divisions**2``-point exhaustive grid benefits the most.

    ``backend`` selects the array backend executing every candidate's
    reservoir/DPRR sweeps (``"numpy"``, ``"torch[:device]"``, ``"cupy"``);
    ``None`` defers to ``REPRO_BACKEND``.  It threads through both the
    feature extractor and the search executors, exactly like
    ``repro-bench table1 --backend``; its ``@dtype`` suffix selects the
    sweeps' working precision (``"numpy@float32"``).
    """
    data = load_dataset(dataset, size_profile=size_profile, seed=seed)
    if verbose:
        print(f"[fig6] {data.summary()}", flush=True)
    extractor = DFRFeatureExtractor(n_nodes=n_nodes, seed=seed,
                                    backend=backend).fit(data.u_train)

    recursive = RecursiveGridSearch(extractor, divisions=divisions, seed=seed,
                                    workers=workers, backend=backend)
    levels = recursive.run(
        data.u_train, data.y_train, data.u_test, data.y_test,
        n_levels=n_levels, n_classes=data.n_classes,
    )
    if verbose:
        for i, lvl in enumerate(levels, start=1):
            print(
                f"[fig6] level {i}: best A={lvl.best.A:.4f} B={lvl.best.B:.4f} "
                f"test acc {lvl.best.test_accuracy:.3f}",
                flush=True,
            )

    reference = GridSearch(extractor, seed=seed + 1, workers=workers,
                           backend=backend)
    ref_level = reference.run_level(
        data.u_train, data.y_train, data.u_test, data.y_test,
        reference_divisions, n_classes=data.n_classes,
    )
    ref_best_acc = max(ev.test_accuracy for ev in ref_level.evaluations)
    return Fig6Result(
        dataset=dataset,
        levels=levels,
        reference_best_accuracy=ref_best_acc,
        reference_divisions=reference_divisions,
        zoom_final_accuracy=levels[-1].best.test_accuracy,
    )


def format_fig6(result: Fig6Result) -> str:
    """Render both grid levels as heat maps plus the failure summary."""
    chunks = []
    for i, lvl in enumerate(result.levels, start=1):
        row_labels = [f"{a:.4f}" for a in lvl.a_values]
        col_labels = [f"{b:.4f}" for b in lvl.b_values]
        chunks.append(
            ascii_heatmap(
                lvl.accuracy_matrix,
                row_labels=row_labels,
                col_labels=col_labels,
                title=(
                    f"Fig. 6 ({result.dataset}) — grid level {i}: test accuracy "
                    f"over A (rows) x B (cols); '*' = selected"
                ),
                mark=lvl.best_index,
            )
        )
    verdict = (
        f"recursive zoom final accuracy: {result.zoom_final_accuracy:.3f} vs "
        f"exhaustive {result.reference_divisions}x{result.reference_divisions} "
        f"grid best: {result.reference_best_accuracy:.3f} -> "
        + (
            "zoom MISSED the global optimum (the paper's Fig. 6 failure mode)"
            if result.zoom_missed_optimum
            else "zoom found the optimum on this draw"
        )
    )
    chunks.append(verdict)
    return "\n\n".join(chunks)

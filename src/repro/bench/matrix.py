"""Scenario-matrix benchmark: registry specs x backends x executors x searches.

The per-harness benchmarks (``table1``, ``fig6``, ``serve``) each fix the
workload and sweep one implementation axis.  This harness is the cross
product: every *cell* is one dataset spec from the generator registry
(:mod:`repro.data.registry`) evaluated under one array backend, one
candidate executor, and one parameter search, all sharing the seed and the
selection protocol — so a single run answers "does the story hold across
workloads?" with one comparable table.

Determinism contract: on the NumPy backend every cell's scores are a pure
function of ``(spec, search, seed)`` — the executor axis changes only the
timing columns (serial and vectorized execution are bit-identical; see
``tests/test_bench_harnesses.py``).  The JSON report is versioned the same
way as dataset specs and model envelopes, and feeds
``tools/bench_history.py --suite matrix``.

Spec-argument grammar (``parse_spec_arg``)::

    harmonic                          registry generator, defaults
    harmonic:n_classes=2,seed=5       override params (and the seed)
    drift:base.name=harmonic,base.params.n_classes=2,gain_depth=0.3
                                      dotted keys build nested dicts
    LIB                               a paper dataset key -> spec_for_dataset

Values go through ``json.loads`` where possible (``2`` is an int, ``0.3``
a float, ``true`` a bool, ``null`` None) and fall back to plain strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.reporting import format_table
from repro.core.grid_search import GridSearch
from repro.core.hyperopt import (
    PopulationDescent,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.core.pipeline import DFRFeatureExtractor
from repro.core.trainer import TrainerConfig
from repro.data.metadata import dataset_keys
from repro.data.registry import (
    GeneratorSpec,
    dataset_from_spec,
    get_generator,
    make_spec,
    spec_for_dataset,
)
from repro.utils.validation import check_document

__all__ = [
    "MATRIX_FORMAT",
    "MATRIX_FORMAT_VERSION",
    "MATRIX_SEARCHES",
    "MatrixCell",
    "parse_spec_arg",
    "run_matrix",
    "format_matrix",
    "compare_matrix_reports",
    "format_matrix_compare",
]

MATRIX_FORMAT = "repro-matrix-report"
MATRIX_FORMAT_VERSION = 1

_REPORT_KEYS = {"format", "format_version", "seed", "budget", "divisions",
                "n_nodes", "epochs", "specs", "backends", "executors",
                "searches", "cells"}

#: parameter searches a cell can run; all share the evaluation protocol
#: (holdout beta selection, then a test score) so their columns compare
MATRIX_SEARCHES = ("grid", "random", "anneal", "descent")


def _parse_value(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def parse_spec_arg(text: str, *, default_seed: int = 0) -> GeneratorSpec:
    """Parse one ``--specs`` argument into a :class:`GeneratorSpec`.

    See the module docstring for the grammar.  A bare paper dataset key
    (e.g. ``LIB``) resolves through :func:`spec_for_dataset`; anything
    else must name a registered generator, optionally followed by
    ``:key=value,...`` overrides where dotted keys build nested dicts and
    the pseudo-param ``seed`` sets the spec seed.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty dataset spec argument")
    name, _, params_text = text.partition(":")
    name = name.strip()
    if name in dataset_keys():
        if params_text:
            raise ValueError(
                f"paper dataset key {name!r} takes no parameters "
                f"(got {params_text!r}); use a generator name to customize"
            )
        return spec_for_dataset(name, seed=default_seed)
    params: Dict[str, object] = {}
    seed = default_seed
    if params_text:
        for item in params_text.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value_text = item.partition("=")
            if not eq:
                raise ValueError(
                    f"malformed spec parameter {item!r} (expected key=value)"
                )
            key = key.strip()
            value = _parse_value(value_text.strip())
            if key == "seed":
                seed = int(value)
                continue
            node = params
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ValueError(
                        f"spec parameter {key!r} descends into non-dict "
                        f"{part!r}"
                    )
            node[parts[-1]] = value
    return make_spec(name, seed=seed, **params)


@dataclass
class MatrixCell:
    """One (spec, backend, executor, search) evaluation."""

    spec: str               # GeneratorSpec.label()
    backend: str
    executor: str
    search: str
    val_accuracy: float
    test_accuracy: float
    best_A: float
    best_B: float
    best_beta: float
    diverged: bool
    n_evaluations: int
    total_seconds: float
    compute_seconds: float
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "backend": self.backend,
            "executor": self.executor,
            "search": self.search,
            "val_accuracy": self.val_accuracy,
            "test_accuracy": self.test_accuracy,
            "best_A": self.best_A,
            "best_B": self.best_B,
            "best_beta": self.best_beta,
            "diverged": self.diverged,
            "n_evaluations": self.n_evaluations,
            "total_seconds": self.total_seconds,
            "compute_seconds": self.compute_seconds,
            "error": self.error,
        }


def _backend_label(xb) -> str:
    """``name[:device][@dtype]`` of the backend that ran a cell.

    The device is left off on the CPU and the dtype at float64, so a
    default NumPy cell keeps the label ``numpy`` of older reports.
    """
    label = xb.name
    if xb.device not in (None, "cpu"):
        label += f":{xb.device}"
    if xb.dtype_name != "float64":
        label += f"@{xb.dtype_name}"
    return label


def _run_cell(
    data,
    spec_label: str,
    backend: Optional[str],
    executor: str,
    search: str,
    *,
    budget: int,
    divisions: int,
    n_nodes: int,
    epochs: int,
    seed: int,
) -> MatrixCell:
    extractor = DFRFeatureExtractor(
        n_nodes, seed=seed, backend=backend
    ).fit(data.u_train)
    label = _backend_label(extractor.backend)
    common = dict(seed=seed, backend=backend, executor_kind=executor)
    if search == "grid":
        level = GridSearch(extractor, **common).run_level(
            data.u_train, data.y_train, data.u_test, data.y_test,
            divisions, n_classes=data.n_classes,
        )
        best = level.best
        evaluations = level.evaluations
        total_seconds = level.elapsed_seconds
        compute_seconds = level.compute_seconds
    else:
        if search == "random":
            outcome = RandomSearch(extractor, **common).search(
                data.u_train, data.y_train, data.u_test, data.y_test,
                n_samples=budget, n_classes=data.n_classes,
            )
        elif search == "anneal":
            outcome = SimulatedAnnealing(extractor, **common).search(
                data.u_train, data.y_train, data.u_test, data.y_test,
                n_steps=budget, n_classes=data.n_classes,
            )
        elif search == "descent":
            outcome = PopulationDescent(
                extractor,
                trainer_config=TrainerConfig(epochs=epochs, batch_size=8),
                **common,
            ).search(
                data.u_train, data.y_train, data.u_test, data.y_test,
                population=budget, n_classes=data.n_classes,
            )
        else:
            known = ", ".join(MATRIX_SEARCHES)
            raise ValueError(f"unknown search {search!r}; known: {known}")
        best = outcome.best
        evaluations = outcome.evaluations
        total_seconds = outcome.total_seconds
        compute_seconds = outcome.compute_seconds
    if best is None:  # pragma: no cover - every candidate failed
        return MatrixCell(
            spec=spec_label, backend=label, executor=executor,
            search=search, val_accuracy=0.0, test_accuracy=0.0,
            best_A=float("nan"), best_B=float("nan"),
            best_beta=float("nan"), diverged=True,
            n_evaluations=len(evaluations), total_seconds=total_seconds,
            compute_seconds=compute_seconds, error="no candidate scored",
        )
    return MatrixCell(
        spec=spec_label,
        backend=label,
        executor=executor,
        search=search,
        val_accuracy=float(best.val_accuracy),
        test_accuracy=float(best.test_accuracy),
        best_A=float(best.A),
        best_B=float(best.B),
        best_beta=float(best.beta),
        diverged=bool(best.diverged),
        n_evaluations=len(evaluations),
        total_seconds=float(total_seconds),
        compute_seconds=float(compute_seconds),
        error=best.error,
    )


def run_matrix(
    specs: Sequence[GeneratorSpec],
    *,
    backends: Sequence[Optional[str]] = (None,),
    executors: Sequence[str] = ("serial",),
    searches: Sequence[str] = ("random",),
    budget: int = 8,
    divisions: int = 4,
    n_nodes: int = 30,
    epochs: int = 5,
    seed: int = 0,
) -> dict:
    """Run the full scenario matrix and return a versioned report dict.

    Every cell rebuilds its extractor and search from ``seed``, so cells
    are independent: reordering or subsetting the axes never changes any
    cell's scores, and on NumPy the executor axis is score-invariant (it
    only moves the timing columns).

    ``budget`` is the per-cell search budget — samples for ``random``,
    steps for ``anneal``, restarts for ``descent`` — while ``grid`` uses
    ``divisions``^2 points.
    """
    if not specs:
        raise ValueError("need at least one dataset spec")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if divisions < 2:
        raise ValueError(f"divisions must be >= 2, got {divisions}")
    for search in searches:
        if search not in MATRIX_SEARCHES:
            known = ", ".join(MATRIX_SEARCHES)
            raise ValueError(f"unknown search {search!r}; known: {known}")
    cells: List[MatrixCell] = []
    # per requested backend, the label of the backend its cells ran on
    labels: List[Optional[str]] = [None] * len(backends)
    for spec in specs:
        get_generator(spec.name)  # fail fast on an unknown generator
        data = dataset_from_spec(spec)
        for i, backend in enumerate(backends):
            for executor in executors:
                for search in searches:
                    cell = _run_cell(
                        data, spec.label(), backend, executor, search,
                        budget=budget, divisions=divisions,
                        n_nodes=n_nodes, epochs=epochs, seed=seed,
                    )
                    labels[i] = cell.backend
                    cells.append(cell)
    return {
        "format": MATRIX_FORMAT,
        "format_version": MATRIX_FORMAT_VERSION,
        "seed": int(seed),
        "budget": int(budget),
        "divisions": int(divisions),
        "n_nodes": int(n_nodes),
        "epochs": int(epochs),
        "specs": [spec.to_dict() for spec in specs],
        "backends": labels,
        "executors": list(executors),
        "searches": list(searches),
        "cells": [cell.to_dict() for cell in cells],
    }


def _validate_matrix_report(report: dict, which: str) -> None:
    """Refuse anything but a well-formed matrix-report envelope."""
    check_document(report, _REPORT_KEYS, what=f"{which} matrix report",
                   fmt=MATRIX_FORMAT, version=MATRIX_FORMAT_VERSION)
    if not isinstance(report["cells"], list):
        raise ValueError(f"{which} report has no 'cells' list")


def _cell_key(cell: dict) -> tuple:
    return (cell["spec"], cell["backend"], cell["executor"], cell["search"])


def compare_matrix_reports(old: dict, new: dict, *,
                           accuracy_floor: float = 0.05,
                           time_floor: float = 0.5) -> dict:
    """Cell-by-cell diff of two matrix reports (``repro-bench matrix``).

    Cells match on ``(spec, backend, executor, search)``.  A matched cell
    *regresses* when its test accuracy drops by more than
    ``accuracy_floor`` (absolute), or when it slows down by more than
    ``time_floor`` (fractional: 0.5 allows up to 1.5x the old wall time —
    generous because CI timing is noisy), or when it newly reports an
    error.  Added/removed cells are listed but are not regressions; cells
    that errored in *both* runs are skipped.  Returns a JSON-ready dict
    whose ``regressions`` list is the exit-status signal.
    """
    _validate_matrix_report(old, "old")
    _validate_matrix_report(new, "new")
    for name, value in (("accuracy_floor", accuracy_floor),
                        ("time_floor", time_floor)):
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    old_cells = {_cell_key(c): c for c in old["cells"]}
    new_cells = {_cell_key(c): c for c in new["cells"]}
    added = sorted(set(new_cells) - set(old_cells))
    removed = sorted(set(old_cells) - set(new_cells))
    rows: List[dict] = []
    regressions: List[str] = []
    for key in sorted(set(old_cells) & set(new_cells)):
        o, n = old_cells[key], new_cells[key]
        label = "/".join(key)
        if o.get("error") and n.get("error"):
            continue  # broken on both sides; nothing comparable
        if n.get("error"):
            regressions.append(f"{label}: now errors ({n['error']})")
            rows.append({"key": list(key), "error": n["error"]})
            continue
        if o.get("error"):
            rows.append({"key": list(key), "recovered": True})
            continue
        acc_delta = n["test_accuracy"] - o["test_accuracy"]
        val_delta = n["val_accuracy"] - o["val_accuracy"]
        ratio = (n["total_seconds"] / o["total_seconds"]
                 if o["total_seconds"] > 0 else 1.0)
        row = {
            "key": list(key),
            "old_test_accuracy": o["test_accuracy"],
            "new_test_accuracy": n["test_accuracy"],
            "test_accuracy_delta": acc_delta,
            "val_accuracy_delta": val_delta,
            "old_seconds": o["total_seconds"],
            "new_seconds": n["total_seconds"],
            "time_ratio": ratio,
        }
        if acc_delta < -accuracy_floor:
            regressions.append(
                f"{label}: test accuracy {o['test_accuracy']:.3f} -> "
                f"{n['test_accuracy']:.3f} (drop {-acc_delta:.3f} > floor "
                f"{accuracy_floor:.3f})"
            )
        if ratio > 1.0 + time_floor:
            regressions.append(
                f"{label}: wall time {o['total_seconds']:.3f}s -> "
                f"{n['total_seconds']:.3f}s ({ratio:.2f}x > allowed "
                f"{1.0 + time_floor:.2f}x)"
            )
        rows.append(row)
    return {
        "matched": len(rows),
        "added": ["/".join(k) for k in added],
        "removed": ["/".join(k) for k in removed],
        "accuracy_floor": float(accuracy_floor),
        "time_floor": float(time_floor),
        "cells": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def format_matrix_compare(diff: dict) -> str:
    """Render a :func:`compare_matrix_reports` diff for the console."""
    headers = ("dataset spec", "backend", "executor", "search",
               "test acc old", "new", "delta", "time old s", "new s",
               "ratio")
    rows = []
    for cell in diff["cells"]:
        key = cell["key"]
        if "error" in cell or "recovered" in cell:
            status = (f"ERROR: {cell['error']}" if "error" in cell
                      else "recovered")
            rows.append(tuple(key) + (status, "", "", "", "", ""))
            continue
        rows.append(tuple(key) + (
            f"{cell['old_test_accuracy']:.3f}",
            f"{cell['new_test_accuracy']:.3f}",
            f"{cell['test_accuracy_delta']:+.3f}",
            f"{cell['old_seconds']:.3f}",
            f"{cell['new_seconds']:.3f}",
            f"{cell['time_ratio']:.2f}x",
        ))
    title = (
        f"Matrix compare — {diff['matched']} matched cell(s), "
        f"{len(diff['added'])} added, {len(diff['removed'])} removed"
    )
    lines = [format_table(headers, rows, title=title)]
    for name in ("added", "removed"):
        if diff[name]:
            lines.append(f"  {name}: " + ", ".join(diff[name]))
    if diff["regressions"]:
        lines.append("REGRESSIONS:")
        lines.extend(f"  - {msg}" for msg in diff["regressions"])
    else:
        lines.append(
            f"no regressions (accuracy floor {diff['accuracy_floor']:.3f}, "
            f"time floor {diff['time_floor']:.2f})"
        )
    return "\n".join(lines)


def format_matrix(report: dict) -> str:
    """Render a matrix report as the standard fixed-width table."""
    headers = ("dataset spec", "backend", "executor", "search",
               "val acc", "test acc", "best A", "best B", "evals",
               "wall s")
    rows = []
    for cell in report["cells"]:
        rows.append((
            cell["spec"], cell["backend"], cell["executor"], cell["search"],
            cell["val_accuracy"], cell["test_accuracy"],
            f"{cell['best_A']:.4g}", f"{cell['best_B']:.4g}",
            cell["n_evaluations"], cell["total_seconds"],
        ))
    title = (
        f"Scenario matrix — seed {report['seed']}, budget "
        f"{report['budget']}, {len(report['cells'])} cells"
    )
    return format_table(headers, rows, title=title)

"""Self-tests of the benchmark harness (seconds, not a measurement).

Run with the rest of the suite: ``PYTHONPATH=src python -m pytest -q
perfbench``.  The workloads run in-process at the ``tiny`` size.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import perf_child
import perf_trace
import run

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("REPRO_") or key in run.THREAD_VARS:
            monkeypatch.delenv(key)


def _spans(rows):
    """Arrays of :meth:`Tracer.arrays` from ``(name, parent, rep, outer,
    start, end)`` rows."""
    cols = list(zip(*rows))
    return {
        "name": np.array(cols[0], dtype=np.int32),
        "parent": np.array(cols[1], dtype=np.int32),
        "rep": np.array(cols[2], dtype=np.int32),
        "outer": np.array(cols[3], dtype=bool),
        "start": np.array(cols[4], dtype=float),
        "end": np.array(cols[5], dtype=float),
    }


def test_self_time_on_a_hand_built_span_tree():
    names = ["fit", "run", "filter"]
    spans = _spans([
        # set-up: fit [0, 10] > run [1, 4] > filter [2, 3]
        (0, -1, -1, True, 0.0, 10.0),
        (1, 0, -1, True, 1.0, 4.0),
        (2, 1, -1, True, 2.0, 3.0),
        # repetition 0: run [20, 26] > run [21, 23] (same name, nested)
        (1, -1, 0, True, 20.0, 26.0),
        (1, 3, 0, False, 21.0, 23.0),
        # repetition 1: run [30, 32] > filter [30.5, 31]
        (1, -1, 1, True, 30.0, 32.0),
        (2, 5, 1, True, 30.5, 31.0),
    ])
    m = perf_trace.span_metrics(names, spans, n_reps=2)
    assert m["fit.calls"] == 1 and m["fit.s"] == 10.0
    assert m["fit.self_s"] == 10.0 - 3.0
    # set-up counts once, the two repetitions are averaged; the nested
    # same-name span adds no call and no inclusive time
    assert m["run.calls"] == 1 + 2 / 2
    assert m["run.s"] == 3.0 + (6.0 + 2.0) / 2
    assert m["run.self_s"] == 2.0 + ((6.0 - 2.0) + 2.0 + (2.0 - 0.5)) / 2
    assert m["filter.calls"] == 1 + 1 / 2
    assert m["filter.self_s"] == 1.0 + 0.5 / 2


def test_printed_metric_names_equal_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(
        run.END_TO_END_NAMES)
    assert [m["unit"] for m in bench["end_to_end"]] == [
        unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == (
        perf_trace.per_layer_names())
    assert [m["unit"] for m in bench["per_layer"]] == [
        perf_trace.per_layer_unit(m["name"]) for m in bench["per_layer"]]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(perf_child.WORKLOADS)


def test_clean_env_drops_knobs_and_thread_counts(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    env = run.clean_env()
    assert "REPRO_WORKERS" not in env and "OPENBLAS_NUM_THREADS" not in env
    assert env["PYTHONPATH"] == os.path.join(run.ROOT, "src")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload, tmp_path, clean_env):
    kw = dict(size="tiny", outdir=str(tmp_path))
    perf_child.run_workload(workload, 0, 0.0, mode="prep", **kw)
    res = perf_child.run_workload(workload, 0, 0.0, mode="main", **kw)
    assert res["failures"] == []
    timed = res["timed"]
    assert timed["attempted"] >= 1 and timed["failed"] == 0
    for name in ("ops_per_s", "op_p50_ms", "cold_ms", "test_acc"):
        assert timed[name][0] > 0, name
    assert res["setup_s"] > 0 and res["peak_rss_mb"] > 0


def test_traced_smoke_run_restores_the_package(tmp_path, clean_env):
    import repro.core.grid_search
    import repro.core.pipeline
    import repro.readout.ridge

    select_beta = repro.readout.ridge.select_beta
    run_level = repro.core.grid_search.GridSearch.run_level
    res = perf_child.run_workload("grid", 0, 0.0, mode="main", trace=True,
                                  size="tiny", outdir=str(tmp_path))
    assert res["failures"] == []
    layers = res["per_layer"]
    assert set(perf_trace.per_layer_names()) - set(layers) == {
        "serve.gen_lag_p99_ms", "trace_overhead_frac"}
    # one d=2 level per repetition: 4 candidates, each calling select_beta
    # through the name repro.core.pipeline imported
    assert layers["core.grid_level.calls"] == 1
    assert layers["exec.candidates"] == 4
    assert layers["readout.ridge_select.calls"] == 4
    assert layers["data.load.calls"] == 1
    assert os.path.exists(res["spans_path"])
    assert repro.readout.ridge.select_beta is select_beta
    assert repro.core.pipeline.select_beta is select_beta
    assert repro.core.grid_search.GridSearch.run_level is run_level

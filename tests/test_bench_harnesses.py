"""Unit tests for the bench harness logic (fast paths only).

Full-scale harness runs are exercised via ``repro-bench`` and the
pytest-benchmark suite; here we test the pure logic: row assembly, paper
comparison, formatting, and the CLI parser.
"""

import copy
import json

import pytest

from repro.bench.__main__ import build_parser
from repro.bench.fig6 import Fig6Result
from repro.bench.matrix import (
    MATRIX_FORMAT,
    MATRIX_FORMAT_VERSION,
    compare_matrix_reports,
    format_matrix,
    format_matrix_compare,
    parse_spec_arg,
    run_matrix,
)
from repro.bench.serve import run_serve_bench
from repro.bench.table1 import Table1Row, format_table1, run_dataset
from repro.bench.table2 import format_table2, run_table2
from repro.data.metadata import PAPER_TABLE2, dataset_keys
from repro.data.registry import spec_for_dataset


class TestTable2Harness:
    def test_all_rows_match_paper(self):
        rows = run_table2()
        assert [r.dataset for r in rows] == list(dataset_keys())
        assert all(r.matches_paper for r in rows)

    def test_subset_selection(self):
        rows = run_table2(["LIB", "WAF"])
        assert [r.dataset for r in rows] == ["LIB", "WAF"]

    def test_window_changes_simplified_column(self):
        base = run_table2(["ECG"])[0]
        wider = run_table2(["ECG"], window=8)[0]
        assert wider.simplified > base.simplified
        assert wider.naive == base.naive
        assert not wider.matches_paper  # paper's column is window=1

    def test_formatting_flags_mismatches(self):
        rows = run_table2(["ECG"], window=8)
        text = format_table2(rows)
        assert "MISMATCH" in text
        assert "0/1 rows match" in text

    def test_paper_reference_complete(self):
        assert set(PAPER_TABLE2) == set(dataset_keys())


class TestTable1Formatting:
    def _row(self, **overrides):
        defaults = dict(
            dataset="LIB",
            bp_accuracy=0.81,
            bp_seconds=12.0,
            gs_divisions=18,
            gs_seconds=8423.0,
            gs_accuracy=0.81,
            ratio=700.0,
            gs_reached_target=True,
        )
        defaults.update(overrides)
        return Table1Row(**defaults)

    def test_contains_measured_and_paper_columns(self):
        text = format_table1([self._row()])
        assert "LIB" in text
        assert "0.810" in text
        assert "700.0" in text
        assert "701.9" in text  # the paper's reference ratio for LIB

    def test_cap_marker(self):
        text = format_table1([self._row(gs_reached_target=False,
                                        gs_divisions=20)])
        assert "20+" in text

    def test_unknown_dataset_tolerated(self):
        text = format_table1([self._row(dataset="TOY")])
        assert "TOY" in text and "-" in text


class TestReportedPrecision:
    """Reports name the precision of the backend that ran, whether the
    spec arrives as ``backend=`` or only through ``REPRO_BACKEND``."""

    def test_table1_row(self, float32_spec):
        row = run_dataset("JPVOW", epochs=1, max_divisions=1, batch_size=16,
                          backend=float32_spec)
        assert row.dtype == "float32"
        assert "[dtype float32]" in format_table1([row])

    def test_serve_report(self, float32_spec):
        result = run_serve_bench(streams=4, chunks_per_session=2,
                                 chunk_len=16, n_nodes=6, repeats=1,
                                 deadline_rate_hz=200.0, backend=float32_spec)
        assert result["backend"] == "numpy:cpu"
        assert result["dtype"] == "float32"

    def test_matrix_cells(self, float32_spec):
        report = run_matrix(TestMatrixHarness.SPECS[:1],
                            backends=(float32_spec,), budget=1, n_nodes=4)
        assert report["backends"] == ["numpy@float32"]
        assert [c["backend"] for c in report["cells"]] == ["numpy@float32"]

    def test_matrix_default_label_is_numpy(self, monkeypatch):
        # older matrix histories key their cells on this label
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        report = run_matrix(TestMatrixHarness.SPECS[:1], budget=1, n_nodes=4)
        assert report["backends"] == ["numpy"]
        assert [c["backend"] for c in report["cells"]] == ["numpy"]


class TestFig6Result:
    def test_missed_optimum_logic(self):
        result = Fig6Result(
            dataset="CHAR", levels=[], reference_best_accuracy=0.95,
            reference_divisions=10, zoom_final_accuracy=0.80,
        )
        assert result.zoom_missed_optimum
        assert result.accuracy_gap == pytest.approx(0.15)
        found = Fig6Result(
            dataset="CHAR", levels=[], reference_best_accuracy=0.95,
            reference_divisions=10, zoom_final_accuracy=0.95,
        )
        assert not found.zoom_missed_optimum


class TestParseSpecArg:
    def test_bare_generator(self):
        spec = parse_spec_arg("harmonic")
        assert spec.name == "harmonic" and spec.params == {} and spec.seed == 0

    def test_params_and_seed(self):
        spec = parse_spec_arg("harmonic:n_classes=2,noise=0.1,seed=5")
        assert spec.params == {"n_classes": 2, "noise": 0.1}
        assert isinstance(spec.params["n_classes"], int)
        assert spec.seed == 5

    def test_dotted_keys_nest(self):
        spec = parse_spec_arg(
            "drift:base.name=harmonic,base.params.n_classes=2,gain_depth=0.3"
        )
        assert spec.params["base"] == {"name": "harmonic",
                                      "params": {"n_classes": 2}}
        assert spec.params["gain_depth"] == 0.3

    def test_paper_key_resolves(self):
        assert parse_spec_arg("LIB", default_seed=3) == spec_for_dataset(
            "LIB", seed=3
        )

    def test_paper_key_takes_no_params(self):
        with pytest.raises(ValueError, match="no parameters"):
            parse_spec_arg("LIB:n_classes=2")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_spec_arg("")
        with pytest.raises(ValueError, match="key=value"):
            parse_spec_arg("harmonic:oops")
        with pytest.raises(KeyError):
            parse_spec_arg("no_such_generator")
        with pytest.raises(ValueError, match="unknown param"):
            parse_spec_arg("harmonic:wavelength=2")


class TestMatrixHarness:
    """Smoke-scale scenario matrix: 2 specs x 2 executors, random search."""

    SPECS = [
        parse_spec_arg("harmonic:n_classes=2,n_train=12,n_test=12,length=16"),
        parse_spec_arg("regime:n_classes=2,n_train=12,n_test=12,length=16"),
    ]

    @pytest.fixture(scope="class")
    def report(self):
        return run_matrix(
            self.SPECS, executors=("serial", "vectorized"),
            searches=("random",), budget=3, n_nodes=10, seed=0,
        )

    def test_versioned_schema(self, report):
        assert report["format"] == MATRIX_FORMAT
        assert report["format_version"] == MATRIX_FORMAT_VERSION
        assert len(report["cells"]) == 4  # 2 specs x 2 executors x 1 search
        for cell in report["cells"]:
            assert set(cell) == {
                "spec", "backend", "executor", "search", "val_accuracy",
                "test_accuracy", "best_A", "best_B", "best_beta",
                "diverged", "n_evaluations", "total_seconds",
                "compute_seconds", "error",
            }
            assert cell["n_evaluations"] == 3
        # the report is JSON-serializable as-is
        json.dumps(report)

    def test_executor_axis_is_score_invariant(self, report):
        by_exec = {}
        for cell in report["cells"]:
            by_exec.setdefault(cell["executor"], []).append(cell)
        for serial, vectorized in zip(by_exec["serial"],
                                      by_exec["vectorized"]):
            assert serial["spec"] == vectorized["spec"]
            for field in ("val_accuracy", "test_accuracy", "best_A",
                          "best_B", "best_beta", "diverged"):
                assert serial[field] == vectorized[field], field

    def test_deterministic_under_fixed_seed(self, report):
        again = run_matrix(
            self.SPECS, executors=("serial", "vectorized"),
            searches=("random",), budget=3, n_nodes=10, seed=0,
        )

        def strip(r):
            r = copy.deepcopy(r)
            for cell in r["cells"]:
                cell.pop("total_seconds")
                cell.pop("compute_seconds")
            return r

        assert strip(again) == strip(report)

    def test_formatting(self, report):
        text = format_matrix(report)
        assert "dataset spec" in text and "serial" in text
        assert "harmonic" in text and "regime" in text

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            run_matrix([])
        with pytest.raises(ValueError, match="unknown search"):
            run_matrix(self.SPECS, searches=("bogus",))
        with pytest.raises(ValueError, match="budget"):
            run_matrix(self.SPECS, budget=0)


def _matrix_report(cells):
    """A minimal well-formed matrix report around the given cells."""
    return {
        "format": MATRIX_FORMAT,
        "format_version": MATRIX_FORMAT_VERSION,
        "seed": 0, "budget": 3, "divisions": 4, "n_nodes": 10, "epochs": 1,
        "specs": [], "backends": ["numpy"], "executors": ["serial"],
        "searches": ["random"],
        "cells": cells,
    }


def _cell(spec="harmonic#0", *, test=0.9, val=0.9, seconds=1.0, error=None,
          executor="serial"):
    return {
        "spec": spec, "backend": "numpy", "executor": executor,
        "search": "random", "val_accuracy": val, "test_accuracy": test,
        "best_A": 0.4, "best_B": 0.5, "best_beta": 1e-2, "diverged": False,
        "n_evaluations": 3, "total_seconds": seconds,
        "compute_seconds": seconds, "error": error,
    }


class TestMatrixCompare:
    def test_clean_diff_is_ok(self):
        old = _matrix_report([_cell(test=0.90, seconds=1.0)])
        new = _matrix_report([_cell(test=0.92, seconds=1.1)])
        diff = compare_matrix_reports(old, new)
        assert diff["ok"] and diff["regressions"] == []
        assert diff["matched"] == 1
        (row,) = diff["cells"]
        assert row["test_accuracy_delta"] == pytest.approx(0.02)
        assert row["time_ratio"] == pytest.approx(1.1)
        json.dumps(diff)  # JSON-ready as-is

    def test_accuracy_regression_beyond_floor(self):
        old = _matrix_report([_cell(test=0.90)])
        new = _matrix_report([_cell(test=0.80)])
        diff = compare_matrix_reports(old, new, accuracy_floor=0.05)
        assert not diff["ok"]
        assert any("test accuracy" in msg for msg in diff["regressions"])
        # the same drop passes under a wider floor
        assert compare_matrix_reports(old, new, accuracy_floor=0.2)["ok"]

    def test_timing_regression_beyond_floor(self):
        old = _matrix_report([_cell(seconds=1.0)])
        new = _matrix_report([_cell(seconds=2.0)])
        diff = compare_matrix_reports(old, new, time_floor=0.5)
        assert not diff["ok"]
        assert any("wall time" in msg for msg in diff["regressions"])
        assert compare_matrix_reports(old, new, time_floor=1.5)["ok"]

    def test_added_removed_and_errors(self):
        old = _matrix_report([_cell("a#0"), _cell("b#0"),
                              _cell("both_broken#0", error="boom")])
        new = _matrix_report([_cell("a#0", error="exploded"), _cell("c#0"),
                              _cell("both_broken#0", error="boom")])
        diff = compare_matrix_reports(old, new)
        assert diff["added"] == ["c#0/numpy/serial/random"]
        assert diff["removed"] == ["b#0/numpy/serial/random"]
        # newly erroring cell is a regression; error-on-both is skipped
        assert not diff["ok"]
        assert any("now errors" in msg for msg in diff["regressions"])

    def test_envelope_is_strict(self):
        good = _matrix_report([_cell()])
        with pytest.raises(ValueError, match="format"):
            compare_matrix_reports({"format": "other"}, good)
        with pytest.raises(ValueError, match="format_version"):
            compare_matrix_reports(
                {**good, "format_version": 99}, good)
        with pytest.raises(TypeError, match="dict"):
            compare_matrix_reports([], good)
        with pytest.raises(ValueError, match="accuracy_floor"):
            compare_matrix_reports(good, good, accuracy_floor=-1.0)

    def test_formatting(self):
        old = _matrix_report([_cell(test=0.90)])
        new = _matrix_report([_cell(test=0.70)])
        text = format_matrix_compare(compare_matrix_reports(old, new))
        assert "REGRESSIONS" in text and "test accuracy" in text
        ok_text = format_matrix_compare(compare_matrix_reports(old, old))
        assert "no regressions" in ok_text


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--datasets", "LIB", "JPVOW"])
        assert args.command == "table1"
        assert args.datasets == ["LIB", "JPVOW"]
        args = parser.parse_args(["table2", "--window", "4"])
        assert args.window == 4
        args = parser.parse_args(["fig6", "--divisions", "3"])
        assert args.divisions == 3
        for cmd in ("ablation-truncation", "ablation-nonlinearity",
                    "ablation-bitwidth", "ablation-optimizer", "all"):
            assert build_parser().parse_args([cmd]).command == cmd

    def test_parser_matrix_command(self):
        args = build_parser().parse_args([
            "matrix", "--specs", "harmonic:n_classes=2", "LIB",
            "--executors", "serial", "vectorized",
            "--searches", "random", "grid", "--budget", "4",
        ])
        assert args.command == "matrix"
        assert args.specs == ["harmonic:n_classes=2", "LIB"]
        assert args.executors == ["serial", "vectorized"]
        assert args.searches == ["random", "grid"]
        assert args.budget == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--searches", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--executors", "bogus"])

    def test_parser_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--datasets", "MNIST"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

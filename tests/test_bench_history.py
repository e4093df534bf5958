"""Unit tests for ``tools/bench_history.py`` (trajectory persistence).

The tool lives outside the installed package, so it is loaded straight
from its file.  Focus: ``load_history`` must treat a missing, empty, or
whitespace-only history file as "no entries yet" (a freshly ``touch``-ed
file used to crash with a ``JSONDecodeError``), fail cleanly on garbage,
and ``--check`` must pass vacuously when nothing comparable exists.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_history.py"


@pytest.fixture(scope="module")
def bench_history():
    spec = importlib.util.spec_from_file_location("bench_history_tool",
                                                  TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLoadHistory:
    def test_missing_file_is_empty(self, bench_history, tmp_path):
        assert bench_history.load_history(tmp_path / "nope.json") == []

    def test_empty_file_is_empty(self, bench_history, tmp_path):
        path = tmp_path / "hist.json"
        path.touch()
        assert bench_history.load_history(path) == []

    def test_whitespace_file_is_empty(self, bench_history, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text("  \n\t\n")
        assert bench_history.load_history(path) == []

    def test_invalid_json_exits_cleanly(self, bench_history, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            bench_history.load_history(path)

    def test_non_list_rejected(self, bench_history, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="JSON list"):
            bench_history.load_history(path)

    def test_round_trip(self, bench_history, tmp_path):
        path = tmp_path / "hist.json"
        entries = [{"suite": "training", "benchmarks": {}}]
        path.write_text(json.dumps(entries))
        assert bench_history.load_history(path) == entries

    def test_committed_history_loads(self, bench_history):
        history = bench_history.load_history()
        assert isinstance(history, list)


class TestCheckRegressions:
    def _entry(self, bench_history, suite="training", **benchmarks):
        return {
            "suite": suite,
            "machine": {"hostname": "x"},
            "backends": ["numpy"],
            "dtype": "float64",
            "backend_env": "numpy",
            "benchmarks": {
                name: {"min_seconds": seconds}
                for name, seconds in benchmarks.items()
            },
        }

    def test_empty_history_passes_vacuously(self, bench_history, capsys):
        entry = self._entry(bench_history, bench=1.0)
        assert bench_history.check_regressions([], entry, 0.5) == []
        assert "nothing to regress against" in capsys.readouterr().out

    def test_incomparable_suite_skipped(self, bench_history):
        old = self._entry(bench_history, suite="serve", bench=0.1)
        new = self._entry(bench_history, suite="matrix", bench=10.0)
        assert bench_history.check_regressions([old], new, 0.5) == []

    def test_regression_detected(self, bench_history):
        old = self._entry(bench_history, bench=0.1)
        old["git_sha"] = "abc1234"
        new = self._entry(bench_history, bench=10.0)
        flagged = bench_history.check_regressions([old], new, 0.5)
        assert len(flagged) == 1 and "bench" in flagged[0]

    def test_faster_run_passes(self, bench_history):
        old = self._entry(bench_history, bench=10.0)
        new = self._entry(bench_history, bench=0.1)
        assert bench_history.check_regressions([old], new, 0.5) == []


class TestMatrixSuiteCondense:
    def test_suite_choices_include_matrix(self, bench_history):
        with pytest.raises(SystemExit):
            bench_history.main(["--suite", "nonsense"])

    def test_build_entry_tags_suite(self, bench_history):
        entry = bench_history.build_entry({}, suite="matrix")
        assert entry["suite"] == "matrix"
        old = dict(entry, benchmarks={})
        assert bench_history.comparable(old, entry)
        assert not bench_history.comparable(
            dict(old, suite="serve"), entry
        )


class TestEntryTags:
    @pytest.mark.parametrize("status, sha", [
        ("", "abc1234"),
        (" M src/repro/serve/engine.py", "abc1234-dirty"),
    ], ids=["clean", "dirty"])
    def test_git_sha_marks_uncommitted_changes(self, bench_history,
                                               monkeypatch, status, sha):
        answers = {
            ("rev-parse", "--short", "HEAD"): "abc1234",
            ("rev-parse", "--abbrev-ref", "HEAD"): "main",
            ("status", "--porcelain", "--untracked-files=no"): status,
        }
        monkeypatch.setattr(bench_history, "_git", lambda *a: answers[a])
        assert bench_history.build_entry({})["git_sha"] == sha

    def test_dtype_follows_the_backend_suffix(self, bench_history,
                                              monkeypatch):
        # the tag names the precision REPRO_BACKEND resolves to, in the
        # values older entries carry
        monkeypatch.setenv("REPRO_BACKEND", "numpy@float32")
        assert bench_history.build_entry({})["dtype"] == "float32"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert bench_history.build_entry({})["dtype"] == "float64"


class TestMachineFingerprint:
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs os.sched_getaffinity")
    def test_names_usable_cores_and_blas_threads(self, bench_history):
        from repro.utils.blas import blas_threads

        fingerprint = bench_history.machine_fingerprint()
        assert fingerprint["cpu_count"] == os.cpu_count()
        assert fingerprint["usable_cores"] == len(os.sched_getaffinity(0))
        assert fingerprint["blas_threads"] == blas_threads()

    def test_records_the_heap_policy_outside_the_key(self, bench_history):
        from repro.utils.heap import heap_policy

        entry = bench_history.build_entry({})
        assert entry["machine"]["heap_policy"] == heap_policy()
        # a heap policy changes no result, so it does not split the history
        other = dict(entry, machine=dict(entry["machine"], heap_policy={}))
        assert bench_history.comparable(other, entry)
        fewer_cores = dict(entry["machine"], usable_cores=0)
        assert not bench_history.comparable(
            dict(entry, machine=fewer_cores), entry)

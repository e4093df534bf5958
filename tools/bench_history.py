#!/usr/bin/env python
"""Persisted performance trajectory for the benchmark suite.

Runs the pytest-benchmark suite (``benchmarks/``), condenses each
benchmark into its min/mean timing plus the speedup ratios the suite
stores in ``extra_info``, tags the entry with machine / backend / dtype /
git metadata (``git_sha`` ends in ``-dirty`` when tracked files differ
from that commit), and appends it to the committed ``BENCH_history.json``
at the repo root — so the repo carries its own performance trajectory and a
regression shows up as a diff, not as a vanished artifact.

Usage::

    python tools/bench_history.py                  # run suite, append entry
    python tools/bench_history.py --check          # also compare vs history
    python tools/bench_history.py --check --no-append   # CI: compare only
    python tools/bench_history.py --dry-run        # print entry, touch nothing
    python tools/bench_history.py --suite serve    # serving-latency suite

``--suite`` picks which harness feeds the entry: ``training`` (default)
runs the pytest-benchmark suite in ``benchmarks/``; ``serve`` runs
``repro-bench serve`` (streaming inference under replayed traffic) and
condenses its latency/throughput numbers; ``matrix`` runs ``repro-bench
matrix`` (scenario cells over registry dataset specs) and records one
benchmark per cell.  Every entry is tagged with its
suite, and entries from different suites are never compared against each
other — a serving-latency number regressing against a training-throughput
baseline would be meaningless.

``--check`` compares the fresh entry against the most recent *comparable*
history entry (same suite, machine fingerprint, backend set and dtype) and
fails when any benchmark regressed beyond ``REPRO_BENCH_REGRESSION_FLOOR``
(default 0.5: flag only when the new run is slower than floor x the old
throughput, i.e. > 2x slower — wall-clock on shared runners is noisy, so
the default only catches order-of-magnitude cliffs; tighten it locally).
Incomparable entries (different suite/machine/backend/dtype) are never
compared; when no comparable baseline exists the check reports a warning
and passes.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY_PATH = REPO_ROOT / "BENCH_history.json"

#: environment variable: minimum acceptable new/old throughput ratio per
#: benchmark before --check fails (0.5 = flag a > 2x slowdown)
REGRESSION_FLOOR_ENV_VAR = "REPRO_BENCH_REGRESSION_FLOOR"
DEFAULT_REGRESSION_FLOOR = 0.5


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except OSError:
        return ""


@contextlib.contextmanager
def _checkout_package():
    """Import ``repro`` from this checkout's ``src`` inside the block."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        yield
    finally:
        sys.path.pop(0)


def machine_fingerprint() -> dict:
    """A stable description of the hardware/software running the suite.

    ``cpu_count`` is the host's core count; ``usable_cores`` is what this
    process may run on (a cgroup or taskset limit shows only there), and
    ``blas_threads`` the thread count of each OpenBLAS pool, which is part
    of the numerics contract.  ``cpu_count`` is kept so the host reads the
    same in older entries, which lack the other two keys and so compare
    with no newer entry.  ``heap_policy`` records the allocator
    thresholds the package set; it changes no result, so
    :func:`comparable` ignores it.
    """
    with _checkout_package():
        from repro.utils.blas import blas_threads
        from repro.utils.heap import heap_policy
    return {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
        "heap_policy": heap_policy(),
    }


def _available_backends() -> list:
    with _checkout_package():
        from repro.backend import available_backends

        return available_backends()


def _backend_dtype() -> str:
    """Working precision of the ``REPRO_BACKEND`` default the suite ran on.

    Read from the resolved backend, so the spec's ``@dtype`` suffix
    (``REPRO_BACKEND=torch@float32``) tags the entry; the values stay
    ``"float64"``/``"float32"``, comparable with older entries.
    """
    with _checkout_package():
        from repro.backend import default_backend

        return default_backend().dtype_name


def _suite_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    return env


def run_suite(pytest_args: list) -> dict:
    """Run the benchmark suite, returning the pytest-benchmark JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [
            sys.executable, "-m", "pytest", "-q", "benchmarks",
            f"--benchmark-json={json_path}", *pytest_args,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=_suite_env())
        if proc.returncode != 0:
            raise SystemExit(
                f"benchmark suite failed (exit {proc.returncode}); "
                f"no history entry written"
            )
        with open(json_path) as fh:
            return json.load(fh)


def run_serve_suite(extra_args: list) -> dict:
    """Run ``repro-bench serve`` and condense it to the benchmarks payload.

    The serving bench replays one seeded Poisson trace through a serial
    (``max_batch=1``) and a continuously batched engine and verifies the
    outputs bitwise; here each engine becomes one benchmark whose
    ``min_seconds`` is its best per-chunk wall time, with latency
    percentiles, occupancy and the speedup kept as ``extra_info``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "serve.json"
        cmd = [
            sys.executable, "-m", "repro.bench", "serve",
            "--json", str(json_path), *extra_args,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=_suite_env())
        if proc.returncode != 0:
            raise SystemExit(
                f"serve bench failed (exit {proc.returncode}); "
                f"no history entry written"
            )
        with open(json_path) as fh:
            result = json.load(fh)
    if result.get("bitwise_mismatches"):
        raise SystemExit(
            f"serve bench reported {result['bitwise_mismatches']} bitwise "
            f"mismatches between serial and batched serving; no history "
            f"entry written"
        )
    benchmarks = {}
    for key, label in (("serial", "serve_serial"), ("batched", "serve_batched")):
        rep = result[key]
        n_chunks = max(rep.get("n_chunks", 0), 1)
        benchmarks[label] = {
            "min_seconds": rep["wall_s"] / n_chunks,
            "mean_seconds": rep["wall_s"] / n_chunks,
            "rounds": result.get("repeats"),
            "extra_info": {
                "sessions_per_sec": rep["sessions_per_sec"],
                "chunks_per_sec": rep["chunks_per_sec"],
                "p50_ms": rep["p50_ms"],
                "p99_ms": rep["p99_ms"],
                "mean_occupancy": rep["mean_occupancy"],
                "streams": result["streams"],
                "max_batch": result["max_batch"] if key == "batched" else 1,
                "speedup_vs_serial": result["speedup"] if key == "batched"
                else 1.0,
            },
        }
    # deadline legs (PR 9): the same trace paced to a serveable rate with
    # a per-chunk budget — caller-driven sync (ticks only on submits) vs
    # the async background loop firing a slack margin early.  The
    # violation counts are the story; p99 under deadline load is the
    # tracked number.
    async_rep = result.get("async_deadline")
    sync_rep = result.get("sync_deadline")
    if async_rep is not None and sync_rep is not None:
        n_chunks = max(async_rep.get("n_chunks", 0), 1)
        benchmarks["serve_async"] = {
            "min_seconds": async_rep["wall_s"] / n_chunks,
            "mean_seconds": async_rep["wall_s"] / n_chunks,
            "rounds": 1,
            "extra_info": {
                "sessions_per_sec": async_rep["sessions_per_sec"],
                "chunks_per_sec": async_rep["chunks_per_sec"],
                "p50_ms": async_rep["p50_ms"],
                "p99_ms": async_rep["p99_ms"],
                "deadline_ms": result.get("deadline_ms"),
                "slack_margin_ms": result.get("slack_margin_ms"),
                "deadline_rate_hz": result.get("deadline_rate_hz"),
                "deadline_chunks": async_rep["deadline_chunks"],
                "violations": async_rep["violations"],
                "min_slack_ms": async_rep["min_slack_ms"],
                "streams": result["streams"],
                "max_batch": result["max_batch"],
                "sync_p50_ms": sync_rep["p50_ms"],
                "sync_p99_ms": sync_rep["p99_ms"],
                "sync_sessions_per_sec": sync_rep["sessions_per_sec"],
                "sync_violations": sync_rep["violations"],
            },
        }
    return benchmarks


def run_matrix_suite(extra_args: list) -> dict:
    """Run ``repro-bench matrix`` and condense it to the benchmarks payload.

    Each scenario cell (dataset spec x backend x executor x search)
    becomes one benchmark keyed by its axes, timed by its search
    wall-clock, with the accuracy columns kept as ``extra_info`` — so the
    trajectory records throughput *and* flags a score drift (scores are
    deterministic per seed on NumPy, so any change is a real behavior
    change, not noise).
    """
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "matrix.json"
        cmd = [
            sys.executable, "-m", "repro.bench", "matrix",
            "--json", str(json_path), *extra_args,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=_suite_env())
        if proc.returncode != 0:
            raise SystemExit(
                f"matrix bench failed (exit {proc.returncode}); "
                f"no history entry written"
            )
        with open(json_path) as fh:
            report = json.load(fh)
    benchmarks = {}
    for cell in report.get("cells", []):
        label = "|".join((cell["spec"], cell["backend"], cell["executor"],
                          cell["search"]))
        benchmarks[label] = {
            "min_seconds": cell["total_seconds"],
            "mean_seconds": cell["total_seconds"],
            "rounds": 1,
            "extra_info": {
                "val_accuracy": cell["val_accuracy"],
                "test_accuracy": cell["test_accuracy"],
                "n_evaluations": cell["n_evaluations"],
                "compute_seconds": cell["compute_seconds"],
            },
        }
    return benchmarks


def condense(report: dict) -> dict:
    """Reduce a pytest-benchmark report to the trajectory payload."""
    benchmarks = {}
    for bench in report.get("benchmarks", []):
        stats = bench.get("stats", {})
        entry = {
            "min_seconds": stats.get("min"),
            "mean_seconds": stats.get("mean"),
            "rounds": stats.get("rounds"),
        }
        extra = bench.get("extra_info") or {}
        if extra:
            entry["extra_info"] = extra
        benchmarks[bench["name"]] = entry
    return benchmarks


def build_entry(benchmarks: dict, suite: str = "training") -> dict:
    sha = _git("rev-parse", "--short", "HEAD") or "unknown"
    # a tracked change means the run measured a tree no commit holds yet
    if _git("status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": sha,
        "git_branch": _git("rev-parse", "--abbrev-ref", "HEAD") or "unknown",
        "suite": suite,
        "machine": machine_fingerprint(),
        "backends": _available_backends(),
        "dtype": _backend_dtype(),
        "backend_env": os.environ.get("REPRO_BACKEND", "") or "numpy",
        "benchmarks": benchmarks,
    }


def load_history(path: Path = None) -> list:
    """Load the trajectory list, tolerating a missing or empty file.

    A history file that exists but is empty (or whitespace-only — e.g. a
    freshly ``touch``-ed file, or a truncated write) means "no entries
    yet", exactly like a missing file; invalid JSON is a clean error
    instead of a traceback.
    """
    path = HISTORY_PATH if path is None else Path(path)
    if not path.exists():
        return []
    text = path.read_text()
    if not text.strip():
        return []
    try:
        history = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"{path} is not valid JSON ({exc}); fix or delete it to reset "
            f"the trajectory"
        ) from None
    if not isinstance(history, list):
        raise SystemExit(f"{path} must hold a JSON list")
    return history


def comparable(old: dict, new: dict) -> bool:
    """Entries compare only on matching suite, machine, backends, dtype.

    Entries written before the ``suite`` field existed are all training
    runs, so a missing field defaults to ``"training"`` — serving-latency
    entries never compare against them.  The machine's ``heap_policy`` is
    recorded, not matched.
    """
    def machine(entry):
        fingerprint = dict(entry.get("machine") or {})
        fingerprint.pop("heap_policy", None)
        return fingerprint

    return (
        old.get("suite", "training") == new.get("suite", "training")
        and machine(old) == machine(new)
        and old.get("backends") == new.get("backends")
        and old.get("dtype") == new.get("dtype")
        and old.get("backend_env") == new.get("backend_env")
    )


def check_regressions(history: list, entry: dict, floor: float) -> list:
    """Benchmarks whose new/old throughput ratio fell below ``floor``."""
    baseline = next(
        (old for old in reversed(history) if comparable(old, entry)), None
    )
    if baseline is None:
        print(
            f"[bench-history] WARNING: none of the {len(history)} history "
            f"entries is comparable to this run (suite="
            f"{entry.get('suite', 'training')!r}, machine/backends/dtype "
            f"must all match) — nothing to regress against, check passes "
            f"vacuously; append an entry from this configuration to "
            f"establish a baseline"
        )
        return []
    regressions = []
    for name, new_stats in entry["benchmarks"].items():
        old_stats = baseline["benchmarks"].get(name)
        if not old_stats:
            continue  # new benchmark: no baseline yet
        old_min = old_stats.get("min_seconds")
        new_min = new_stats.get("min_seconds")
        if not old_min or not new_min:
            continue
        ratio = old_min / new_min  # > 1 means the new run is faster
        if ratio < floor:
            regressions.append(
                f"{name}: {new_min:.6f}s vs baseline {old_min:.6f}s "
                f"({baseline['git_sha']}) — throughput ratio {ratio:.2f} "
                f"< floor {floor}"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark suite and persist its trajectory."
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail when a benchmark regressed beyond "
             f"{REGRESSION_FLOOR_ENV_VAR} vs the last comparable entry",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="do not write the new entry to BENCH_history.json (CI mode: "
             "compare only, the committed history stays author-curated)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the condensed entry and exit without touching history",
    )
    parser.add_argument(
        "--suite", choices=("training", "serve", "matrix"),
        default="training",
        help="which harness feeds the entry: 'training' runs the "
             "pytest-benchmark suite, 'serve' runs repro-bench serve "
             "(streaming latency/throughput), 'matrix' runs repro-bench "
             "matrix (scenario cells). Entries only ever compare within "
             "their own suite",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments forwarded to pytest (--suite training), "
             "repro-bench serve (--suite serve), or repro-bench matrix "
             "(--suite matrix), after --",
    )
    args = parser.parse_args(argv)

    if args.suite == "serve":
        benchmarks = run_serve_suite(args.pytest_args)
    elif args.suite == "matrix":
        benchmarks = run_matrix_suite(args.pytest_args)
    else:
        benchmarks = condense(run_suite(args.pytest_args))
    entry = build_entry(benchmarks, suite=args.suite)

    if args.dry_run:
        json.dump(entry, sys.stdout, indent=2)
        print()
        return 0

    history = load_history()

    rc = 0
    if args.check:
        floor = float(
            os.environ.get(REGRESSION_FLOOR_ENV_VAR, "")
            or DEFAULT_REGRESSION_FLOOR
        )
        regressions = check_regressions(history, entry, floor)
        for line in regressions:
            print(f"[bench-history] REGRESSION {line}", file=sys.stderr)
        if regressions:
            rc = 1
        else:
            print("[bench-history] no regressions beyond the floor")

    if not args.no_append:
        history.append(entry)
        with open(HISTORY_PATH, "w") as fh:
            json.dump(history, fh, indent=2)
            fh.write("\n")
        print(f"[bench-history] appended entry {entry['git_sha']} "
              f"({len(history)} total) to {HISTORY_PATH.name}")
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the repro package: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 36 --trace 0

Workloads (see ``perfbench/README.md``): ``grid`` (one d=4 grid level on
JPVOW), ``descent`` (population gradient descent on JPVOW) and ``serve``
(streaming UWAV through a ``ServeEngine``).

Each measurement runs in a fresh interpreter whose environment has every
``REPRO_*`` variable and the BLAS/OpenMP thread variables removed, so the
package runs with its defaults.  ``--trace 0`` sets the workload up three
times (two set-up probes and the measured run) and prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced, prints
the per-layer metrics and writes the spans under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from perf_trace import per_layer_names, per_layer_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "descent", "serve")

#: (name, unit) in the order BENCHMARK.json lists them; what each means on
#: each workload is tabled in perfbench/README.md
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("test_acc", "fraction"),
    ("ops_per_s", "1/s"),
)
END_TO_END_NAMES = tuple(name for name, _ in END_TO_END)
SETUP_PROBES = 2
#: every child together must finish inside the 180 s a run may take
RUN_BUDGET_S = 170.0
#: variables that would silently change the code path or thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS")


def clean_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str,
              trace: int, outdir: str, deadline: float) -> dict:
    """Run ``perf_child.py`` in a fresh interpreter; returns its document."""
    out = os.path.join(outdir, f"{workload}_seed{seed}_{mode}_t{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "perf_child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--mode", mode,
           "--trace", str(trace), "--t0", repr(t0),
           "--outdir", outdir, "--out", out]
    try:
        proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(main: dict, setups: list) -> dict:
    timed = main["timed"]
    attempted, failed = timed["attempted"], timed["failed"]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
        "ok_frac": ((attempted - failed) / attempted, attempted),
    }
    for name in ("test_acc", "ops_per_s"):
        values[name] = tuple(timed[name])
    return values


#: what ``ops_per_s`` and the printed per-operation latency are on each
#: workload, by the names the workload's own vocabulary uses
ALIASES = {
    "grid": {"ops_per_s": "cand_per_s", "op_p50_ms": "level, 16 candidates"},
    "descent": {"ops_per_s": "fits_per_s (fit_s = 1 / ops_per_s)",
                "op_p50_ms": "fit"},
    "serve": {"ops_per_s": "serve_chunks_per_s",
              "op_p50_ms": "saturation pass, 1600 chunks"},
}


def print_end_to_end(workload: str, main: dict, values: dict) -> None:
    timed = main["timed"]
    for name, unit in END_TO_END:
        value, n = values[name]
        alias = ALIASES[workload].get(name, "")
        print(f"{name:<14} {value:>14.6g} {unit:<9} n={n:<6} {alias}")
    extra = ("op_p50_ms", "cold_ms") + (
        ("light_p50_ms", "light_p99_ms", "heavy_p50_ms", "heavy_p99_ms",
         "gen_lag_p99_ms") if workload == "serve" else ())
    for name in extra:
        value, n = timed[name]
        alias = ALIASES[workload].get(name, "")
        print(f"{name:<14} {value:>14.6g} {'ms':<9} n={n:<6} not gated "
              f"{alias}")
    if workload == "serve":
        print(f"{'gen_late_1ms':<14} {timed['gen_late_1ms']:>14d} "
              f"{'count':<9} chunks submitted over 1 ms late, not gated")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the child it is waiting on instead of leaving it running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no package source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    w, seed, secs = args.workload, args.seed, args.seconds
    try:
        if w == "serve":
            run_child(w, seed, secs, "prep", 0, outdir, deadline)
        if args.trace:
            # half the time each, so a traced run costs about an untraced one
            plain = run_child(w, seed, secs / 2, "main", 0, outdir, deadline)
            traced = run_child(w, seed, secs / 2, "main", 1, outdir, deadline)
            runs = (plain, traced)
        else:
            setups = [run_child(w, seed, secs, "setup", 0, outdir, deadline)
                      ["setup_s"] for _ in range(SETUP_PROBES)]
            plain = run_child(w, seed, secs, "main", 0, outdir, deadline)
            runs = (plain,)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    failures = [f for run in runs for f in run["failures"]]
    print(f"# perfbench workload={w} seed={seed} seconds={secs:g} "
          f"trace={args.trace}")
    print(f"# fingerprint {json.dumps(plain['fingerprint'], sort_keys=True)}")
    print(f"# inputs sha256 {plain['inputs_digest']}")
    if args.trace:
        metrics = dict(traced["per_layer"])
        p_ops = plain["timed"]["ops_per_s"][0]
        t_ops = traced["timed"]["ops_per_s"][0]
        metrics["trace_overhead_frac"] = p_ops / t_ops - 1.0
        metrics["serve.gen_lag_p99_ms"] = (
            plain["timed"]["gen_lag_p99_ms"][0] if w == "serve" else 0.0)
        for name in per_layer_names():
            print(f"{name:<28} {metrics[name]:>14.6g} {per_layer_unit(name)}")
        print(f"# spans: {traced['n_spans']} written to "
              f"{os.path.relpath(traced['spans_path'], ROOT)}")
        attempted = sum(run["timed"]["attempted"] for run in runs)
        failed = sum(run["timed"]["failed"] for run in runs)
        out_metrics = {name: {"value": metrics[name],
                              "unit": per_layer_unit(name)}
                       for name in per_layer_names()}
    else:
        setups.append(plain["setup_s"])
        values = end_to_end(plain, setups)
        print_end_to_end(w, plain, values)
        attempted = plain["timed"]["attempted"]
        failed = plain["timed"]["failed"]
        out_metrics = {name: {"value": values[name][0], "unit": unit}
                       for name, unit in END_TO_END}
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

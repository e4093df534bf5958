"""Command-line entry point for the benchmark harnesses.

Usage (installed as ``repro-bench``, or ``python -m repro.bench``):

.. code-block:: console

    repro-bench table1 [--datasets JPVOW LIB ...] [--size-profile bench]
                       [--workers 4] [--backend torch@float32]
                       [--search descent --population 16]
    repro-bench table2
    repro-bench fig6 [--dataset CHAR] [--divisions 5] [--workers 4]
                     [--backend torch@float32]
    repro-bench ablation-truncation [--dataset LIB]
    repro-bench ablation-nonlinearity [--datasets JPVOW LIB]
    repro-bench ablation-bitwidth [--dataset JPVOW]
    repro-bench ablation-optimizer [--dataset JPVOW]
    repro-bench serve [--streams 64] [--max-batch 64] [--json out.json]
    repro-bench matrix [--specs harmonic:n_classes=2 LIB ...]
                       [--backends numpy] [--executors serial vectorized]
                       [--searches random grid] [--budget 8] [--json -]
    repro-bench all            # everything, in EXPERIMENTS.md order
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.bench.ablations import (
    format_bitwidth_ablation,
    format_nonlinearity_ablation,
    format_optimizer_ablation,
    format_truncation_ablation,
    run_bitwidth_ablation,
    run_nonlinearity_ablation,
    run_optimizer_ablation,
    run_truncation_ablation,
)
from repro.bench.fig6 import format_fig6, run_fig6
from repro.bench.matrix import (
    compare_matrix_reports,
    format_matrix_compare,
    MATRIX_SEARCHES,
    format_matrix,
    parse_spec_arg,
    run_matrix,
)
from repro.bench.serve import format_serve, run_serve_bench
from repro.bench.table1 import format_table1, run_table1
from repro.bench.table2 import format_table2, run_table2
from repro.data.metadata import dataset_keys


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--size-profile", choices=("bench", "paper"), default="bench"
    )
    parser.add_argument("--n-nodes", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=25)


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for (A, B) candidate evaluation (grid "
             "levels shard across them; results are bit-identical to "
             "serial). Default: the REPRO_WORKERS environment variable, "
             "else serial",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=None,
        help="array backend executing the reservoir/DPRR sweeps: 'numpy', "
             "'torch', 'torch:cuda:0', 'cupy'; an '@float32' suffix "
             "('torch:cuda:0@float32') trades the bit-pinned float64 "
             "default for device throughput, bounded by the tolerance "
             "contract in docs/ARCHITECTURE.md. Default: the REPRO_BACKEND "
             "environment variable, else numpy. The vectorized candidate "
             "executor (REPRO_EXECUTOR=vectorized) composes with any of "
             "them",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="bp vs grid search (Table 1)")
    p.add_argument("--datasets", nargs="+", default=None,
                   choices=list(dataset_keys()))
    p.add_argument("--max-divisions", type=int, default=20)
    p.add_argument(
        "--batch-size", type=int, default=1,
        help="minibatch size for the backprop phase (1 = the paper's "
             "per-sample SGD; run once with 1 and once with e.g. 32 to "
             "compare per-sample vs batched training throughput)",
    )
    p.add_argument(
        "--search", choices=("backprop", "descent"), default="backprop",
        help="parameter search for the proposed-method phase: 'backprop' "
             "(the paper's single gradient run) or 'descent' (population "
             "gradient descent — --population restarts trained as one "
             "fused candidate-stacked program)",
    )
    p.add_argument(
        "--population", type=int, default=None,
        help="restart count for --search descent. Default: the "
             "REPRO_POPULATION environment variable, else 8",
    )
    _add_workers(p)
    _add_backend(p)
    _add_common(p)

    p = sub.add_parser("table2", help="storage reduction (Table 2, exact)")
    p.add_argument("--window", type=int, default=1)

    p = sub.add_parser("fig6", help="recursive grid failure (Fig. 6)")
    p.add_argument("--dataset", default="CHAR", choices=list(dataset_keys()))
    p.add_argument("--divisions", type=int, default=5)
    p.add_argument("--reference-divisions", type=int, default=10)
    _add_workers(p)
    _add_backend(p)
    _add_common(p)

    p = sub.add_parser("ablation-truncation", help="backward-window sweep")
    p.add_argument("--dataset", default="LIB", choices=list(dataset_keys()))
    _add_common(p)

    p = sub.add_parser("ablation-nonlinearity", help="shape-function sweep")
    p.add_argument("--datasets", nargs="+", default=["JPVOW", "LIB"],
                   choices=list(dataset_keys()))
    _add_common(p)

    p = sub.add_parser("ablation-bitwidth", help="fixed-point precision sweep")
    p.add_argument("--dataset", default="JPVOW", choices=list(dataset_keys()))
    _add_common(p)

    p = sub.add_parser("ablation-optimizer", help="SGD vs momentum vs Adam")
    p.add_argument("--dataset", default="JPVOW", choices=list(dataset_keys()))
    _add_common(p)

    p = sub.add_parser(
        "serve",
        help="streaming inference under replayed traffic (serial vs "
             "continuous batching, bitwise-verified)",
    )
    p.add_argument("--streams", type=int, default=64,
                   help="concurrent sessions in the replayed trace")
    p.add_argument("--chunks", type=int, default=4,
                   help="chunks each session submits")
    p.add_argument("--chunk-len", type=int, default=32,
                   help="time steps per chunk")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--n-nodes", type=int, default=30)
    p.add_argument("--models", type=int, default=1,
                   help="deployed models sharing the feature pipeline "
                        "(>1 exercises the candidate-axis packing)")
    p.add_argument(
        "--max-batch", type=int, default=None,
        help="sessions per fused sweep for the batched engine. Default: "
             "--streams (one full-width sweep per round of arrivals)",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=10.0,
        help="per-chunk deadline budget for the paced deadline legs "
             "(sync tick-on-submit vs async background loop)",
    )
    p.add_argument(
        "--slack-margin-ms", type=float, default=5.0,
        help="how early the async engine's background loop fires a "
             "deadline-held batch",
    )
    p.add_argument(
        "--deadline-rate-hz", type=float, default=4.0,
        help="per-stream arrival rate the deadline legs are paced at "
             "(the recorded 200 Hz trace is stretched to this)",
    )
    p.add_argument("--repeats", type=int, default=3,
                   help="replay repetitions; fastest wall-clock is kept")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the result dict as JSON to PATH "
                        "('-' for stdout)")
    _add_backend(p)

    p = sub.add_parser(
        "matrix",
        help="scenario matrix: registry dataset specs x backends x "
             "executors x searches, one comparable table",
    )
    p.add_argument(
        "--specs", nargs="+", metavar="SPEC",
        default=["harmonic:n_classes=2,n_train=24,n_test=24",
                 "regime:n_classes=2,n_train=24,n_test=24"],
        help="dataset specs: a registered generator with optional "
             "'name:key=value,...' overrides (dotted keys nest, 'seed' "
             "sets the spec seed), or a bare paper dataset key (e.g. LIB). "
             "See EXPERIMENTS.md for the grammar",
    )
    p.add_argument("--backends", nargs="+", default=[None], metavar="BACKEND",
                   help="array backends to cross (default: numpy)")
    p.add_argument("--executors", nargs="+", default=["serial"],
                   choices=("serial", "vectorized", "multiprocess",
                            "multiprocess+vectorized"),
                   help="candidate executors to cross (scores are "
                        "executor-invariant on numpy; timing moves)")
    p.add_argument("--searches", nargs="+", default=["random"],
                   choices=MATRIX_SEARCHES,
                   help="parameter searches to cross")
    p.add_argument(
        "--budget", type=int, default=8,
        help="per-cell search budget: samples (random), steps (anneal), "
             "or restarts (descent); grid uses --divisions^2 points",
    )
    p.add_argument("--divisions", type=int, default=4,
                   help="grid divisions per axis for --searches grid")
    p.add_argument(
        "--compare", nargs=2, metavar=("OLD.json", "NEW.json"), default=None,
        help="instead of running, diff two saved matrix reports "
             "cell-by-cell (accuracy + timing deltas); exits non-zero on "
             "a regression beyond the floors",
    )
    p.add_argument("--accuracy-floor", type=float, default=0.05,
                   help="allowed absolute test-accuracy drop per cell "
                        "before --compare flags a regression")
    p.add_argument("--time-floor", type=float, default=0.5,
                   help="allowed fractional slowdown per cell before "
                        "--compare flags a regression (0.5 = 1.5x)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report dict as JSON to PATH "
                        "('-' for stdout)")
    _add_common(p)

    p = sub.add_parser("all", help="run every harness")
    _add_common(p)
    return parser


def _write_json(doc: dict, dest: Optional[str]) -> None:
    """``--json -`` prints ``doc`` to stdout; ``--json PATH`` writes a file."""
    if dest == "-":
        json.dump(doc, sys.stdout, indent=2)
        print()
    elif dest:
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "table1":
        rows = run_table1(
            args.datasets,
            n_nodes=args.n_nodes,
            size_profile=args.size_profile,
            seed=args.seed,
            max_divisions=args.max_divisions,
            epochs=args.epochs,
            batch_size=args.batch_size,
            search=args.search,
            population=args.population,
            workers=args.workers,
            backend=args.backend,
        )
        print()
        print(format_table1(rows))
    elif args.command == "table2":
        print(format_table2(run_table2(window=args.window)))
    elif args.command == "fig6":
        result = run_fig6(
            args.dataset,
            n_nodes=args.n_nodes,
            divisions=args.divisions,
            reference_divisions=args.reference_divisions,
            size_profile=args.size_profile,
            seed=args.seed,
            workers=args.workers,
            backend=args.backend,
        )
        print()
        print(format_fig6(result))
    elif args.command == "ablation-truncation":
        points = run_truncation_ablation(
            args.dataset, n_nodes=args.n_nodes, epochs=args.epochs,
            seed=args.seed, size_profile=args.size_profile,
        )
        print()
        print(format_truncation_ablation(args.dataset, points))
    elif args.command == "ablation-nonlinearity":
        points = run_nonlinearity_ablation(
            args.datasets, n_nodes=args.n_nodes, epochs=args.epochs,
            seed=args.seed, size_profile=args.size_profile,
        )
        print()
        print(format_nonlinearity_ablation(points))
    elif args.command == "ablation-bitwidth":
        points = run_bitwidth_ablation(
            args.dataset, n_nodes=args.n_nodes, epochs=args.epochs,
            seed=args.seed, size_profile=args.size_profile,
        )
        print()
        print(format_bitwidth_ablation(args.dataset, points))
    elif args.command == "ablation-optimizer":
        points = run_optimizer_ablation(
            args.dataset, n_nodes=args.n_nodes, epochs=args.epochs,
            seed=args.seed, size_profile=args.size_profile,
        )
        print()
        print(format_optimizer_ablation(args.dataset, points))
    elif args.command == "serve":
        result = run_serve_bench(
            streams=args.streams,
            chunks_per_session=args.chunks,
            chunk_len=args.chunk_len,
            n_channels=args.channels,
            n_nodes=args.n_nodes,
            n_models=args.models,
            max_batch=args.max_batch,
            deadline_ms=args.deadline_ms,
            slack_margin_ms=args.slack_margin_ms,
            deadline_rate_hz=args.deadline_rate_hz,
            repeats=args.repeats,
            seed=args.seed,
            backend=args.backend,
        )
        print()
        print(format_serve(result))
        _write_json(result, args.json)
        if result["bitwise_mismatches"]:
            return 1
    elif args.command == "matrix":
        if args.compare is not None:
            old_path, new_path = args.compare
            with open(old_path, "r", encoding="utf-8") as fh:
                old_report = json.load(fh)
            with open(new_path, "r", encoding="utf-8") as fh:
                new_report = json.load(fh)
            diff = compare_matrix_reports(
                old_report, new_report,
                accuracy_floor=args.accuracy_floor,
                time_floor=args.time_floor,
            )
            print()
            print(format_matrix_compare(diff))
            _write_json(diff, args.json)
            return 0 if diff["ok"] else 1
        specs = [parse_spec_arg(text, default_seed=args.seed)
                 for text in args.specs]
        report = run_matrix(
            specs,
            backends=args.backends,
            executors=args.executors,
            searches=args.searches,
            budget=args.budget,
            divisions=args.divisions,
            n_nodes=args.n_nodes,
            epochs=args.epochs,
            seed=args.seed,
        )
        print()
        print(format_matrix(report))
        _write_json(report, args.json)
    elif args.command == "all":
        print(format_table2(run_table2()))
        print()
        rows = run_table1(
            None, n_nodes=args.n_nodes, size_profile=args.size_profile,
            seed=args.seed, epochs=args.epochs,
        )
        print()
        print(format_table1(rows))
        print()
        result = run_fig6(seed=args.seed, n_nodes=args.n_nodes,
                          size_profile=args.size_profile)
        print(format_fig6(result))
        print()
        points = run_truncation_ablation(seed=args.seed, n_nodes=args.n_nodes,
                                         epochs=args.epochs)
        print(format_truncation_ablation("LIB", points))
        print()
        nl_points = run_nonlinearity_ablation(seed=args.seed,
                                              n_nodes=args.n_nodes,
                                              epochs=args.epochs)
        print(format_nonlinearity_ablation(nl_points))
        print()
        bw_points = run_bitwidth_ablation(seed=args.seed, n_nodes=args.n_nodes,
                                          epochs=args.epochs)
        print(format_bitwidth_ablation("JPVOW", bw_points))
        print()
        opt_points = run_optimizer_ablation(seed=args.seed, n_nodes=args.n_nodes,
                                            epochs=args.epochs)
        print(format_optimizer_ablation("JPVOW", opt_points))
    return 0


if __name__ == "__main__":
    sys.exit(main())

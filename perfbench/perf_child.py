"""One benchmark process: set a workload up, time it, check its outputs.

``run.py`` starts this script in a fresh interpreter with a cleaned
environment, once per set-up probe and once per measured run::

    python3 perfbench/perf_child.py --workload grid --seed 3 --seconds 36 \
        --mode main --trace 0 --t0 <time.monotonic() at spawn> \
        --outdir .perfbench_out --out .perfbench_out/r.json

``--mode prep`` writes the serve workload's model (untimed), ``--mode
setup`` stops once the workload is ready for its first timed call, and
``--mode main`` also runs the timed phase and the correctness checks.
The result is one JSON document written to ``--out``.

Every timed call goes through the package's public API with default
knobs.  Per-operation times are recorded with ``time.perf_counter``; a
workload's throughput is the work its identical warm repetitions (every
one after the first, cold, call) completed per second.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from perf_trace import Tracer, counter_metrics, span_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: the serve model's reservoir parameters: the d=4 grid winner on UWAV
#: at seed 0 (the midpoints of the paper's A and B log ranges' last cells)
SERVE_A = 10.0 ** -0.6875
SERVE_B = 10.0 ** -0.5625
SERVE_CHUNK = 32
SERVE_LIGHT_HZ = 300.0
SERVE_HEAVY_HZ = 2000.0
#: shares of ``--seconds`` given to the serve phases; the gated metrics
#: come from saturation, the open-loop phases are printed
SERVE_SHARES = {"saturation": 0.85, "light": 0.1, "heavy": 0.05}


@dataclass(frozen=True)
class Size:
    """Input sizes: ``bench`` is the measured load, ``tiny`` the self-test."""

    n_train: Optional[int] = None      # None: the dataset's bench profile
    n_test: Optional[int] = None
    n_nodes: int = 30
    divisions: int = 4
    min_reps: int = 3
    min_open_loop_chunks: int = 1000
    replay_series: int = 16


SIZES = {
    "bench": Size(),
    "tiny": Size(n_train=24, n_test=16, n_nodes=6, divisions=2, min_reps=2,
                 min_open_loop_chunks=40, replay_series=3),
}


def load(key: str, seed: int, size: Size):
    """The workload's inputs (looked up at call time, so a trace sees it)."""
    import repro.data.loaders

    return repro.data.loaders.load_dataset(
        key, size_profile="bench", n_train=size.n_train, n_test=size.n_test,
        seed=seed)


def data_digest(data) -> str:
    h = hashlib.sha256()
    for arr in (data.u_train, data.y_train, data.u_test, data.y_test):
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def timed_reps(op, seconds: float, min_reps: int, tracer=None,
               after=None) -> List[float]:
    """Repeat ``op`` for about ``seconds``; returns each call's duration.

    A repetition starts only while the run is predicted to end within
    ``seconds``, but at least ``min_reps`` always run (the first of them
    cold, see :func:`_closed_loop_result`).  ``after(out)``
    sees each result outside the timed call (checks, bookkeeping).
    """
    times: List[float] = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.rep = len(times)
        t = time.perf_counter()
        out = op()
        dt = time.perf_counter() - t
        times.append(dt)
        if after is not None:
            after(out)
        del out
        elapsed = time.perf_counter() - begin
        if len(times) >= min_reps and elapsed + dt > seconds:
            return times


# ---------------------------------------------------------------------- #
# workloads


class Workload:
    """A workload: ``setup()`` then ``run(seconds)`` then ``check()``.

    ``run`` returns the timed results: ``ops_per_s``, ``op_p50_ms``,
    ``cold_ms`` and ``test_acc`` with their sample counts, the attempted
    and failed operation counts, and ``reps`` (the repetition count the
    per-layer metrics are averaged over).
    """

    dataset = "JPVOW"

    def __init__(self, seed: int, size: Size, outdir: str):
        self.seed = seed
        self.size = size
        self.outdir = outdir
        self.failures: List[str] = []

    def prepare(self) -> None:
        """Untimed work a run needs before its set-up (none by default)."""

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self) -> List[str]:
        return list(self.failures)


def _closed_loop_result(times, units_per_rep, attempted, failed, test_acc,
                        unit):
    # the first repetition is the cold call (a grid level's runs about 20%
    # slower than the next): it is printed, and the metrics come from the
    # warm repetitions after it.  Throughput is their work over their time:
    # the host has fast and slow phases lasting seconds to minutes, and the
    # median repetition jumps between them, while the total follows the
    # share of slow time smoothly
    warm = times[1:]
    return {
        "ops_per_s": (units_per_rep * len(warm) / sum(warm), len(warm)),
        "op_p50_ms": (float(np.median(warm)) * 1e3, len(warm)),
        "cold_ms": (times[0] * 1e3, 1),
        "test_acc": (test_acc, 1),
        "attempted": attempted,
        "failed": failed,
        "reps": len(times),
        "op": unit,
        "times_s": times,
    }


class GridWorkload(Workload):
    """One d=4 grid level on JPVOW from a fresh ``GridSearch(seed)``."""

    def setup(self) -> None:
        import repro.core.grid_search
        import repro.core.pipeline

        d = self.data = load(self.dataset, self.seed, self.size)
        self.extractor = repro.core.pipeline.DFRFeatureExtractor(
            self.size.n_nodes, seed=self.seed).fit(d.u_train)

    def level(self):
        import repro.core.grid_search

        d = self.data
        search = repro.core.grid_search.GridSearch(self.extractor,
                                                   seed=self.seed)
        return search.run_level(d.u_train, d.y_train, d.u_test, d.y_test,
                                self.size.divisions, n_classes=d.n_classes)

    def run(self, seconds: float, tracer=None) -> dict:
        first: list = []
        counts = {"attempted": 0, "failed": 0}

        def after(level):
            evals = level.evaluations
            counts["attempted"] += len(evals)
            counts["failed"] += sum(ev.error is not None for ev in evals)
            if not first:
                first.append((evals, level.best))
            elif evals != first[0][0]:
                self.fail("grid level evaluations differ between repetitions")

        times = timed_reps(self.level, seconds, self.size.min_reps, tracer,
                           after)
        evals, best = first[0]
        return _closed_loop_result(times, len(evals), counts["attempted"],
                                   counts["failed"], best.test_accuracy,
                                   "candidates")


class DescentWorkload(Workload):
    """Population gradient descent, then beta.

    Repeated ``DFRClassifier(search="descent", population=8,
    batch_size=16).fit`` on JPVOW: eight restarts trained as one program
    fused on the candidate axis, the best member kept.
    """

    def setup(self) -> None:
        import repro.core.pipeline  # noqa: F401  (part of set-up time)

        self.data = load(self.dataset, self.seed, self.size)

    def fit(self):
        import repro.core.pipeline

        d = self.data
        return repro.core.pipeline.DFRClassifier(
            n_nodes=self.size.n_nodes, seed=self.seed, search="descent",
            population=8, batch_size=16).fit(d.u_train, d.y_train)

    def run(self, seconds: float, tracer=None) -> dict:
        first: list = []

        def after(clf):
            if tracer is not None:
                tracer.active = False
            pred = clf.predict(self.data.u_test)
            if tracer is not None:
                tracer.active = True
            fitted = (clf.A_, clf.B_, clf.beta_, pred.tobytes())
            if not first:
                first.append((fitted, pred))
            elif fitted != first[0][0]:
                self.fail("fitted A, B, beta or test predictions differ "
                          "between repetitions")

        times = timed_reps(self.fit, seconds, self.size.min_reps, tracer,
                           after)
        pred = first[0][1]
        acc = float(np.mean(pred == self.data.y_test))
        return _closed_loop_result(times, 1.0, len(times), 0, acc, "fits")


class ServeWorkload(Workload):
    """Streams the UWAV test series through a default ``ServeEngine``."""

    dataset = "UWAV"

    def model_path(self) -> str:
        return os.path.join(self.outdir, f"serve_model_seed{self.seed}.json")

    def prepare(self) -> None:
        """Fit the ridge readout at the fixed (A, B) and save the model."""
        import repro.core.pipeline
        import repro.readout.ridge
        import repro.serve.model_store

        d = load(self.dataset, self.seed, self.size)
        ext = repro.core.pipeline.DFRFeatureExtractor(
            self.size.n_nodes, seed=self.seed).fit(d.u_train)
        feats, _ = ext.features(d.u_train, SERVE_A, SERVE_B)
        sel = repro.readout.ridge.select_beta(
            feats, d.y_train, n_classes=d.n_classes, seed=self.seed)
        model = repro.serve.model_store.ServableModel(
            name="uwav", A=SERVE_A, B=SERVE_B, config=ext.snapshot(),
            readout=sel.best_model)
        repro.serve.model_store.save_model(model, self.model_path())

    def setup(self) -> None:
        import repro.serve.engine
        import repro.serve.model_store

        d = self.data = load(self.dataset, self.seed, self.size)
        self.model = repro.serve.model_store.load_model(self.model_path())
        self.engine = repro.serve.engine.ServeEngine()
        self.engine.deploy(self.model)
        t_len = d.u_test.shape[1]
        self.chunks = [
            [series[k:k + SERVE_CHUNK] for k in range(0, t_len, SERVE_CHUNK)]
            for series in d.u_test
        ]
        self.n_series = len(self.chunks)
        self.n_chunks = len(self.chunks[0])
        self.per_pass = self.n_series * self.n_chunks
        #: final streamed label per (phase, pass, series)
        self.labels: Dict[tuple, int] = {}
        #: outputs of the replay subset in each phase's first pass
        self.subset: Dict[tuple, list] = {}
        self.sent = 0
        self.ok = 0

    def _record(self, phase, pas, series, res) -> None:
        self.ok += res.ok
        if pas == 0 and series < self.size.replay_series:
            self.subset.setdefault((phase, series), []).append(
                (res.seq, res.features, res.scores))
        if res.seq == self.n_chunks - 1:
            self.labels[(phase, pas, series)] = res.label

    def saturation_pass(self, pas: int) -> float:
        """All streams submit a chunk, the engine drains; repeat."""
        eng = self.engine
        t = time.perf_counter()
        sids = [eng.open_session("uwav") for _ in range(self.n_series)]
        index = {sid: i for i, sid in enumerate(sids)}
        for k in range(self.n_chunks):
            for i, sid in enumerate(sids):
                eng.submit(sid, self.chunks[i][k])
            self.sent += self.n_series
            eng.drain()
            for res in eng.pop_results():
                self._record("saturation", pas, index[res.session_id], res)
        for sid in sids:
            eng.close_session(sid)
        return time.perf_counter() - t

    def open_loop(self, phase: str, rate_hz: float, n: int) -> dict:
        """Seeded Poisson arrivals at ``rate_hz``, latency from due time.

        Arrival ``i`` carries chunk ``k`` of series ``s`` in pass ``p``,
        with ``p, j = divmod(i, per_pass)`` and ``k, s = divmod(j,
        n_series)``: every series streams concurrently, in order.
        Single-threaded: submit what is due, tick, collect, and sleep to
        the next due time once a tick leaves no work queued.
        """
        tag = {"light": 1, "heavy": 2}[phase]
        rng = np.random.default_rng([self.seed, tag])
        eng = self.engine
        lat = np.full(n, np.nan)
        lag = np.empty(n)
        waiting: Dict[tuple, int] = {}
        active: Dict[int, str] = {}
        where: Dict[str, tuple] = {}
        begin = time.monotonic() + 0.005
        due = (begin + np.cumsum(rng.exponential(1.0 / rate_hz, n))).tolist()
        i = done = 0
        while done < n:
            now = time.monotonic()
            while i < n and due[i] <= now:
                pas, j = divmod(i, self.per_pass)
                k, s = divmod(j, self.n_series)
                if k == 0:
                    sid = active[s] = eng.open_session("uwav")
                    where[sid] = (pas, s)
                sid = active[s]
                now = time.monotonic()
                seq = eng.submit(sid, self.chunks[s][k])
                lag[i] = now - due[i]
                waiting[(sid, seq)] = i
                i += 1
            report = eng.tick()
            results = eng.pop_results()
            if results:
                held = time.monotonic()
                for res in results:
                    idx = waiting.pop((res.session_id, res.seq))
                    lat[idx] = held - due[idx]
                    pas, s = where[res.session_id]
                    self._record(phase, pas, s, res)
                    if res.seq == self.n_chunks - 1:
                        eng.close_session(res.session_id)
                        del where[res.session_id]
                done += len(results)
            if report.queue_depth == 0 and i < n:
                wait = due[i] - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
        for sid in where:
            eng.close_session(sid)
        self.sent += n
        return {"lat_ms": lat * 1e3, "lag_ms": lag * 1e3}

    def run(self, seconds: float, tracer=None) -> dict:
        size = self.size
        sat_times: List[float] = []
        budget = SERVE_SHARES["saturation"] * seconds
        begin = time.perf_counter()
        while (len(sat_times) < size.min_reps
               or time.perf_counter() - begin + sat_times[-1] <= budget):
            if tracer is not None:
                tracer.rep = len(sat_times)
            sat_times.append(self.saturation_pass(len(sat_times)))
        phases = {}
        for phase, rate in (("light", SERVE_LIGHT_HZ),
                            ("heavy", SERVE_HEAVY_HZ)):
            n = max(size.min_open_loop_chunks,
                    int(round(rate * SERVE_SHARES[phase] * seconds)))
            if tracer is not None:
                tracer.rep = len(sat_times) + len(phases)
            phases[phase] = self.open_loop(phase, rate, n)
        light, heavy = phases["light"], phases["heavy"]
        lags = np.concatenate([light["lag_ms"], heavy["lag_ms"]])
        y = self.data.y_test
        final = np.array([self.labels[("saturation", 0, s)]
                          for s in range(self.n_series)])
        served = len(sat_times) * self.per_pass + len(light["lat_ms"]) + len(
            heavy["lat_ms"])
        # the gated metrics come from the closed-loop passes, like every
        # other workload's: open-loop chunk latency follows host stalls on
        # a shared 2-vCPU machine (light p95 read 4.2 to 13.0 ms, p50 2.2
        # to 3.9 ms over fifteen seeds), so it is printed, not gated
        result = _closed_loop_result(
            sat_times, self.per_pass, self.sent, self.sent - self.ok,
            float(np.mean(final == y)), "chunks")
        for phase, lat in (("light", light["lat_ms"]),
                           ("heavy", heavy["lat_ms"])):
            for q in (50, 99):
                result[f"{phase}_p{q}_ms"] = (percentile(lat, q), len(lat))
        result.update({
            "gen_lag_p99_ms": (percentile(lags, 99), len(lags)),
            "gen_late_1ms": int(np.sum(lags > 1.0)),
            "reps": served / self.per_pass,
        })
        return result

    def check(self) -> List[str]:
        import repro.serve.engine

        d = self.data
        ext = self.model.config.build()
        feats, _ = ext.features(d.u_test, self.model.A, self.model.B)
        offline = self.model.readout.predict(feats)
        wrong = sorted({key[:2] for key, label in self.labels.items()
                        if label != offline[key[2]]})
        if wrong:
            self.fail(f"final served labels differ from offline predict in "
                      f"{wrong}")
        # the NumPy batching contract: a max_batch=1 engine replaying the
        # same streams returns bitwise the same features and scores
        eng = repro.serve.engine.ServeEngine(max_batch=1)
        eng.deploy(self.model)
        reference = {}
        for s in range(min(self.size.replay_series, self.n_series)):
            sid = eng.open_session("uwav")
            for chunk in self.chunks[s]:
                eng.submit(sid, chunk)
            eng.drain()
            reference[s] = [(r.seq, r.features.tobytes(), r.scores.tobytes())
                            for r in eng.pop_results()]
        for (phase, s), outs in sorted(self.subset.items()):
            got = [(seq, f.tobytes(), sc.tobytes())
                   for seq, f, sc in sorted(outs, key=lambda o: o[0])]
            if got != reference[s][:len(got)]:
                self.fail(f"{phase}: series {s} differs from the max_batch=1 "
                          f"replay")
        self.subset.clear()
        return list(self.failures)


WORKLOADS = {
    "grid": GridWorkload,
    "descent": DescentWorkload,
    "serve": ServeWorkload,
}


# ---------------------------------------------------------------------- #
# environment stamp


def openblas_threads() -> Optional[int]:
    """``openblas_get_num_threads`` of the scipy-openblas NumPy loaded."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: str) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "seed": seed,
        "git_sha": git_sha(os.path.dirname(HERE)),
    }


def default_inputs_changed(key: str) -> List[str]:
    """A failure when the default seed's inputs no longer hash as pinned."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if data_digest(load(key, pinned["seed"], SIZES["bench"])) == pinned[key]:
        return []
    return [f"{key} inputs at the default seed {pinned['seed']} no longer "
            f"match digests.json"]


# ---------------------------------------------------------------------- #
# entry point


def run_workload(workload: str, seed: int, seconds: float, *, mode: str,
                 trace: bool = False, size: str = "bench", outdir: str = ".",
                 t0: Optional[float] = None) -> dict:
    """Run one workload in this process; returns the result document."""
    t0 = time.monotonic() if t0 is None else t0
    tracer = Tracer().install() if trace else None
    try:
        return _run(workload, seed, seconds, mode, tracer, SIZES[size],
                    outdir, t0)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(workload, seed, seconds, mode, tracer, size, outdir, t0) -> dict:
    wl = WORKLOADS[workload](seed, size, outdir)
    if mode == "prep":
        wl.prepare()
        return {"mode": mode}
    wl.setup()
    setup_s = time.monotonic() - t0
    if mode == "setup":
        return {"mode": mode, "setup_s": setup_s}
    if tracer is not None:
        tracer.counters.clear()
    timed = wl.run(seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    failures = wl.check() + default_inputs_changed(wl.dataset)
    if timed["failed"]:
        failures.append(f"{timed['failed']} of {timed['attempted']} "
                        f"{timed['op']} failed")
    result = {
        "mode": mode,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "timed": timed,
        "failures": failures,
        "inputs_digest": data_digest(wl.data),
        "fingerprint": fingerprint(seed),
    }
    if tracer is not None:
        reps = timed["reps"]
        layers = span_metrics(tracer.names, tracer.arrays(), reps)
        layers.update(counter_metrics(tracer.counters, reps))
        result["per_layer"] = layers
        spans_path = os.path.join(outdir, f"spans_{workload}_seed{seed}.npz")
        tracer.save(spans_path)
        result["spans_path"] = spans_path
        result["n_spans"] = len(tracer.start)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("prep", "setup", "main"),
                    required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          mode=args.mode, trace=bool(args.trace),
                          outdir=args.outdir, t0=args.t0)
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

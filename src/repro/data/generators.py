"""Built-in series generators: regression classics + signal-like families.

Registered on import (via :mod:`repro.data.registry`):

``narma``
    Order-``N`` NARMA input/target streams — the registry promotion of
    :func:`repro.data.regression.narma` (``narma(order=10)`` is the
    classic NARMA-10, bit-identical to :func:`~repro.data.regression.narma10`).
``mackey_glass``
    The chaotic Mackey–Glass series of
    :func:`repro.data.regression.mackey_glass_series`, with the full
    ``tau``/``beta``/``gamma``/``p`` sweep surface.
``eeg_pink``
    Multi-channel EEG-like 1/f pink noise (cascade of three first-order
    IIR stages over white noise — the classic economy pinking filter).
``am_fm``
    Audio-style AM/FM waveforms: per-channel carriers with sinusoidal
    amplitude and frequency modulation plus observation noise.
``drift``
    Nonstationary wrapper composing over *any* base spec: a slow
    sinusoidal gain/offset envelope along the stream axis turns any
    stationary family into a concept-drift workload.

Every generator here implements **true streaming**: chunked generation
carries O(state) memory (filter taps, recursion tails, RNG position) and
is bit-identical to eager generation — sequential RNG draws concatenate
exactly, IIR recursions carry their state across chunk boundaries, and
phase/envelope terms are computed from absolute stream indices.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np
from scipy.signal import lfilter

from repro.data.regression import mackey_glass_series, narma, narma_step
from repro.data.registry import Generator, GeneratorSpec, register_generator
from repro.utils.rng import ensure_rng, spawn_rng

__all__ = [
    "NarmaGenerator",
    "MackeyGlassGenerator",
    "PinkNoiseGenerator",
    "AmFmGenerator",
    "DriftGenerator",
]


class _ChunkBuffer:
    """Re-chunk aligned per-key array pushes into exact ``chunk_len`` pieces."""

    def __init__(self, keys, chunk_len: int):
        self._parts: Dict[str, List[np.ndarray]] = {k: [] for k in keys}
        self._count = 0
        self._chunk_len = int(chunk_len)

    def push(self, arrays: Dict[str, np.ndarray]) -> None:
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) > 1:
            raise ValueError(f"misaligned chunk push: lengths {lengths}")
        for key, arr in arrays.items():
            self._parts[key].append(arr)
        self._count += next(iter(lengths)) if lengths else 0

    def drain(self, final: bool = False) -> Iterator[Dict[str, np.ndarray]]:
        while (self._count >= self._chunk_len
               or (final and self._count > 0)):
            merged = {k: np.concatenate(v, axis=0)
                      for k, v in self._parts.items()}
            take = min(self._chunk_len, self._count)
            yield {k: arr[:take] for k, arr in merged.items()}
            self._parts = {k: [arr[take:]] for k, arr in merged.items()}
            self._count -= take


@register_generator
class NarmaGenerator(Generator):
    """Order-``N`` NARMA streams; ``{"u", "y"}`` along the time axis."""

    name = "narma"
    kind = "series"
    defaults = {"n_steps": 1000, "order": 10, "washout": None}

    @staticmethod
    def _resolve_washout(params: Dict) -> int:
        washout = params["washout"]
        return int(washout) if washout is not None \
            else max(50, 5 * int(params["order"]))

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        u, y = narma(
            int(params["n_steps"]), order=int(params["order"]), seed=int(seed),
            washout=params["washout"] if params["washout"] is None
            else int(params["washout"]),
        )
        return {"u": u, "y": y}

    def generate_chunks(
        self, params: Dict, seed: int, chunk_len: int
    ) -> Iterator[Dict[str, np.ndarray]]:
        n_steps = int(params["n_steps"])
        order = int(params["order"])
        washout = self._resolve_washout(params)
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if washout < order:
            raise ValueError(
                f"washout must cover the order of the system (>= {order})"
            )
        rng = ensure_rng(int(seed))
        total = n_steps + washout
        # carried state: the last `order` inputs/outputs (chronological)
        u_tail = np.zeros(0)
        y_tail = np.zeros(0)
        produced = 0
        buf = _ChunkBuffer(("u", "y"), chunk_len)
        while produced < total:
            m = min(max(chunk_len, order), total - produced)
            u_ext = np.concatenate([u_tail, rng.uniform(0.0, 0.5, size=m)])
            y_ext = np.concatenate([y_tail, np.zeros(m)])
            tail_len = len(u_tail)
            for j in range(m):
                g = produced + j  # global stream index of this sample
                if g >= order:
                    k = tail_len + j
                    y_ext[k] = narma_step(y_ext, u_ext, k - 1, order)
            lo = max(washout - produced, 0)
            if lo < m:
                buf.push({"u": u_ext[tail_len + lo: tail_len + m],
                          "y": y_ext[tail_len + lo: tail_len + m]})
            produced += m
            u_tail = u_ext[-order:]
            y_tail = y_ext[-order:]
            yield from buf.drain()
        yield from buf.drain(final=True)


@register_generator
class MackeyGlassGenerator(Generator):
    """Chaotic Mackey–Glass streams; ``{"x"}`` along the time axis."""

    name = "mackey_glass"
    kind = "series"
    defaults = {
        "n_steps": 1000,
        "tau": 17.0,
        "beta": 0.2,
        "gamma": 0.1,
        "p": 10.0,
        "dt": 1.0,
        "substeps": 10,
        "washout": 500,
    }

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        x = mackey_glass_series(
            int(params["n_steps"]),
            tau=float(params["tau"]),
            beta=float(params["beta"]),
            gamma=float(params["gamma"]),
            p=float(params["p"]),
            dt=float(params["dt"]),
            substeps=int(params["substeps"]),
            seed=int(seed),
            washout=int(params["washout"]),
        )
        return {"x": x}

    def generate_chunks(
        self, params: Dict, seed: int, chunk_len: int
    ) -> Iterator[Dict[str, np.ndarray]]:
        n_steps = int(params["n_steps"])
        tau = float(params["tau"])
        beta = float(params["beta"])
        gamma = float(params["gamma"])
        p = float(params["p"])
        dt = float(params["dt"])
        substeps = int(params["substeps"])
        washout = int(params["washout"])
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if tau <= 0 or dt <= 0 or substeps < 1:
            raise ValueError("tau, dt must be positive and substeps >= 1")
        rng = ensure_rng(int(seed))
        h = dt / substeps
        delay = max(1, int(round(tau / h)))
        # carried state: the last `delay` sub-step values of the stream
        carry = 1.2 + 0.1 * rng.standard_normal(delay)
        total_substeps = (n_steps + washout) * substeps
        done = 0
        buf = _ChunkBuffer(("x",), chunk_len)
        block = max(chunk_len * substeps, substeps)
        while done < total_substeps:
            m = min(block, total_substeps - done)
            ext = np.concatenate([carry, np.zeros(m)])
            for j in range(m):
                x_now = ext[delay + j - 1]
                x_delayed = ext[j]
                drive = beta * x_delayed / (1.0 + x_delayed**p) - gamma * x_now
                ext[delay + j] = x_now + h * drive
            # the eager path samples every `substeps`-th generated value and
            # discards the first `washout` samples
            idx = np.arange(done, done + m)
            sampled = idx[(idx % substeps == 0)
                          & (idx // substeps >= washout)]
            if sampled.size:
                buf.push({"x": ext[delay + (sampled - done)]})
            done += m
            carry = ext[-delay:]
            yield from buf.drain()
        yield from buf.drain(final=True)


#: the classic three-stage economy pinking filter: per stage, a one-pole
#: lowpass ``s[t] = a * s[t-1] + g * w[t]`` whose sum (plus a direct term)
#: approximates a 1/f spectrum over ~3 decades
_PINK_STAGES = ((0.99765, 0.0990460), (0.96300, 0.2965164),
                (0.57000, 1.0526913))
_PINK_DIRECT = 0.1848


@register_generator
class PinkNoiseGenerator(Generator):
    """Multi-channel EEG-like 1/f pink noise; ``{"u"}`` of shape (T, C)."""

    name = "eeg_pink"
    kind = "series"
    defaults = {"n_steps": 1024, "n_channels": 4, "amplitude": 1.0}

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        chunks = self.generate_chunks(params, seed, int(params["n_steps"]))
        return {"u": np.concatenate([c["u"] for c in chunks], axis=0)}

    def generate_chunks(
        self, params: Dict, seed: int, chunk_len: int
    ) -> Iterator[Dict[str, np.ndarray]]:
        n_steps = int(params["n_steps"])
        n_channels = int(params["n_channels"])
        amplitude = float(params["amplitude"])
        if n_steps < 1 or n_channels < 1:
            raise ValueError("n_steps and n_channels must be >= 1")
        rng = self.derive_rng(seed)
        # carried state: one filter tap per stage and channel
        zis = [np.zeros((1, n_channels)) for _ in _PINK_STAGES]
        for lo in range(0, n_steps, chunk_len):
            m = min(chunk_len, n_steps - lo)
            white = rng.standard_normal((m, n_channels))
            pink = _PINK_DIRECT * white
            for s, (a, g) in enumerate(_PINK_STAGES):
                filtered, zis[s] = lfilter(
                    [g], [1.0, -a], white, axis=0, zi=zis[s]
                )
                pink = pink + filtered
            yield {"u": amplitude * pink}


@register_generator
class AmFmGenerator(Generator):
    """Audio-style AM/FM waveforms; ``{"u"}`` of shape (T, C).

    Each channel carries a sinusoid at a randomly drawn carrier frequency,
    amplitude-modulated at ``am_rate`` (depth ``am_depth``) and
    frequency-modulated at ``fm_rate`` (peak deviation ``fm_depth`` Hz),
    plus white observation noise.  All phases come from the spec's
    prototype stream, so the waveform structure is a deterministic
    function of the spec; the noise stream is independent.
    """

    name = "am_fm"
    kind = "series"
    defaults = {
        "n_steps": 1024,
        "n_channels": 2,
        "sample_rate": 256.0,
        "carrier_low": 8.0,
        "carrier_high": 48.0,
        "am_rate": 2.0,
        "am_depth": 0.5,
        "fm_rate": 1.0,
        "fm_depth": 4.0,
        "noise": 0.05,
    }

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        chunks = self.generate_chunks(params, seed, int(params["n_steps"]))
        return {"u": np.concatenate([c["u"] for c in chunks], axis=0)}

    def generate_chunks(
        self, params: Dict, seed: int, chunk_len: int
    ) -> Iterator[Dict[str, np.ndarray]]:
        n_steps = int(params["n_steps"])
        n_channels = int(params["n_channels"])
        sample_rate = float(params["sample_rate"])
        if n_steps < 1 or n_channels < 1:
            raise ValueError("n_steps and n_channels must be >= 1")
        if sample_rate <= 0 or float(params["fm_rate"]) <= 0:
            raise ValueError("sample_rate and fm_rate must be positive")
        proto_rng, sample_rng = spawn_rng(self.derive_rng(seed), 2)
        carrier = proto_rng.uniform(
            float(params["carrier_low"]), float(params["carrier_high"]),
            size=n_channels,
        )
        phi_c = proto_rng.uniform(0, 2 * np.pi, size=n_channels)
        phi_am = proto_rng.uniform(0, 2 * np.pi, size=n_channels)
        phi_fm = proto_rng.uniform(0, 2 * np.pi, size=n_channels)
        # modulation index: peak phase swing of an fm_depth-Hz deviation
        beta_fm = float(params["fm_depth"]) / float(params["fm_rate"])
        two_pi = 2 * np.pi
        for lo in range(0, n_steps, chunk_len):
            hi = min(lo + chunk_len, n_steps)
            # absolute stream time: chunk-position independent, so every
            # deterministic term is bit-identical under any chunking
            t = (np.arange(lo, hi) / sample_rate)[:, np.newaxis]
            env = 1.0 + float(params["am_depth"]) * np.sin(
                two_pi * float(params["am_rate"]) * t + phi_am[np.newaxis, :]
            )
            mod = beta_fm * np.sin(
                two_pi * float(params["fm_rate"]) * t + phi_fm[np.newaxis, :]
            )
            x = env * np.sin(
                two_pi * carrier[np.newaxis, :] * t + phi_c[np.newaxis, :] + mod
            )
            x = x + float(params["noise"]) * sample_rng.standard_normal(
                (hi - lo, n_channels)
            )
            yield {"u": x}


_BASE_KEYS = {"name", "params", "seed"}


@register_generator
class DriftGenerator(Generator):
    """Nonstationary wrapper: slow gain/offset drift over any base spec.

    ``base`` names the wrapped spec (``{"name": ..., "params": {...},
    "seed": ...}``; ``params`` defaults to empty, ``seed`` to the
    wrapper's own seed).  Every float array of the base dataset is scaled
    by ``1 + gain_depth * sin(2 pi n / gain_period + phase)`` and shifted
    by ``offset_depth * sin(2 pi n / offset_period + phase)`` along axis 0
    (time for series bases, the sample stream for classification bases —
    i.e. concept drift across arrivals).  Phases come from the wrapper's
    prototype stream; integer arrays (labels) pass through untouched.

    Composes with streaming: the base is pulled through its own
    ``generate_chunks`` and the envelope is a function of the absolute
    stream index, so drifted chunked generation is bit-identical to
    drifted eager generation whenever the base's is.
    """

    name = "drift"
    kind = "series"  # overridden per-spec by kind_for
    defaults = {
        "base": {"name": "eeg_pink", "params": {}},
        "gain_depth": 0.5,
        "gain_period": 256.0,
        "offset_depth": 0.0,
        "offset_period": 512.0,
    }

    def _base_spec(self, params: Dict, seed: int) -> GeneratorSpec:
        base = params["base"]
        if not isinstance(base, dict) or "name" not in base:
            raise ValueError(
                "drift 'base' must be a dict with at least a 'name' key"
            )
        unknown = sorted(set(base) - _BASE_KEYS)
        if unknown:
            raise ValueError(
                f"unknown base spec keys {unknown}; allowed: "
                f"{sorted(_BASE_KEYS)}"
            )
        return GeneratorSpec(
            name=base["name"],
            params=base.get("params", {}),
            seed=base.get("seed", seed),
        )

    def kind_for(self, params: Dict) -> str:
        from repro.data.registry import get_generator

        base = self._base_spec(params, 0)
        base_gen = get_generator(base.name)
        return base_gen.kind_for(base_gen.resolve(base.params))

    def _phases(self, seed: int):
        rng = self.derive_rng(seed)
        return rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)

    def _envelope(self, params: Dict, phases, offsets: Dict[str, int],
                  arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        phi_g, phi_o = phases
        gain_period = float(params["gain_period"])
        offset_period = float(params["offset_period"])
        if gain_period <= 0 or offset_period <= 0:
            raise ValueError("gain_period and offset_period must be positive")
        out = {}
        for key, arr in arrays.items():
            start = offsets.get(key, 0)
            offsets[key] = start + arr.shape[0]
            if not np.issubdtype(arr.dtype, np.floating):
                out[key] = arr
                continue
            idx = np.arange(start, start + arr.shape[0], dtype=np.float64)
            shape = (-1,) + (1,) * (arr.ndim - 1)
            gain = (1.0 + float(params["gain_depth"])
                    * np.sin(2 * np.pi * idx / gain_period + phi_g))
            offset = (float(params["offset_depth"])
                      * np.sin(2 * np.pi * idx / offset_period + phi_o))
            out[key] = (arr * gain.reshape(shape)) + offset.reshape(shape)
        return out

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        from repro.data.registry import generate as registry_generate

        base_arrays = registry_generate(self._base_spec(params, seed))
        return self._envelope(params, self._phases(seed), {}, base_arrays)

    def generate_chunks(
        self, params: Dict, seed: int, chunk_len: int
    ) -> Iterator[Dict[str, np.ndarray]]:
        from repro.data.registry import generate_chunks as registry_chunks

        phases = self._phases(seed)
        offsets: Dict[str, int] = {}
        for chunk in registry_chunks(self._base_spec(params, seed), chunk_len):
            yield self._envelope(params, phases, offsets, chunk)

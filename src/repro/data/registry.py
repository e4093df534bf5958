"""Parametric dataset-generator registry.

A dataset here is a *parametric function*, not a file: a declarative
:class:`GeneratorSpec` — generator ``name``, ``params`` dict, ``seed`` —
resolves through a registry to named arrays, deterministically.  Equal
specs always produce bitwise-equal data; the spec round-trips through a
strict, versioned JSON envelope (the same conventions as the
``repro-dfr-model`` document of :mod:`repro.serve.model_store`), so a
benchmark report can carry the exact datasets it was measured on.

Two generator kinds share the contract:

``classification``
    Balanced train/test sample sets — ``{"u_train", "y_train", "u_test",
    "y_test"}`` — as consumed by :class:`~repro.core.pipeline.DFRClassifier`
    and the scenario-matrix bench.  The five legacy families of
    :mod:`repro.data.synthetic` are registered here unchanged (bit-pinned
    against :func:`~repro.data.synthetic.generate_family`).
``series``
    Unbounded time streams — e.g. ``{"u", "y"}`` for NARMA — as consumed
    by the regression examples and the serve replayer.

Every generator supports **streaming chunked generation**
(:func:`generate_chunks`): chunks along axis 0 whose per-key concatenation
is bit-identical to the eager :func:`generate` output.  Series generators
stream with O(state) memory (carried filter/recursion state, sequential
RNG draws), so dataset scale is unbounded by memory; classification
generators fall back to eager-then-slice (their sample permutation couples
the whole set).

Registering a generator::

    @register_generator
    class MyFamily(Generator):
        name = "my_family"
        kind = "series"
        defaults = {"n_steps": 1024, "level": 1.0}

        def generate(self, params, seed):
            ...
            return {"u": u}

Unknown parameter names are rejected strictly — a typo in a sweep config
fails loudly instead of silently running the defaults.
"""

from __future__ import annotations

import copy
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.data.metadata import DatasetSpec, get_spec
from repro.data.synthetic import FAMILIES, generate_family
from repro.utils.validation import check_document

__all__ = [
    "SPEC_FORMAT",
    "SPEC_FORMAT_VERSION",
    "GeneratorSpec",
    "Generator",
    "register_generator",
    "registered_generators",
    "get_generator",
    "generator_kind",
    "make_spec",
    "spec_for_dataset",
    "generate",
    "generate_chunks",
    "concat_chunks",
    "dataset_from_spec",
]

#: magic string identifying a serialized dataset spec
SPEC_FORMAT = "repro-dataset-spec"
#: envelope schema version; bump on any envelope field change
SPEC_FORMAT_VERSION = 1

_ENVELOPE_KEYS = {"format", "format_version", "name", "params", "seed"}


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative dataset description: ``(name, params, seed) -> data``.

    ``params`` only needs the knobs that differ from the generator's
    defaults; unknown names are rejected at resolution time.  Two equal
    specs always generate bitwise-equal data.
    """

    name: str
    params: Dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "params", copy.deepcopy(dict(self.params)))
        object.__setattr__(self, "seed", int(self.seed))

    def label(self) -> str:
        """Compact display form, e.g. ``harmonic(n_classes=3)#0``."""
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.name}({inner})#{self.seed}"

    def to_dict(self) -> dict:
        """The versioned JSON envelope (strict inverse of :meth:`from_dict`)."""
        return {
            "format": SPEC_FORMAT,
            "format_version": SPEC_FORMAT_VERSION,
            "name": self.name,
            "params": copy.deepcopy(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        """Rebuild from :meth:`to_dict` output — strictly versioned."""
        check_document(data, _ENVELOPE_KEYS, what="dataset spec",
                       fmt=SPEC_FORMAT, version=SPEC_FORMAT_VERSION)
        if not isinstance(data["params"], dict):
            raise TypeError(
                f"spec params must be a dict, got "
                f"{type(data['params']).__name__}"
            )
        return cls(name=str(data["name"]), params=data["params"],
                   seed=data["seed"])


class Generator:
    """Base class for registered dataset generators.

    Subclasses set ``name``, ``kind`` (``"classification"`` or
    ``"series"``), and ``defaults`` (the complete parameter schema — a
    spec may override any subset, nothing else), and implement
    :meth:`generate`.  Overriding :meth:`generate_chunks` opts into true
    streaming; the base implementation generates eagerly and slices, which
    is always bit-identical but not memory-bounded.
    """

    name: str = ""
    kind: str = "series"
    defaults: Dict = {}

    def resolve(self, params: Mapping) -> Dict:
        """Merge ``params`` over the defaults; unknown names raise."""
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            known = ", ".join(sorted(self.defaults))
            raise ValueError(
                f"unknown parameter(s) {unknown} for generator "
                f"{self.name!r}; known: {known}"
            )
        merged = copy.deepcopy(dict(self.defaults))
        merged.update(copy.deepcopy(dict(params)))
        return merged

    def kind_for(self, params: Mapping) -> str:
        """The dataset kind this parameterization produces.

        Static for most generators; wrappers that compose over a base
        generator override this to report the base's kind.
        """
        return self.kind

    def derive_rng(self, seed: int) -> np.random.Generator:
        """The generator's dedicated stream for ``seed``.

        The generator name is folded into the seed so two different
        families never share a stream for the same base seed.
        """
        return np.random.default_rng([int(seed), zlib.crc32(self.name.encode())])

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def generate_chunks(
        self, params: Dict, seed: int, chunk_len: int
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Yield the dataset in chunks along axis 0 of every array.

        Fallback implementation: generate eagerly, then slice — each chunk
        ``i`` covers rows ``[i * chunk_len, (i + 1) * chunk_len)`` of every
        array still holding rows there (shorter arrays simply end earlier).
        Per-key concatenation of the chunks is bit-identical to
        :meth:`generate` by construction.
        """
        arrays = self.generate(params, seed)
        n_max = max(a.shape[0] for a in arrays.values())
        for lo in range(0, n_max, chunk_len):
            yield {
                key: arr[lo: lo + chunk_len]
                for key, arr in arrays.items()
                if lo < arr.shape[0]
            }


_REGISTRY: Dict[str, Generator] = {}
_BUILTINS_LOADED = False


def register_generator(cls: Type[Generator]) -> Type[Generator]:
    """Class decorator adding a :class:`Generator` subclass to the registry."""
    if not (isinstance(cls, type) and issubclass(cls, Generator)):
        raise TypeError("register_generator decorates Generator subclasses")
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if cls.kind not in ("classification", "series"):
        raise ValueError(
            f"{cls.__name__}.kind must be 'classification' or 'series', "
            f"got {cls.kind!r}"
        )
    if cls.name in _REGISTRY:
        raise ValueError(f"generator {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls()
    return cls


def _ensure_builtins() -> None:
    """Import the built-in series generators exactly once.

    The classification families register at this module's import; the
    series families live in :mod:`repro.data.generators`, which imports
    this module — so they are pulled in lazily to avoid the cycle.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.data.generators  # noqa: F401  (registration side effect)


def registered_generators() -> Tuple[str, ...]:
    """All registered generator names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def get_generator(name: str) -> Generator:
    """Look up a registered generator by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown generator {name!r}; known: {known}"
        ) from None


def generator_kind(spec: GeneratorSpec) -> str:
    """``"classification"`` or ``"series"`` for this spec."""
    gen = get_generator(spec.name)
    return gen.kind_for(gen.resolve(spec.params))


def make_spec(name: str, *, seed: int = 0, **params) -> GeneratorSpec:
    """Build a validated spec (unknown generator / parameter names raise)."""
    spec = GeneratorSpec(name=name, params=params, seed=seed)
    get_generator(name).resolve(spec.params)  # strict validation
    return spec


def generate(spec: GeneratorSpec) -> Dict[str, np.ndarray]:
    """Resolve ``spec`` and generate the full dataset eagerly."""
    gen = get_generator(spec.name)
    return gen.generate(gen.resolve(spec.params), spec.seed)


def generate_chunks(
    spec: GeneratorSpec, chunk_len: int
) -> Iterator[Dict[str, np.ndarray]]:
    """Stream the dataset in chunks; concatenation ≡ :func:`generate`."""
    if chunk_len < 1:
        raise ValueError(f"chunk_len must be >= 1, got {chunk_len}")
    gen = get_generator(spec.name)
    return gen.generate_chunks(gen.resolve(spec.params), spec.seed,
                               int(chunk_len))


def concat_chunks(
    chunks: Iterator[Dict[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Reassemble a chunk stream into the eager dict (test/parity helper)."""
    parts: Dict[str, List[np.ndarray]] = {}
    for chunk in chunks:
        for key, arr in chunk.items():
            parts.setdefault(key, []).append(arr)
    return {key: np.concatenate(arrs, axis=0) for key, arrs in parts.items()}


# --------------------------------------------------------------------- #
# classification families (bit-pinned ports of repro.data.synthetic)
# --------------------------------------------------------------------- #

class _FamilyGenerator(Generator):
    """Registry port of one legacy :func:`generate_family` family.

    ``generate`` delegates to the exact pre-registry code path, so output
    is bit-identical to calling ``generate_family`` with an equivalent
    :class:`~repro.data.metadata.DatasetSpec` (golden-pinned in
    ``tests/test_registry.py``).  The ``key`` parameter feeds the same
    seed-folding hash the legacy path used, so the registry can reproduce
    any of the paper's 12 datasets exactly (see :func:`spec_for_dataset`).
    """

    kind = "classification"
    defaults = {
        "n_classes": 3,
        "n_channels": 2,
        "length": 40,
        "n_train": 60,
        "n_test": 60,
        "noise": 0.3,
        "separation": 1.0,
        "key": None,
    }

    def generate(self, params: Dict, seed: int) -> Dict[str, np.ndarray]:
        key = params["key"]
        dataset_spec = DatasetSpec(
            key=key if key is not None else f"TOY-{self.name}",
            full_name=f"registry {self.name} dataset",
            n_channels=int(params["n_channels"]),
            length=int(params["length"]),
            n_classes=int(params["n_classes"]),
            train_paper=int(params["n_train"]),
            test_paper=int(params["n_test"]),
            train_bench=int(params["n_train"]),
            test_bench=int(params["n_test"]),
            family=self.name,
            noise=float(params["noise"]),
            separation=float(params["separation"]),
        )
        u_train, y_train, u_test, y_test = generate_family(
            dataset_spec, int(params["n_train"]), int(params["n_test"]),
            seed=int(seed),
        )
        return {"u_train": u_train, "y_train": y_train,
                "u_test": u_test, "y_test": y_test}


def _register_families() -> None:
    for family in FAMILIES:
        cls = type(
            f"_{family.capitalize()}Family",
            (_FamilyGenerator,),
            {"name": family},
        )
        register_generator(cls)


_register_families()


def spec_for_dataset(
    key: str, *, size_profile: str = "bench", seed: int = 0
) -> GeneratorSpec:
    """The registry spec reproducing one of the paper's 12 datasets.

    ``generate(spec_for_dataset(key, seed=s))`` is bit-identical to
    ``load_dataset(key, seed=s)`` (pinned in ``tests/test_registry.py``).
    """
    ds = get_spec(key)
    n_train, n_test = ds.sizes(size_profile)
    return make_spec(
        ds.family,
        seed=seed,
        n_classes=ds.n_classes,
        n_channels=ds.n_channels,
        length=ds.length,
        n_train=n_train,
        n_test=n_test,
        noise=ds.noise,
        separation=ds.separation,
        key=ds.key,
    )


def dataset_from_spec(spec: GeneratorSpec):
    """Materialize a classification spec as a
    :class:`~repro.data.loaders.LoadedDataset` (the shape every search and
    bench harness consumes).  Series specs raise — stream those through
    :func:`generate_chunks` / the serve replayer instead.
    """
    from repro.data.loaders import LoadedDataset

    gen = get_generator(spec.name)
    params = gen.resolve(spec.params)
    if gen.kind_for(params) != "classification":
        raise ValueError(
            f"spec {spec.label()!r} is a series dataset; "
            f"dataset_from_spec needs a classification generator"
        )
    arrays = generate(spec)
    u_train = arrays["u_train"]
    _, length, n_channels = u_train.shape
    n_classes = int(max(arrays["y_train"].max(), arrays["y_test"].max())) + 1
    dataset_spec = DatasetSpec(
        key=spec.label(),
        full_name=f"registry spec {spec.label()}",
        n_channels=int(n_channels),
        length=int(length),
        n_classes=n_classes,
        train_paper=int(u_train.shape[0]),
        test_paper=int(arrays["u_test"].shape[0]),
        train_bench=int(u_train.shape[0]),
        test_bench=int(arrays["u_test"].shape[0]),
        family=spec.name,
        noise=float(params.get("noise", 0.0) or 0.0),
        separation=float(params.get("separation", 0.0) or 0.0),
    )
    return LoadedDataset(
        key=dataset_spec.key,
        u_train=u_train,
        y_train=arrays["y_train"],
        u_test=arrays["u_test"],
        y_test=arrays["y_test"],
        spec=dataset_spec,
    )

"""One strictness contract for every persisted JSON document reader.

Each reader starts from a document written by its own format's writer
and must refuse a non-dict (``TypeError``), an extra key, each missing
required key and, for the versioned formats, a foreign ``format`` or an
unsupported version (``ValueError`` naming the offending key or value).
"""

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from repro.bench.matrix import (
    compare_matrix_reports,
    parse_spec_arg,
    run_matrix,
)
from repro.core.pipeline import DFRFeatureExtractor, ExtractorConfig
from repro.data.registry import GeneratorSpec, make_spec
from repro.faults import FaultPlan, FaultSpec
from repro.readout.ridge import RidgeModel, fit_ridge
from repro.serve import ServableModel, ServeEngine, carry_from_doc


@dataclass
class Reader:
    read: Callable[[object], object]
    doc: dict                          # written by the format's own writer
    optional: tuple = ()               # keys the reader may go without
    version_key: Optional[str] = None  # None: the format is unversioned


NAMES = ("RidgeModel", "ExtractorConfig", "ServableModel", "session",
         "carry", "GeneratorSpec", "FaultSpec", "FaultPlan", "matrix report")
VERSIONED = ("ExtractorConfig", "ServableModel", "session", "GeneratorSpec",
             "FaultPlan", "matrix report")
WITH_FORMAT = tuple(name for name in VERSIONED if name != "ExtractorConfig")


@pytest.fixture(scope="module")
def readers():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((24, 16, 2))
    y = rng.integers(0, 3, 24)
    ext = DFRFeatureExtractor(n_nodes=5, seed=1).fit(u)
    feats, _ = ext.features(u, 0.4, 0.5)
    ridge = fit_ridge(feats, y, 1e-2)
    model = ServableModel(name="m0", A=0.4, B=0.5, config=ext.snapshot(),
                          readout=ridge)

    engine = ServeEngine()
    engine.deploy(model)
    sid = engine.open_session("m0")
    engine.submit(sid, u[0])
    engine.drain()
    session = engine.checkpoint_session(sid)
    engine.close_session(sid)

    report = run_matrix(
        [parse_spec_arg("harmonic:n_classes=2,n_train=8,n_test=8,length=12")],
        budget=1, n_nodes=4,
    )
    plan = FaultPlan(faults=[FaultSpec(kind="raise_sweep", at=0)], seed=3)
    versioned = dict(version_key="format_version")
    return {
        "RidgeModel": Reader(RidgeModel.from_dict, ridge.to_dict()),
        "ExtractorConfig": Reader(ExtractorConfig.from_dict,
                                  ext.snapshot().to_dict(),
                                  version_key="version"),
        "ServableModel": Reader(ServableModel.from_dict, model.to_dict(),
                                **versioned),
        # a restore that succeeds is closed again, so every case starts
        # from the same engine state
        "session": Reader(
            lambda doc: engine.close_session(engine.restore_session(doc)),
            session, **versioned),
        "carry": Reader(lambda doc: carry_from_doc(engine.backend, doc),
                        session["carry"]),
        "GeneratorSpec": Reader(GeneratorSpec.from_dict,
                                make_spec("narma", seed=3).to_dict(),
                                **versioned),
        "FaultSpec": Reader(
            FaultSpec.from_dict,
            FaultSpec(kind="delay_tick", at=1, delay_ms=2.0).to_dict(),
            optional=("times", "delay_ms")),
        "FaultPlan": Reader(FaultPlan.from_dict, plan.to_dict(), **versioned),
        "matrix report": Reader(
            lambda doc: compare_matrix_reports(doc, report), report,
            **versioned),
    }


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("name", NAMES)
def test_writer_output_is_accepted(readers, name):
    reader = readers[name]
    reader.read(reader.doc)
    for key in reader.optional:
        reader.read(_without(reader.doc, key))


@pytest.mark.parametrize("name", NAMES)
def test_non_dict_is_a_type_error(readers, name):
    for bad in ([], "document", 3):
        with pytest.raises(TypeError):
            readers[name].read(bad)


@pytest.mark.parametrize("name", NAMES)
def test_extra_key_is_named(readers, name):
    reader = readers[name]
    with pytest.raises(ValueError, match="'surplus'"):
        reader.read({**reader.doc, "surplus": 1})


@pytest.mark.parametrize("name", NAMES)
def test_each_missing_required_key_is_named(readers, name):
    reader = readers[name]
    required = sorted(set(reader.doc) - set(reader.optional))
    assert required
    for key in required:
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            reader.read(_without(reader.doc, key))


@pytest.mark.parametrize("name", VERSIONED)
def test_unsupported_version_is_refused(readers, name):
    reader = readers[name]
    with pytest.raises(ValueError, match=r"\b99\b"):
        reader.read({**reader.doc, reader.version_key: 99})


@pytest.mark.parametrize("name", WITH_FORMAT)
def test_foreign_format_is_refused(readers, name):
    reader = readers[name]
    with pytest.raises(ValueError, match="something-else"):
        reader.read({**reader.doc, "format": "something-else"})


def test_nonlinearity_entry_is_strict(readers):
    reader = readers["ExtractorConfig"]
    entry = reader.doc["nonlinearity"]
    with pytest.raises(ValueError, match="'surplus'"):
        reader.read({**reader.doc, "nonlinearity": {**entry, "surplus": 1}})
    with pytest.raises(ValueError, match="'name'"):
        reader.read({**reader.doc,
                     "nonlinearity": _without(entry, "name")})
    reader.read({**reader.doc, "nonlinearity": _without(entry, "params")})

"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["explicit", "env"])
def float32_spec(request, monkeypatch):
    """The ``backend=`` argument of a float32 run, by either route.

    ``explicit`` passes ``"numpy@float32"``; ``env`` passes ``None`` with
    the spec set only through ``REPRO_BACKEND``.
    """
    if request.param == "env":
        monkeypatch.setenv("REPRO_BACKEND", "numpy@float32")
        return None
    return "numpy@float32"

"""Tests for ``env_knob``: the one resolver behind every ``REPRO_*`` knob.

Resolution order is explicit value, then the environment variable, then
the default.  Two env policies exist: a *strict* knob raises a
``ValueError`` naming the variable on a bad value, a *lenient* knob (a
best-effort fleet-wide hint) falls back to its default.  A bad explicit
value raises under both.  Settings that are constructor arguments only
read no variable at all.
"""

from functools import partial

import pytest

from repro.backend import BACKEND_ENV_VAR, default_backend
from repro.backend.scan import (
    FILTER_IMPL_ENV_VAR,
    SCAN_CROSSOVER_ENV_VAR,
    resolve_filter_impl,
    scan_crossover,
)
from repro.core.population import (
    DEFAULT_POPULATION,
    POPULATION_ENV_VAR,
    resolve_population,
)
from repro.exec import (
    BLOCK_SIZE_ENV_VAR,
    DEFAULT_CANDIDATE_BLOCK_SIZE,
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF_MS,
    EXECUTOR_ENV_VAR,
    WORKERS_ENV_VAR,
    BackendExecutor,
    MultiprocessExecutor,
    resolve_candidate_block_size,
    resolve_executor_kind,
    resolve_workers,
)
from repro.serve import DEFAULT_MAX_BATCH, ServeEngine
from repro.utils.validation import check_at_least, check_choice, env_knob

ENV = "REPRO_TEST_KNOB"


def _positive(n):
    return check_at_least(n, 1, name="knob")


def _int_via_float(raw):
    # "inf" and "1e400" parse as floats, then overflow int()
    return int(float(raw))


@pytest.fixture(autouse=True)
def _unset(monkeypatch):
    monkeypatch.delenv(ENV, raising=False)


class TestEnvKnob:
    @pytest.mark.parametrize("lenient", [False, True])
    def test_explicit_value_beats_env(self, monkeypatch, lenient):
        monkeypatch.setenv(ENV, "7")
        assert env_knob(3, ENV, int, 5, _positive, lenient=lenient) == 3

    def test_env_value_is_stripped_parsed_and_checked(self, monkeypatch):
        monkeypatch.setenv(ENV, "  7 ")
        assert env_knob(None, ENV, int, 5, _positive) == 7

    @pytest.mark.parametrize("raw", [None, "", "   "])
    @pytest.mark.parametrize("lenient", [False, True])
    def test_unset_or_blank_gives_default(self, monkeypatch, raw, lenient):
        if raw is not None:
            monkeypatch.setenv(ENV, raw)
        assert env_knob(None, ENV, int, 5, _positive, lenient=lenient) == 5
        # the default itself is not checked: None means "no override"
        assert env_knob(None, ENV, str, None, lenient=lenient) is None

    @pytest.mark.parametrize("raw", ["abc", "0", "nan", "inf", "1e400"])
    def test_strict_failure_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(ENV, raw)
        with pytest.raises(ValueError, match=ENV) as info:
            env_knob(None, ENV, _int_via_float, 5, _positive)
        assert repr(raw) in str(info.value)

    @pytest.mark.parametrize("raw", ["abc", "0", "nan", "inf", "1e400"])
    def test_lenient_failure_gives_default(self, monkeypatch, raw):
        monkeypatch.setenv(ENV, raw)
        assert env_knob(None, ENV, _int_via_float, 5, _positive,
                        lenient=True) == 5

    @pytest.mark.parametrize("lenient", [False, True])
    def test_bad_explicit_value_raises(self, monkeypatch, lenient):
        monkeypatch.setenv(ENV, "7")
        with pytest.raises(ValueError, match="knob must be >= 1, got 0"):
            env_knob(0, ENV, int, 5, _positive, lenient=lenient)

    def test_checks(self):
        assert check_at_least("3", 0, name="k") == 3
        assert check_at_least(3.0, 0, name="k") == 3
        # an integer setting never truncates, and inf is not an integer
        for bad in (2.9, "2.9", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="k must be an integer"):
                check_at_least(bad, 0, name="k")
        assert check_at_least("inf", 0, name="k", cast=float) == float("inf")
        with pytest.raises(ValueError, match="finite and >= 0"):
            check_at_least("inf", 0, name="k", cast=float, finite=True)
        with pytest.raises(ValueError):
            check_at_least("nan", 0, name="k", cast=float)
        assert check_choice(" Scan ", ("auto", "scan"), name="k") == "scan"
        with pytest.raises(ValueError, match="auto, scan; got 'fft'"):
            check_choice("fft", ("auto", "scan"), name="k")


# every scalar REPRO_* knob and its env policy
LENIENT = [
    (resolve_workers, WORKERS_ENV_VAR, 1),
    (resolve_candidate_block_size, BLOCK_SIZE_ENV_VAR,
     DEFAULT_CANDIDATE_BLOCK_SIZE),
    (resolve_population, POPULATION_ENV_VAR, DEFAULT_POPULATION),
]
STRICT = [
    (resolve_executor_kind, EXECUTOR_ENV_VAR),
    (resolve_filter_impl, FILTER_IMPL_ENV_VAR),
    (scan_crossover, SCAN_CROSSOVER_ENV_VAR),
    (default_backend, BACKEND_ENV_VAR),
    (BackendExecutor, BACKEND_ENV_VAR),
]
# a row's id is its variable; a later resolver of the same variable adds
# its own name, so the ids stay unique and the first row's never moves
STRICT_IDS = [
    env_var if all(row[1] != env_var for row in STRICT[:i])
    else f"{env_var}-{resolve.__name__}"
    for i, (resolve, env_var) in enumerate(STRICT)
]


@pytest.mark.parametrize("raw", ["abc", "-1"])
@pytest.mark.parametrize("resolve, env_var, default", LENIENT,
                         ids=[row[1] for row in LENIENT])
def test_lenient_knobs_fall_back(monkeypatch, resolve, env_var, default, raw):
    monkeypatch.setenv(env_var, raw)
    assert resolve() == default


@pytest.mark.parametrize("raw", ["abc", "-1"])
@pytest.mark.parametrize("resolve, env_var", STRICT, ids=STRICT_IDS)
def test_strict_knobs_name_the_variable(monkeypatch, resolve, env_var, raw):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setenv(env_var, raw)
    with pytest.raises(ValueError, match=env_var):
        resolve()


# variables whose settings are constructor arguments only: spelled out
# here, because no module defines them
RETIRED = ["REPRO_MAX_RETRIES", "REPRO_RETRY_BACKOFF_MS",
           "REPRO_TASK_TIMEOUT_MS", "REPRO_SERVE_MAX_BATCH",
           "REPRO_SERVE_MAX_PENDING", "REPRO_SERVE_DEADLINE_MS",
           "REPRO_SERVE_IDLE_TTL_MS"]


@pytest.mark.parametrize("env_var", RETIRED)
def test_retired_variables_are_ignored(monkeypatch, env_var):
    monkeypatch.setenv(env_var, "7")
    with MultiprocessExecutor(1) as executor:
        assert (executor.max_retries, executor.backoff_ms,
                executor.task_timeout_ms) == (
            DEFAULT_MAX_RETRIES, DEFAULT_RETRY_BACKOFF_MS, 0.0)
    engine = ServeEngine()
    assert (engine.max_batch, engine.max_pending, engine.deadline_ms,
            engine.idle_ttl_ms) == (DEFAULT_MAX_BATCH, 0, 0.0, 0.0)


# the same seven settings, each still checked as an explicit argument
SETTINGS = [
    (partial(MultiprocessExecutor, 1), "max_retries"),
    (partial(MultiprocessExecutor, 1), "backoff_ms"),
    (partial(MultiprocessExecutor, 1), "task_timeout_ms"),
    (ServeEngine, "max_batch"),
    (ServeEngine, "max_pending"),
    (ServeEngine, "deadline_ms"),
    (ServeEngine, "idle_ttl_ms"),
]


@pytest.mark.parametrize("raw", ["abc", "-1"])
@pytest.mark.parametrize("make, setting", SETTINGS,
                         ids=[row[1] for row in SETTINGS])
def test_retired_settings_name_themselves(make, setting, raw):
    with pytest.raises(ValueError, match=setting):
        make(**{setting: raw})


@pytest.mark.parametrize("raw", [float("inf"), "1e400", 2.7, "abc", -1],
                         ids=["inf", "1e400", "2.7", "abc", "-1"])
def test_max_retries_rejects_any_non_integer(raw):
    # inf used to raise OverflowError, and 2.7 was truncated to 2
    with pytest.raises(ValueError, match="max_retries"):
        MultiprocessExecutor(1, max_retries=raw)

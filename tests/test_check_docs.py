"""Unit tests for ``tools/check_docs.py``'s CLI-flag, keyword and env-name
drift checks.

The tool lives outside the installed package, so it is loaded straight
from its file.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"

DOC = """\
Run `repro-bench table1 --datasets LIB --backend numpy@float32` or
`repro-bench --workers`; `tools/bench_history.py --suite serve` is
another tool.

| `repro-bench fig6` | Fig. 6 | `--divisions`, `--workers` |

A span may wrap: `repro-bench fig6
--size-profile bench`.

```bash
repro-bench serve --streams 4 \\
  --chunk-len 16
repro-bench serve --json - | python -m json.tool --sort-keys
```
"""


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs_tool",
                                                  TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(check_docs, text):
    return check_docs.check_cli_flags("DOC.md", text,
                                      check_docs.cli_options())


def test_parser_flags_pass(check_docs):
    assert check(check_docs, DOC) == []


@pytest.mark.parametrize("old, new", [
    ("--datasets LIB", "--dtype float32"),
    ("`repro-bench --workers`", "`repro-bench --nope`"),
    ("`--divisions`", "`--window`"),
    ("  --chunk-len 16", "  --chunk-size 16"),
    ("repro-bench serve --streams", "repro-bench serv --streams"),
    ("--size-profile bench", "--size bench"),
], ids=["subcommand-flag", "bare-flag", "table-row", "continued-line",
        "subcommand", "wrapped-span"])
def test_drift_is_reported(check_docs, old, new):
    assert old in DOC
    failures = check(check_docs, DOC.replace(old, new, 1))
    assert len(failures) == 1 and failures[0].startswith("DOC.md: ")


KEYWORD_DOC = """\
Fit with `DFRClassifier(search="descent", population=8,
batch_size=16)`, or descend alone with `PopulationDescent(ext,
trainer_config=cfg, seed=4)`, whose `seed` its search base takes.
`SimulatedAnnealing.search(u, y, u_t, y_t, speculative=4)` and
`TrainerConfig(backend="numpy@float32")` check too; `np.zeros(shape=3)`,
`run(depth=2)` and `DFRClassifier(seed == 0)` are not calls to check.

```python
engine = ServeEngine(max_batch=32, deadline_ms=10.0)
plan = FaultPlan(faults=[FaultSpec(kind="raise_sweep", at=1)],
                 seed=11)
```
"""


def check_keywords(check_docs, text):
    return check_docs.check_keywords("DOC.md", text,
                                     check_docs.exported_names())


def test_accepted_keywords_pass(check_docs):
    failures, n_calls = check_keywords(check_docs, KEYWORD_DOC)
    assert failures == []
    assert n_calls == 7


@pytest.mark.parametrize("old, new", [
    ("batch_size=16", "batch_sise=16"),
    ("seed=4", "sede=4"),
    ("speculative=4", "speculate=4"),
    ("SimulatedAnnealing.search", "SimulatedAnnealing.serch"),
    ("deadline_ms=10.0", "deadline=10.0"),
    ("seed=11", "sead=11"),
], ids=["wrapped-span", "mro-kwargs", "method", "missing-method",
        "fenced-line", "fenced-later-line"])
def test_keyword_drift_is_reported(check_docs, old, new):
    assert old in KEYWORD_DOC
    failures, _ = check_keywords(check_docs,
                                 KEYWORD_DOC.replace(old, new, 1))
    assert len(failures) == 1 and failures[0].startswith("DOC.md: ")


def test_env_names_must_be_defined(check_docs):
    # a variable the package reads and a gate floor a benchmark reads pass
    text = "Run with `REPRO_WORKERS=2`; CI sets `REPRO_SPEEDUP_FLOOR=1.5`."
    assert check_docs.check_env_mentions("DOC.md", text) == []
    # a variable nothing under src/repro, benchmarks/ or tools/ reads fails
    failures = check_docs.check_env_mentions(
        "DOC.md", text + " `REPRO_NO_SUCH_KNOB=16 repro-bench serve`")
    assert len(failures) == 1
    assert failures[0].startswith("DOC.md: names REPRO_NO_SUCH_KNOB")

"""Unit tests for ``tools/check_docs.py``'s CLI-flag drift check.

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
], ids=["subcommand-flag", "bare-flag", "table-row", "continued-line",
        "subcommand"])
def test_drift_is_reported(check_docs, old, new):
    assert old in DOC
    failures = check(check_docs, DOC.replace(old, new, 1))
    assert len(failures) == 1 and failures[0].startswith("DOC.md: ")

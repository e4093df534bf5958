#!/usr/bin/env python
"""Documentation checker: snippets, links, env-var, CLI and keyword drift.

Five checks, all cheap enough to gate CI (the ``docs`` job runs this):

1. **Snippet execution.**  Every fenced ``python`` code block immediately
   preceded by an ``<!-- check:exec -->`` marker is executed in a fresh
   namespace, in repo-root working directory, with ``src/`` importable.
   The README quickstart carries the marker, so the front-door example can
   never silently rot.
2. **Link integrity.**  Every relative markdown link/image target in the
   checked files must exist on disk (anchors are stripped; external
   ``http(s)``/``mailto`` links are not fetched).
3. **Env-var drift.**  When README.md is checked, the ``REPRO_*`` names it
   mentions must equal the ``"REPRO_*"`` string literals under
   ``src/repro``, in both directions: every variable the package reads is
   documented, and no documented variable is stale.  EXPERIMENTS.md and
   docs/ARCHITECTURE.md may name only variables that some string literal
   under ``src/repro``, ``benchmarks/`` or ``tools/`` defines (the
   benchmark gates' floors live in the latter two).
4. **CLI-flag drift.**  In README.md, EXPERIMENTS.md and
   docs/ARCHITECTURE.md, every ``repro-bench <subcommand> ... --flag`` in
   code (a fenced line, an inline code span, or the later code spans of
   the same table row) must name a subcommand and flags that
   ``repro.bench.__main__.build_parser()`` defines; a bare
   ``repro-bench --flag`` must be an option of some subcommand.
   ROADMAP.md is left out: it names commands that are only planned.
5. **Keyword drift.**  In the same three files, a call in code written
   ``Name(kw=...)`` or ``Name.method(kw=...)``, where ``Name`` is in some
   ``repro`` module's ``__all__``, may pass only keywords that callable
   accepts — or, when its signature takes ``**kwargs``, that the same
   method of a class in its MRO accepts.  A ``python`` fence is parsed
   with :mod:`ast`, so a call's keywords count on every line it spans;
   inline code spans count even when they wrap a line, and other fences
   line by line.

Usage::

    python tools/check_docs.py [files...]   # default: README.md,
                                            # EXPERIMENTS.md, ROADMAP.md,
                                            # docs/ARCHITECTURE.md

Exit code 0 when everything passes; 1 with a per-failure report otherwise.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = [
    "README.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
]

EXEC_MARKER = "<!-- check:exec -->"
FENCE_RE = re.compile(
    r"(?P<marker><!-- check:exec -->\s*\n)?```python\n(?P<code>.*?)```",
    re.DOTALL,
)
# [text](target) and ![alt](target); ignores external schemes below
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
ENV_NAME_RE = re.compile(r"REPRO_[A-Z0-9_]+")
ENV_LITERAL_RE = re.compile(r"[\"'](REPRO_[A-Z0-9_]+)[\"']")
CLI = "repro-bench"
DRIFT_FILES = ("README.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md")
# the files whose REPRO_* names must be defined somewhere, and where
ENV_MENTION_FILES = ("EXPERIMENTS.md", "docs/ARCHITECTURE.md")
ENV_SOURCES = ("src/repro", "benchmarks", "tools")
INLINE_CODE_RE = re.compile(r"(`+)(.+?)(?<!`)\1(?!`)", re.DOTALL)
SUBCOMMAND_RE = re.compile(r"[a-z][a-z0-9-]*")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# tokens after which a shell line no longer belongs to the command
SHELL_BREAKS = {"|", "||", "&&", ";", "#"}
# `Name(` or `Name.method(`, not preceded by a dotted owner
CALL_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?\(")
KEYWORD_RE = re.compile(r"(?:^|[,\s])([A-Za-z_]\w*)\s*=(?!=)")


def iter_exec_blocks(text: str):
    """Yield the code of every ``check:exec``-marked python fence."""
    for match in FENCE_RE.finditer(text):
        if match.group("marker"):
            yield match.group("code")


def check_links(path: Path, text: str) -> list:
    failures = []
    base = path.parent
    for target in LINK_RE.findall(text):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        resolved = (base / target.split("#")[0]).resolve()
        if not resolved.exists():
            failures.append(f"{path}: broken link -> {target}")
    return failures


def env_literals(*dirs: str) -> set:
    """The ``"REPRO_*"`` string literals of the ``.py`` files under ``dirs``."""
    return {name for d in dirs for path in (REPO_ROOT / d).rglob("*.py")
            for name in ENV_LITERAL_RE.findall(
                path.read_text(encoding="utf-8"))}


def check_env_names(readme_text: str) -> list:
    documented = set(ENV_NAME_RE.findall(readme_text))
    defined = env_literals("src/repro")
    return (
        [f"README.md: documents {name}, which no src/repro literal defines"
         for name in sorted(documented - defined)]
        + [f"README.md: does not document {name}, defined in src/repro"
           for name in sorted(defined - documented)]
    )


def check_env_mentions(name: str, text: str) -> list:
    """A ``REPRO_*`` name in ``text`` that no literal in
    :data:`ENV_SOURCES` defines is a variable nothing reads."""
    stale = set(ENV_NAME_RE.findall(text)) - env_literals(*ENV_SOURCES)
    return [f"{name}: names {env}, which no literal under "
            f"{', '.join(ENV_SOURCES)} defines" for env in sorted(stale)]


def cli_options() -> dict:
    """``repro-bench`` subcommand -> its option strings, from the parser."""
    import argparse

    from repro.bench.__main__ import build_parser

    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        name: {opt for action in parser._actions
               for opt in action.option_strings}
        for name, parser in subparsers.choices.items()
    }


def inline_spans(text: str) -> list:
    """The inline code spans of ``text``, a wrapped span joined by a space."""
    return [m.group(2).replace("\n", " ")
            for m in INLINE_CODE_RE.finditer(text)]


def code_spans(text: str):
    """Yield ``(spans, is_table_row)``: the code of each line or paragraph.

    A fenced line is one span (backslash continuations joined); a table
    row gives its inline code spans; a prose paragraph gives its inline
    code spans, including one that wraps a line.
    """
    fenced = False
    pending = ""
    paragraph = []
    for line in text.splitlines() + [""]:
        stripped = line.lstrip()
        is_fence = stripped.startswith("```")
        is_table_row = stripped.startswith("|")
        if paragraph and (fenced or is_fence or is_table_row or not stripped):
            yield inline_spans("\n".join(paragraph)), False
            paragraph = []
        if is_fence:
            fenced = not fenced
            pending = ""
        elif fenced:
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            yield [pending + line], False
            pending = ""
        elif is_table_row:
            yield inline_spans(line), True
        elif stripped:
            paragraph.append(line)


def check_cli_flags(name: str, text: str, options: dict) -> list:
    any_option = set().union(*options.values())
    failures = []
    for spans, is_table_row in code_spans(text):
        sub = None  # the open command: a subcommand, "" when bare
        for span in spans:
            tokens = span.split()
            # only a table row's later cells may list flags of its command
            if not (is_table_row and tokens and tokens[0].startswith("--")):
                sub = None
            for i, token in enumerate(tokens):
                if token in SHELL_BREAKS:
                    sub = None
                elif token == CLI:
                    nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
                    sub = nxt if SUBCOMMAND_RE.fullmatch(nxt) else ""
                    if sub and sub not in options:
                        failures.append(f"{name}: `{CLI} {sub}` is not a "
                                        f"{CLI} subcommand")
                        sub = None
                elif sub is not None and (match := FLAG_RE.match(token)):
                    flag = match.group(0)
                    if flag not in (options[sub] if sub else any_option):
                        where = (f"`{CLI} {sub}`" if sub
                                 else f"any {CLI} subcommand")
                        failures.append(f"{name}: {flag} is not an option "
                                        f"of {where}")
    return failures


def exported_names() -> dict:
    """Name -> the ``repro`` modules whose ``__all__`` lists it."""
    src = REPO_ROOT / "src"
    exported = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                for name in ast.literal_eval(node.value):
                    exported.setdefault(name, []).append(module)
    return exported


def call_keywords(code: str, start: int) -> list:
    """The keywords passed at the top level of the call opened just
    before ``code[start]`` (string contents and nested brackets skipped)."""
    depth = 1
    quote = None
    top = []
    for ch in code[start:]:
        if quote:
            quote = None if ch == quote else quote
            continue
        if ch in "\"'":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif depth == 1:
            top.append(ch)
    return KEYWORD_RE.findall("".join(top))


def _keyword_names(func) -> tuple:
    """``(names, takes_var_keyword)`` of ``func``'s signature."""
    params = inspect.signature(func).parameters.values()
    names = {p.name for p in params
             if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    return names, any(p.kind is p.VAR_KEYWORD for p in params)


def accepted_keywords(owner, method) -> set | None:
    """Keywords ``owner(...)`` or ``owner.method(...)`` accepts; ``None``
    when a ``**kwargs`` signature passes them somewhere other than the
    same method of a class in ``owner``'s MRO."""
    target = owner if method is None else getattr(owner, method)
    try:
        names, open_ended = _keyword_names(target)
    except (TypeError, ValueError):  # no introspectable signature
        return None
    if not open_ended:
        return names
    attr = method or "__init__"
    bases = [klass for klass in getattr(owner, "__mro__", ())[1:]
             if klass is not object and attr in vars(klass)]
    if not bases:
        return None
    for klass in bases:
        names |= _keyword_names(getattr(klass, attr))[0]
    return names


def resolve_export(name: str, modules: list):
    """The object ``name`` exports from the first of ``modules`` that
    imports on this host (``None`` if none does)."""
    for module in modules:
        try:
            return getattr(importlib.import_module(module), name)
        except ImportError:
            continue
    return None


def calls(text: str):
    """Yield ``(name, method, keywords)`` for each call written in code.

    A ``python`` fence's calls come from its syntax tree; the calls of
    every other span, and of a fence that does not parse, are matched by
    :data:`CALL_RE`.  ``method`` is ``None`` for ``Name(...)``.
    """
    rest = text
    for match in FENCE_RE.finditer(text):
        try:
            tree = ast.parse(match.group("code"))
        except SyntaxError:
            continue
        rest = rest.replace(match.group(0), "", 1)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                owner, method = func.id, None
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)):
                owner, method = func.value.id, func.attr
            else:
                continue
            yield owner, method, [kw.arg for kw in node.keywords if kw.arg]
    for spans, _ in code_spans(rest):
        for span in spans:
            for match in CALL_RE.finditer(span):
                yield (*match.groups(), call_keywords(span, match.end()))


def check_keywords(name: str, text: str, exported: dict) -> tuple:
    """Keyword-drift failures in ``text`` and the number of calls checked."""
    failures = []
    n_calls = 0
    for owner_name, method, keywords in calls(text):
        if owner_name not in exported or not keywords:
            continue
        owner = resolve_export(owner_name, exported[owner_name])
        if owner is None:
            continue
        call = owner_name + (f".{method}" if method else "")
        if method is not None and not hasattr(owner, method):
            failures.append(f"{name}: `{call}` does not exist")
            continue
        accepted = accepted_keywords(owner, method)
        n_calls += 1
        if accepted is None:
            continue
        failures.extend(f"{name}: `{call}` takes no keyword {kw!r}"
                        for kw in keywords if kw not in accepted)
    return failures, n_calls


def run_snippet(source_name: str, code: str) -> list:
    namespace = {"__name__": "__main__"}
    start = time.perf_counter()
    try:
        exec(compile(code, f"<{source_name} snippet>", "exec"), namespace)
    except Exception as exc:  # report, don't crash the checker
        return [f"{source_name}: snippet raised {type(exc).__name__}: {exc}"]
    print(f"  executed snippet from {source_name} "
          f"({time.perf_counter() - start:.1f}s)")
    return []


def main(argv=None) -> int:
    args = (argv if argv is not None else sys.argv[1:]) or DEFAULT_FILES
    sys.path.insert(0, str(REPO_ROOT / "src"))
    failures = []
    exported = exported_names()
    for name in args:
        path = REPO_ROOT / name
        if not path.exists():
            failures.append(f"{name}: file not found")
            continue
        text = path.read_text(encoding="utf-8")
        failures.extend(check_links(path, text))
        if name == "README.md":
            failures.extend(check_env_names(text))
        if name in ENV_MENTION_FILES:
            failures.extend(check_env_mentions(name, text))
        if name in DRIFT_FILES:
            failures.extend(check_cli_flags(name, text, cli_options()))
            drift, n_calls = check_keywords(name, text, exported)
            failures.extend(drift)
            print(f"  checked the keywords of {n_calls} calls in {name}")
        for code in iter_exec_blocks(text):
            failures.extend(run_snippet(name, code))
    if failures:
        print("\nDOCS CHECK FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("docs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

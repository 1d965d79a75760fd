"""A stdlib lint guard over the package source.

Claims:
    - no module of ``platonic`` imports a name it never reads, unless the
      import line carries ``# noqa: F401`` (pyflakes' code for it)
    - every name in ``platonic.__all__`` resolves
    - every cache keyed by arguments is ``lru_cache(maxsize=256)``: no
      function that takes arguments is decorated with ``functools.cache``
      or with an ``lru_cache`` of any other bound, so a long-lived process
      keeps at most 256 entries per table
    - the package source, ``src/platonic/*.py`` together, stays within the
      2087-line baseline (counted as ``wc -l`` counts) that the roadmap's
      simplicity aim set
"""

import ast
from pathlib import Path

import pytest

import platonic

SRC = Path(platonic.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
BASELINE_LINES = 2087  # src/ size when the roadmap's simplicity aim was set


def unread_imports(source: str) -> list[str]:
    """Names bound by an import and never loaded, in line order.

    A name listed in ``__all__`` counts as read: the package re-exports it.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unread.append(name)
    return unread


def test_checker_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from json import dumps, loads  # noqa: F401\n"
              "__all__ = ['loads']\nprint(sys.argv)\n")
    assert unread_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def badly_cached(source: str) -> list[str]:
    """Functions taking arguments whose cache is not ``lru_cache(maxsize=256)``."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            bound = ([kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
                     if call else [])
            bounded = (len(bound) == 1 and isinstance(bound[0], ast.Constant)
                       and bound[0].value == 256)
            if name == "cache" or (name == "lru_cache" and not bounded):
                flagged.append(node.name)
    return flagged


def test_checker_finds_a_cache_off_the_bound():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@cache\ndef a(x): pass\n@functools.cache\ndef b(*xs): pass\n"
              "@lru_cache\ndef c(x): pass\n@lru_cache()\ndef d(x): pass\n"
              "@lru_cache(maxsize=None)\ndef e(x): pass\n@lru_cache(128)\ndef f(x): pass\n"
              "@cache\ndef parser(): pass\n@lru_cache(maxsize=256)\ndef g(x): pass\n"
              "@functools.lru_cache(256)\ndef h(*, x): pass\n")
    assert badly_cached(source) == ["a", "b", "c", "d", "e", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert badly_cached(path.read_text(encoding="utf-8")) == []


def test_all_resolves():
    missing = [name for name in platonic.__all__ if not hasattr(platonic, name)]
    assert missing == []


def test_source_within_line_baseline():
    lines = sum(path.read_text(encoding="utf-8").count("\n") for path in MODULES)
    assert lines <= BASELINE_LINES

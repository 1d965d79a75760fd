"""A stdlib lint guard over the package source.

Claims:
    - no module of ``platonic`` imports a name it never reads, unless the
      import line carries ``# noqa: F401`` (pyflakes' code for it)
    - every name in ``platonic.__all__`` resolves
"""

import ast
from pathlib import Path

import pytest

import platonic

SRC = Path(platonic.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


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


def test_all_resolves():
    missing = [name for name in platonic.__all__ if not hasattr(platonic, name)]
    assert missing == []

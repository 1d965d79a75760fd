"""The README's examples run as printed.

The ``## Library`` section's python block is executed in a fresh
namespace, and every ``platonic ...`` line of the ``## Command line``
examples goes through ``cli.main``, so a renamed function, field, verb or
flag breaks this test rather than leaving the example stale.
"""

import re
from pathlib import Path

import pytest

from platonic.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The block's code, on the line numbers it has in the README."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```python\n(.*?)```", re.S).search(text, text.index("\n## Library\n"))
    return "\n" * text.count("\n", 0, block.start(1)) + block.group(1)


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["vertices"].size == 12
    assert len(namespace["triangles"]) == 20
    assert len(namespace["corners"]) == 3
    # one line per face class: 2n rows for the rank-3 H3
    assert len(capsys.readouterr().out.splitlines()) == 6


def command_lines() -> list[list[str]]:
    """The argument lists of the Command line section's examples, comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```sh\n(.*?)```", re.S).search(text, text.index("\n## Command line\n"))
    return [line.split("#")[0].split()[1:] for line in block.group(1).splitlines()
            if line.startswith("platonic ")]


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_runs(argv, tmp_path, capsys):
    argv, written = list(argv), None
    if "--out" in argv:
        at = argv.index("--out") + 1
        written = argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out or (written and Path(written).read_text(encoding="utf-8"))

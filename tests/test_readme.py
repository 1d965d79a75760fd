"""The README's library example runs as printed.

The ``## Library`` section's python block is executed in a fresh
namespace, so a renamed function or field breaks this test rather than
leaving the example stale.
"""

import re
from pathlib import Path

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

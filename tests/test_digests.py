"""Every benchmark operation still gives its recorded output.

Claims:
    - ``platonic`` is imported from this checkout's ``src/``
    - each operation of ``workloads.every_op`` (every operation the four
      benchmark workloads can produce) runs once without error and passes
      its own check, and its output's sha256 equals the digest recorded in
      ``perfbench/digests.json``; there is one operation per digest

The benchmark's modules are only imported and read; nothing is written.
"""

import sys
from pathlib import Path

import platonic

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_platonic_comes_from_this_checkout():
    assert Path(platonic.__file__).resolve().parent == ROOT / "src" / "platonic"


def test_every_operation_matches_its_digest():
    digests = workloads.load_digests()
    ops = workloads.every_op(digests, spans.functools_caches())
    assert sorted(op.key for op in ops) == sorted(digests)
    errors = []
    for op in ops:
        error = op.prepare() or op.verdict(op.run()).error
        if error:
            errors.append(error)
    assert errors == []

"""Record ``digests.json``: the sha256 of every output the workloads can produce.

    python3 perfbench/record_digests.py

The table is the oracle for "identical output": record it once, at the
commit that defines the benchmark, and never again to make a run pass.
Each operation is run once, cold where its workload is cold.
"""

from __future__ import annotations

import json
import sys

from run import SRC

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    caches = spans.functools_caches()
    table = {}
    for op in workloads.every_op(table, caches):
        error = op.prepare()
        result = op.run()
        checked = op.check(result)
        error = error or checked.error
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        table[op.key] = workloads.sha256(op.output(result))
    workloads.DIGESTS_PATH.write_text(
        json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} digests in {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from platonic import facelattice  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def digests():
    return workloads.load_digests()


@pytest.fixture(scope="module")
def caches():
    return spans.functools_caches()


def _keys(workload, seed, digests, caches, passes=2):
    stream = workloads.WORKLOADS[workload](seed, digests, caches)
    return [[op.key for op in next(stream)] for _ in range(passes)]


@pytest.mark.parametrize("workload", ["lattice", "orbits", "queries"])
def test_seed_fixes_the_inputs(workload, digests, caches):
    assert _keys(workload, 7, digests, caches) == _keys(workload, 7, digests, caches)
    assert _keys(workload, 7, digests, caches) != _keys(workload, 8, digests, caches)


def test_every_generated_operation_has_a_digest(digests, caches):
    for workload in workloads.WORKLOADS:
        for keys in _keys(workload, 3, digests, caches, passes=3):
            assert all(key in digests for key in keys)
    for op in workloads.warmup_ops("queries", digests):
        assert op.key in digests


def _run_one(op):
    measured = run.Run()
    run.run_op(op, measured, None)
    return measured


def test_correct_operations_pass(digests, caches):
    for op in (workloads.LatticeOp("B4", "left", digests, caches),
               workloads.OrbitOp("H3", "right", digests, caches),
               workloads.QueryOp(("faces", "A3", "left"), digests)):
        measured = _run_one(op)
        assert (measured.attempted, measured.failed) == (1, 0), measured.errors
        assert measured.items > 0


def test_off_by_one_face_count_fails_operations(monkeypatch, digests, caches):
    real = facelattice.face_count
    monkeypatch.setattr(facelattice, "face_count", lambda d, dec: real(d, dec) + 1)
    for op in (workloads.LatticeOp("B4", "left", digests, caches),
               workloads.QueryOp(("faces", "A3", "left"), digests)):
        measured = _run_one(op)
        assert (measured.attempted, measured.failed) == (1, 1)
        assert measured.items == 0


def test_corrupted_digest_fails_the_operation(digests):
    op = workloads.QueryOp(("info", "H4"), digests)
    tampered = dict(digests)
    tampered[op.key] = "0" * 64
    op.digests = tampered
    measured = _run_one(op)
    assert measured.failed == 1
    assert "recorded digest" in measured.errors[0]


def test_failing_cli_request_is_a_failed_operation(digests):
    measured = _run_one(workloads.QueryOp(("info", "Z9"), digests))
    assert measured.failed == 1
    assert "exit code 1" in measured.errors[0]


def test_clearing_leaves_every_cache_cold(caches):
    named = {"diagram.build", "diagram.cartan_matrix", "diagram.gram_matrix_weights",
             "orbit._sparse_rows", "orbit._orbit", "facelattice.enumerate_faces"}
    assert named <= set(caches)
    workloads.QueryOp(("faces", "B3", "left", "--json"), {}).run()
    assert any(cache.cache_info().currsize for cache in caches.values())
    assert workloads.clear_caches(caches) is None
    assert all(cache.cache_info().hits == 0 for cache in caches.values())


def test_tracer_wraps_every_import_site_while_an_operation_runs(digests, caches):
    modules = spans.layer_modules()
    sites = [(modules["facelattice"], "orbit"), (modules["facelattice"], "reflect"),
             (modules["export"], "enumerate_faces"), (sys.modules["platonic"], "orbit"),
             (modules["orbit"], "orbit")]
    before = [getattr(mod, attr) for mod, attr in sites]
    tracer = spans.Tracer()
    during = tracer.run(lambda: [getattr(mod, attr) for mod, attr in sites])
    assert all(wrapped.__wrapped__ is fn for wrapped, fn in zip(during, before))
    measured = run.Run()
    run.run_op(workloads.LatticeOp("B4", "right", digests, caches), measured, tracer)
    assert [getattr(mod, attr) for mod, attr in sites] == before
    assert measured.failed == 0, measured.errors
    calls, self_s = tracer.aggregate()
    assert calls[spans.ROOT] == 2
    # export builds the four classes; the report reads three of them again
    assert calls["facelattice.enumerate_faces"] == 7
    assert tracer.counts["facelattice.enumerate_faces.misses"] == 4
    assert tracer.counts["orbit.reflect.calls"] > 0
    assert tracer.counts["qsqrt5.ops"] > 0
    root = [s for s in tracer.spans if tracer.names[s[0]] == spans.ROOT][-1]
    op_self = sum(self_s.values()) - (tracer.spans[0][2] - tracer.spans[0][1])
    assert op_self == pytest.approx(root[2] - root[1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_ones_in_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Measure the benchmark's baseline and write ``baseline.json``.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

For each workload of ``BENCHMARK.json`` this makes one untraced run per
seed (1..N) and one traced run (seed 1), as ``run.py`` subprocesses, one
at a time.  Every end-to-end metric gets its median, quartiles and spread
(quartile distance over median, ``statistics.quantiles(values, n=4)``);
the traced run gives the per-layer numbers and the tracing overhead.  The
file also records the machine, the commit, and which end-to-end metric each
per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

from run import ROOT

# per-layer metric (or prefix) -> the end-to-end metrics and workloads it moves
MOVES = {
    "facelattice.enumerate_faces.{calls,misses,self_s}, facelattice.faces_built,"
    " facelattice.canonical_face.*":
        "items_per_s, wall_s, latency_p50_ms on lattice; wall_s on battery;"
        " latency_p99_ms only on queries; nothing on orbits",
    "facelattice.incidence_count.{calls,self_s}":
        "items_per_s on lattice (the report step); latency_p99_ms on queries",
    "facelattice.enumerate_faces.hit_ratio, orbit.hit_ratio":
        "latency_p99_ms and peak_rss_mb on queries; on the cold workloads they"
        " count only re-reads inside one operation (report after export,"
        " stabilizer order after the orbit)",
    "orbit.orbit.{calls,self_s}, orbit.points":
        "items_per_s, wall_s, latency_p99_ms on orbits; a small part of lattice",
    "orbit.reflect.calls, orbit.inner.calls":
        "items_per_s on lattice; wall_s on battery",
    "qsqrt5.ops": "every CPU-time metric; on battery check 8 holds the"
                  " rational, non-integral points",
    "diagram.parabolic_order.*, decoration.chain.*, facelattice.face_count.*":
        "latency_p50_ms and items_per_s on queries; negligible on lattice and orbits",
    "cli.main.self_s, cli.self_s": "latency_p50_ms and items_per_s on queries",
    "export.incidence_json.self_s, export.off_text.self_s, export.bytes":
        "items_per_s on lattice; latency_p99_ms on queries",
    "setup.numpy_s": "setup_s on every workload",
    "verify.check1_s .. verify.check9_s, verify.self_s": "wall_s on battery",
    "<layer>.self_s": "self time of all spans of one layer; with bench.self_s"
                      " they sum to trace.self_total_s, which accounts for trace.wall_s",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "system": platform.system()}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {"commit": commit(), "machine": machine(), "run_seconds": seconds,
           "seeds": args.seeds, "end_to_end": {}, "per_layer": {},
           "trace_overhead": {}, "moves": MOVES}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        stats = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats[name] = summary([r["metrics"][name]["value"] for r in runs])
            stats[name]["unit"] = metric["unit"]
            flag = "" if stats[name]["spread"] < metric["bound"] / 3 else "  (spread >= bound/3)"
            print(f"{workload:<8} {name:<16} median {stats[name]['median']:12.5g} "
                  f"spread {stats[name]['spread']:.4f} bound {metric['bound']}{flag}",
                  flush=True)
        out["end_to_end"][workload] = stats
        traced = run_once(workload, 1, seconds, 1)["metrics"]
        out["per_layer"][workload] = {k: v["value"] for k, v in traced.items()}
        untraced, wall = traced["trace.untraced_wall_s"]["value"], traced["trace.wall_s"]["value"]
        out["trace_overhead"][workload] = {
            "untraced_wall_s": untraced, "traced_wall_s": wall,
            "overhead_s": wall - untraced, "overhead_share": (wall - untraced) / untraced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

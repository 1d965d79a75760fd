"""Benchmark of the ``platonic`` package: one workload, one seed, one run.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src``.  The
run measures whole passes of the workload until the next pass would end
past ``--seconds`` (at least one pass), checks every operation's output,
prints a readable summary and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with no tracing.  ``--trace 1`` reports its per-layer metrics: it
runs every operation twice, back to back in alternating order, once as is
and once with wrappers on every public function of every layer (see
``spans.py``).  Tracing overhead is the traced wall time minus the
untraced one.  Spans are written, gzipped, to ``.perfbench/`` under the
root.

The failure rate is ``failed / attempted``; it is not a metric because it
is 0 on a correct program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 7  # fresh interpreters per run; the median is reported

# spans whose call count and self time are reported one by one
TIMED = (
    "facelattice.enumerate_faces", "facelattice.incidence_count",
    "facelattice.face_count", "orbit.orbit", "diagram.parabolic_order",
    "decoration.chain", "cli.main", "export.incidence_json", "export.off_text",
    "facelattice.canonical_face",
)


def fresh_import_seconds(module: str, inside: bool) -> float:
    """Median over fresh interpreters of the time to import ``module``.

    ``inside`` times the import statement alone; otherwise the wall time
    from starting the interpreter until it has exited.
    """
    code = (f"import time; t = time.perf_counter(); import {module}; "
            f"print(time.perf_counter() - t)") if inside else f"import {module}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for attempt in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        if attempt:  # the first start compiles bytecode
            times.append(float(proc.stdout) if inside else wall)
    return statistics.median(times)


class Run:
    """Operations measured in one phase of a run, pass by pass.

    Each operation's time is the CPU time of the client thread: the program
    is single-threaded and does no I/O while measured, so on an idle machine
    this equals its wall time, and it leaves out the time the process
    waits for a CPU that other work on a shared machine holds.
    """

    def __init__(self):
        self.passes: list[list[float]] = []
        self.walls: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict[str, float] = {}

    def latencies(self) -> list[float]:
        return [t for p in self.passes for t in p]

    def cpu(self) -> float:
        return sum(self.latencies())

    def wall(self) -> float:
        return sum(self.walls)


def measure(passes, seconds: float, warmup=(), tracers=(None,)) -> list[Run]:
    """Closed loop over whole passes, after the untimed ``warmup`` operations.

    Each operation runs once per entry of ``tracers`` (``None`` runs it
    untraced), back to back and in alternating order, so that the traced
    and the untraced run of one operation meet the same host speed.
    Passes run until the next would end past ``seconds`` (judged by the
    last pass), always at least one.
    """
    runs = [Run() for _ in tracers]
    for op in warmup:
        run_op(op, runs[0], None)
    sides = list(zip(runs, tracers))
    start = time.perf_counter()
    last = 0.0
    for ops in passes:
        if runs[0].passes and time.perf_counter() - start + last > seconds:
            break
        pass_start = time.perf_counter()
        for run in runs:
            run.passes.append([])
        for op in ops:
            for run, tracer in sides:
                wall, cpu = run_op(op, run, tracer)
                run.walls.append(wall)
                run.passes[-1].append(cpu)
            sides.reverse()
        last = time.perf_counter() - pass_start
    return runs


def run_op(op, run: Run, tracer) -> tuple[float, float]:
    """Run, time and check one operation; return its wall and CPU seconds."""
    run.attempted += 1
    error = op.prepare()
    start, start_cpu = time.perf_counter(), time.thread_time()
    try:
        result = tracer.run(op.run) if tracer else op.run()
    except Exception as exc:  # a crashing operation is a failed operation
        error = error or f"{op.key}: {type(exc).__name__}: {exc}"
    cpu = time.thread_time() - start_cpu
    wall = time.perf_counter() - start
    if error is None:
        try:
            checked = op.verdict(result)
        except Exception as exc:
            error = f"{op.key}: check raised {type(exc).__name__}: {exc}"
        else:
            error = checked.error
            if error is None:
                run.items += checked.items
                for key, value in checked.extra.items():
                    run.extra[key] = run.extra.get(key, 0.0) + value
    if error is not None:
        run.failed += 1
        run.errors.append(error)
    return wall, cpu


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float, per_operation: bool) -> dict[str, float]:
    latencies = run.latencies() if per_operation else [sum(p) for p in run.passes]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(p) for p in run.passes),
        "items_per_s": run.items / run.cpu(),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p99_ms": percentile(latencies, 99) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(untraced: Run, traced: Run, tracer, numpy_s: float) -> dict[str, float]:
    calls, self_s = tracer.aggregate()
    counts = tracer.counts
    passes = len(untraced.passes)
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in TIMED}
    out.update({f"{name}.calls": calls.get(name, 0) for name in TIMED})

    def ratio(prefix):
        hits, misses = counts[f"{prefix}.hits"], counts[f"{prefix}.misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    out.update({
        "facelattice.enumerate_faces.misses": counts["facelattice.enumerate_faces.misses"],
        "facelattice.enumerate_faces.hit_ratio": ratio("facelattice.enumerate_faces"),
        "facelattice.faces_built": counts["facelattice.faces_built"],
        "orbit.points": counts["orbit.points"],
        "orbit.hit_ratio": ratio("orbit._orbit"),
        "orbit.reflect.calls": counts["orbit.reflect.calls"],
        "orbit.inner.calls": counts["orbit.inner.calls"],
        "qsqrt5.ops": counts["qsqrt5.ops"],
        "export.bytes": counts["export.bytes"] + untraced.extra.get("export.bytes", 0),
        "setup.numpy_s": numpy_s,
    })
    # the battery's own per-check timer, from the untraced passes
    for number in range(1, 10):
        key = f"verify.check{number}_s"
        out[key] = untraced.extra.get(key, 0.0) / passes
    layer_self: dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    for layer in ("bench", "cli", "diagram", "decoration", "orbit", "facelattice",
                  "export", "verify"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out.update({
        "trace.untraced_wall_s": untraced.wall(),
        "trace.wall_s": traced.wall(),
        "trace.overhead_s": traced.wall() - untraced.wall(),
        "trace.self_total_s": sum(self_s.values()),
        "trace.spans": len(tracer.spans),
    })
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "platonic" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'platonic'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import platonic
    if Path(platonic.__file__).resolve().parent != SRC / "platonic":
        print(f"error: imported platonic from {platonic.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make_passes = workloads.WORKLOADS[args.workload]
    digests = workloads.load_digests()
    caches = spans.functools_caches()
    warmup = workloads.warmup_ops(args.workload, digests)

    def passes():
        return make_passes(args.seed, digests, caches)

    if args.trace:
        numpy_s = fresh_import_seconds("numpy", inside=True)
        workloads.clear_caches(caches)
        tracer = spans.Tracer()
        untraced, traced = measure(passes(), args.seconds, warmup, (None, tracer))
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        values = per_layer(untraced, traced, tracer, numpy_s)
        runs = (untraced, traced)
        wanted = spec["per_layer"]
    else:
        setup_s = fresh_import_seconds("platonic.cli", inside=False)
        workloads.clear_caches(caches)
        run, = measure(passes(), args.seconds, warmup)
        values = end_to_end(run, setup_s,
                            args.workload in workloads.LATENCY_PER_OPERATION)
        runs = (run,)
        wanted = spec["end_to_end"]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for error in [e for r in runs for e in r.errors][:20]:
        print(f"FAILED {error}", file=sys.stderr)
    ops = sum(len(p) for r in runs for p in r.passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {ops} operations "
          f"in {sum(len(r.passes) for r in runs)} passes, {failed} failed "
          f"(error_rate {failed / attempted:.4g}); an item is one "
          f"{workloads.ITEMS[args.workload]}, latency is per "
          f"{'request' if args.workload in workloads.LATENCY_PER_OPERATION else 'pass'}")
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"error: metrics {sorted(missing)} are not both computed and in "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {value:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer tracing placed from outside the program.

The benchmark wraps every public function of each ``platonic`` module at
every place it is bound: functions are imported by name into other modules
(``facelattice`` calls ``orbit`` and ``reflect`` through its own globals,
``export`` calls ``enumerate_faces`` the same way), so a wrapper placed only
on the defining module would miss those calls.  Each timed call records one
span ``(name, start, end, parent, op)`` in memory; spans are aggregated and
written out when the run ends.

Self time is a span's duration minus the durations of its direct children.
``QSqrt5`` arithmetic is counted, not timed: a timer around each scalar
operation would mostly measure itself, so that time stays in the caller's
self time.  ``verify`` calls its checks through its own table of functions,
so their time shows as ``verify.run_check`` self time; the battery's
per-check seconds come from the checks' own timer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "diagram", "decoration", "orbit", "facelattice", "export",
          "verify", "qsqrt5")

# Hot leaves: counted per call, their time left in the caller's self time.
COUNT_ONLY = frozenset({"orbit.reflect", "orbit.inner"})

ROOT = "bench.op"


def layer_modules() -> dict[str, object]:
    # ``import platonic.orbit`` would give the function that the package
    # rebinds under that name; import_module returns the module itself.
    return {name: importlib.import_module(f"platonic.{name}") for name in LAYERS}


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def public_functions() -> dict[str, object]:
    """``"layer.name" -> function`` for each public function a layer defines."""
    out = {}
    for layer, mod in layer_modules().items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and _is_traceable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{layer}.{attr}"] = obj
    return out


def functools_caches() -> dict[str, object]:
    """Every functools cache in ``platonic.*``, public or private."""
    out = {}
    for layer, mod in layer_modules().items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, functools._lru_cache_wrapper)
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{attr}"] = obj
    return out


class Tracer:
    """Wrappers, spans and counters for the traced operations of a run.

    The wrappers are in place only while a traced operation runs, so the
    untraced operations and the checks of every output run the program as
    it is.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._qsqrt5 = sys.modules["platonic.qsqrt5"].QSqrt5
        self._qsqrt5_init = self._qsqrt5.__init__
        self._qsqrt5_ops = [0]
        self._root = self._wrap(ROOT, lambda call: call(), {})

    def run(self, fn):
        """Run ``fn()`` traced, inside a root span.

        The root's self time is the operation's time outside every layer.
        """
        self.op += 1
        self._install()
        try:
            return self._root(fn)
        finally:
            self._uninstall()

    def _install(self) -> None:
        if not self._patches:
            hooks = _hooks()
            wrappers = {id(fn): self._wrap(name, fn, hooks)
                        for name, fn in public_functions().items()}
            for modname, mod in list(sys.modules.items()):
                if modname == "platonic" or modname.startswith("platonic."):
                    self._patches += [(mod, attr, obj, wrappers[id(obj)])
                                      for attr, obj in vars(mod).items()
                                      if id(obj) in wrappers]
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        init, made = self._qsqrt5_init, self._qsqrt5_ops

        def counting_init(self, a=0, b=0):
            made[0] += 1
            init(self, a, b)

        self._qsqrt5.__init__ = counting_init

    def _uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        self._qsqrt5.__init__ = self._qsqrt5_init
        self.counts["qsqrt5.ops"] += self._qsqrt5_ops[0]
        self._qsqrt5_ops[0] = 0

    def _wrap(self, name: str, fn, hooks):
        counts = self.counts
        if name in COUNT_ONLY:
            key = f"{name}.calls"

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = hooks.get(name)

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            before = hook.before() if hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if hook:
                hook.after(counts, before, result)
            return result

        timed.__wrapped__ = fn
        return timed

    # -- results -----------------------------------------------------

    def aggregate(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        child_time = defaultdict(float)
        for _name_id, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for index, (name_id, start, end, _parent, _op) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
        return dict(calls), dict(self_s)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name_id, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, op]))
                fh.write("\n")


class _CacheHook:
    """Counts hits and misses of a functools cache around each wrapped call.

    ``cache_clear`` resets a cache's statistics, and cold workloads clear
    between operations, so totals are built from per-call differences.
    """

    def __init__(self, cache, prefix: str, size_key: str):
        self.cache, self.prefix, self.size_key = cache, prefix, size_key

    def before(self):
        return self.cache.cache_info()

    def after(self, counts, before, result) -> None:
        after = self.cache.cache_info()
        misses = after.misses - before.misses
        counts[f"{self.prefix}.hits"] += after.hits - before.hits
        counts[f"{self.prefix}.misses"] += misses
        if misses:
            counts[self.size_key] += len(getattr(result, "points", result))


class _BytesHook:
    def before(self):
        return None

    def after(self, counts, before, result) -> None:
        counts["export.bytes"] += len(result.encode("utf-8"))


def _hooks() -> dict[str, object]:
    caches = functools_caches()
    return {
        "facelattice.enumerate_faces": _CacheHook(
            caches["facelattice.enumerate_faces"], "facelattice.enumerate_faces",
            "facelattice.faces_built"),
        "orbit.orbit": _CacheHook(caches["orbit._orbit"], "orbit._orbit", "orbit.points"),
        "export.off_text": _BytesHook(),
    }

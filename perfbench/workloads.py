"""The benchmark's four workloads and the oracle that checks each operation.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.  A workload yields *passes*, each a
list of operations; a run measures whole passes.  Operations are checked
after they return, outside the timed region:

* every output's sha256 must match the table recorded at the seed commit
  (``digests.json``), which covers every operation the generators can
  produce;
* ``lattice``: each enumerated class has ``face_count`` members;
* ``orbits``: orbit size times stabilizer order is ``|W|``;
* ``queries``: ``cli.main`` returns 0;
* ``battery``: every check passes, its time budget included.

An operation that raises, or whose output fails a check, counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from platonic import cli, decoration, diagram, export, facelattice, verify
from platonic.decoration import End


orbit_mod = sys.modules["platonic.orbit"]

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# lattice: the 4D regular polytopes at both ends, then simplex,
# cross-polytope and hypercube at the largest ranks (6..8) whose full
# lattice builds in one or two seconds
LATTICE = (
    ("H4", "left"), ("H4", "right"), ("F4", "left"), ("F4", "right"),
    ("B4", "left"), ("B4", "right"), ("A7", "right"), ("A8", "left"),
    ("A8", "right"), ("B6", "left"), ("C6", "left"), ("B6", "right"),
)

# orbits: every chain diagram up to rank 8 at both ends, plus the 2^n
# hypercube vertex sets of B9..B12 (right end)
ORBITS = tuple(
    [(f"{fam}{n}", end) for fam, lo in (("A", 1), ("B", 2), ("C", 2))
     for n in range(lo, 9) for end in ("left", "right")]
    + [(name, end) for name in ("H2", "H3", "H4", "F4") for end in ("left", "right")]
    + [(f"B{n}", "right") for n in range(9, 13)]
)

# queries: counting requests over chain diagrams up to rank 24; geometric
# requests over the polytopes of rank <= 4 except H4, whose lattices build
# in at most a quarter second
QUERY_RANK = 24
COUNTING = tuple(
    [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2))
     for n in range(lo, QUERY_RANK + 1)] + ["F4", "H2", "H3", "H4"]
)
GEOMETRIC = tuple(
    [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2)) for n in range(lo, 5)]
    + ["F4", "H2", "H3"]
)
ENDS = ("left", "right")


def _rank(name: str) -> int:
    return int(name[1:])  # A24 -> 24, F4 -> 4, H3 -> 3


def counting_requests() -> list[tuple[str, ...]]:
    out = []
    for name in COUNTING:
        out += [("info", name), ("info", name, "--json")]
        for end in ENDS:
            out.append(("faces", name, end))
            out += [("meet", name, end, "--c", str(c), "--d", str(c + 1))
                    for c in range(_rank(name) - 1)]
    return out


def geometric_requests() -> list[tuple[str, ...]]:
    out = []
    for name in GEOMETRIC:
        n = _rank(name)
        for end in ENDS:
            out.append(("faces", name, end, "--json"))
            out += [("meet", name, end, "--c", str(c), "--d", str(k))
                    for c in range(n) for k in range(c + 2, n)]
            out += [("enumerate", name, end, "--d", str(k)) for k in range(n)]
            if n == 3:
                out.append(("export", name, end))
    return out


def query_pass(rng: random.Random) -> list[tuple[str, ...]]:
    """One pass of the ``queries`` stream: 240 requests, 22% geometric.

    Its make-up is fixed, so passes cost alike whatever the seed: for each
    rank 1..24, two ``info`` and two ``faces`` requests and (from rank 2)
    four adjacent ``meet`` requests, then 13 requests of each geometric
    kind.  The seed picks the diagrams, ends, dimensions and the order.
    """
    out = []
    for n in range(1, QUERY_RANK + 1):
        names = [name for name in COUNTING if _rank(name) == n]
        for _ in range(2):
            name = rng.choice(names)
            out.append(("info", name, "--json") if rng.random() < 0.5 else ("info", name))
            out.append(("faces", rng.choice(names), rng.choice(ENDS)))
        for _ in range(4 if n > 1 else 0):
            c = rng.randrange(n - 1)
            out.append(("meet", rng.choice(names), rng.choice(ENDS),
                        "--c", str(c), "--d", str(c + 1)))
    kinds: dict[tuple[str, bool], list[tuple[str, ...]]] = {}
    for argv in geometric_requests():
        kinds.setdefault((argv[0], "--json" in argv), []).append(argv)
    for requests in kinds.values():
        out += rng.choices(requests, k=13)
    rng.shuffle(out)
    return out


# -- outputs and digests ---------------------------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats_to_text(value):
    """Cartesian floats compared to the 12 significant digits export prints."""
    if isinstance(value, float):
        return format(value + 0.0, ".12g")
    if isinstance(value, dict):
        return {k: _floats_to_text(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floats_to_text(v) for v in value]
    return value


def _points_text(points) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in points)


def clear_caches(caches) -> str | None:
    """Empty every functools cache and confirm from outside that it is cold."""
    for cache in caches.values():
        cache.cache_clear()
    warm = [name for name, cache in caches.items()
            if tuple(cache.cache_info()) != (0, 0, cache.cache_info().maxsize, 0)]
    return f"caches not cold after clearing: {warm}" if warm else None


@dataclass
class Checked:
    """Outcome of checking one operation's output."""

    items: int = 0
    error: str | None = None
    extra: dict[str, float] = field(default_factory=dict)


class Op:
    """One operation: ``prepare`` (untimed), ``run`` (timed), ``check``."""

    key: str
    digests: dict[str, str]

    def prepare(self) -> str | None:
        return None

    def run(self):
        raise NotImplementedError

    def output(self, result) -> str:
        """The text whose sha256 the digest table records."""
        raise NotImplementedError

    def check(self, result) -> Checked:
        raise NotImplementedError

    def verdict(self, result) -> Checked:
        checked = self.check(result)
        if checked.error is None:
            expected = self.digests.get(self.key)
            if expected is None:
                checked.error = f"{self.key}: no recorded digest"
            elif sha256(self.output(result)) != expected:
                checked.error = f"{self.key}: output differs from the recorded digest"
        return checked


class LatticeOp(Op):
    """Build the full face lattice cold, export it, then read the report."""

    def __init__(self, name: str, end: str, digests, caches):
        self.name, self.end = name, End(end)
        self.key = f"lattice {name} {end}"
        self.digests, self.caches = digests, caches

    def prepare(self):
        return clear_caches(self.caches)

    def run(self):
        d = diagram.parse_name(self.name)
        return export.incidence_json(d, self.end), facelattice.report(d, self.end)

    def output(self, result) -> str:
        incidence, report = result
        return cli.canonical_json({"incidence": _floats_to_text(incidence),
                                   "report": report})

    def check(self, result) -> Checked:
        incidence, report = result
        d = diagram.parse_name(self.name)
        items = 0
        for k, dec in enumerate(decoration.chain(d, self.end)):
            size = len(incidence["faces"][str(k)])
            expected = facelattice.face_count(d, dec)
            if size != expected:
                return Checked(error=f"{self.key} d={k}: {size} faces, "
                                     f"face_count gives {expected}")
            if report["rows"][k]["count"] != expected:
                return Checked(error=f"{self.key} d={k}: report count differs")
            items += size
        exported = cli.canonical_json(incidence)
        return Checked(items=items, extra={"export.bytes": len(exported.encode("utf-8"))})


class OrbitOp(Op):
    """Cold seed-vertex orbit, its stabilizer order, and each face's orbit."""

    def __init__(self, name: str, end: str, digests, caches):
        self.name, self.end = name, End(end)
        self.key = f"orbits {name} {end}"
        self.digests, self.caches = digests, caches

    def prepare(self):
        return clear_caches(self.caches)

    def run(self):
        d = diagram.parse_name(self.name)
        seed = facelattice.seed_point(d, self.end)
        full = orbit_mod.orbit(d, seed, d.nodes)
        stabilizer = orbit_mod.stabilizer_order_of_point(d, seed)
        faces = [orbit_mod.orbit(d, seed, dec.filled_nodes)
                 for dec in decoration.chain(d, self.end)]
        return full, stabilizer, faces

    def output(self, result) -> str:
        full, stabilizer, faces = result
        return "\n\n".join([_points_text(full.points), str(stabilizer)]
                           + [_points_text(f.points) for f in faces])

    def check(self, result) -> Checked:
        full, stabilizer, faces = result
        order = diagram.group_order(diagram.parse_name(self.name))
        if full.size * stabilizer != order:
            return Checked(error=f"{self.key}: orbit {full.size} x stabilizer "
                                 f"{stabilizer} != |W| = {order}")
        return Checked(items=full.size + sum(f.size for f in faces))


class QueryOp(Op):
    """One CLI request in the warm process, stdout and stderr captured."""

    def __init__(self, argv: tuple[str, ...], digests):
        self.argv = argv
        self.key = "queries " + " ".join(argv)
        self.digests = digests

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue()

    def output(self, result) -> str:
        return result[1]

    def check(self, result) -> Checked:
        code = result[0]
        if code != 0:
            return Checked(error=f"{self.key}: exit code {code}")
        return Checked(items=1)


class BatteryOp(Op):
    """The nine-check battery as ``platonic verify`` runs it, caches cold."""

    key = "battery verify"

    def __init__(self, digests, caches):
        self.digests, self.caches = digests, caches

    def prepare(self):
        return clear_caches(self.caches)

    def run(self):
        return verify.run_all()

    def output(self, result) -> str:
        return json.dumps([[r.number, r.title, r.status, r.note, r.failures]
                           for r in result])

    def check(self, result) -> Checked:
        failed = [f"check {r.number}: {r.failures}" for r in result if not r.passed]
        if failed:
            return Checked(error=f"{self.key}: " + "; ".join(failed))
        return Checked(items=len(result),
                       extra={f"verify.check{r.number}_s": r.seconds for r in result})


# -- workloads ---------------------------------------------------------------

def lattice_passes(seed: int, digests, caches):
    rng = random.Random(seed)
    while True:
        order = list(LATTICE)
        rng.shuffle(order)
        yield [LatticeOp(name, end, digests, caches) for name, end in order]


def orbits_passes(seed: int, digests, caches):
    rng = random.Random(seed)
    while True:
        order = list(ORBITS)
        rng.shuffle(order)
        yield [OrbitOp(name, end, digests, caches) for name, end in order]


def queries_passes(seed: int, digests, caches):
    rng = random.Random(seed)
    while True:
        yield [QueryOp(argv, digests) for argv in query_pass(rng)]


def battery_passes(seed: int, digests, caches):
    # the battery has no generated inputs: its random points use verify's
    # own fixed seed
    while True:
        yield [BatteryOp(digests, caches)]


def warmup_ops(workload: str, digests) -> list[Op]:
    """Operations run and checked, but not measured, before the first pass.

    ``queries`` is a warm process: every geometric request runs once, so
    the measured stream reads cached lattices instead of building them.
    """
    if workload == "queries":
        return [QueryOp(argv, digests) for argv in geometric_requests()]
    return []


# The cold workloads' operations are unequal on purpose (B4 to H4, A1 to
# B12), so a latency percentile over them would read one operation and
# shift with the host's speed at that moment; their unit of latency is a
# whole pass.  On queries it is one request.
LATENCY_PER_OPERATION = frozenset({"queries"})

# what one item of items_per_s is, per workload
ITEMS = {"lattice": "face enumerated", "orbits": "orbit point", "queries": "request",
         "battery": "check"}

WORKLOADS = {
    "lattice": lattice_passes,
    "orbits": orbits_passes,
    "queries": queries_passes,
    "battery": battery_passes,
}


def every_op(digests, caches) -> list[Op]:
    """Every operation any workload can produce, for recording digests."""
    ops: list[Op] = [LatticeOp(n, e, digests, caches) for n, e in LATTICE]
    ops += [OrbitOp(n, e, digests, caches) for n, e in ORBITS]
    ops += [QueryOp(argv, digests)
            for argv in counting_requests() + geometric_requests()]
    ops.append(BatteryOp(digests, caches))
    return ops


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))

"""Reflection action and orbit enumeration in fundamental-weight coordinates.

Points are tuples of exact scalars: coordinate ``i`` is the coefficient of
the i-th fundamental weight.  In this basis the reflection through mirror
``i`` subtracts ``x_i`` times row i of the Cartan matrix, so orbits of any
seed stay exact and deduplicate by structural equality.  Orbit enumeration
is a plain breadth-first closure with a deterministic generator sweep that
also records how each generator permutes the points it visits.

Inside the sweep, and only there, a point is a flat tuple of ints
``(a_1, b_1, ..., a_n, b_n)`` with ``x_j = (a_j + b_j*phi)/R`` for the golden
ratio ``phi`` and one common denominator ``R`` of the seed: every Cartan
entry (2, -1, -2, -phi) lies in Z[phi], so reflections stay integral and the
index dict hashes and compares plain ints.  Each point is turned back into
``QSqrt5`` once, with one scalar per distinct ``(a, b)`` shared by every point
of the orbit, and ``reflect`` checks the first step of every generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from .diagram import ConsistencyError, Diagram, cartan_matrix, gram_matrix_weights, group_order
from .qsqrt5 import QSqrt5, ZERO, _make

Point = tuple[QSqrt5, ...]


def as_point(values) -> Point:
    """Coerce a sequence of ints/Fractions/QSqrt5 into a point."""
    return tuple(v if isinstance(v, QSqrt5) else QSqrt5(v) for v in values)


def fundamental_weight(d: Diagram, i: int) -> Point:
    """The i-th fundamental weight as a point (the i-th unit vector here)."""
    if not 1 <= i <= d.rank:
        raise ValueError(f"node index {i} outside 1..{d.rank}")
    return tuple(QSqrt5(1 if j == i else 0) for j in d.nodes)


def point_sub(x: Point, y: Point) -> Point:
    return tuple(a - b for a, b in zip(x, y))


@dataclass(frozen=True)
class OrbitResult:
    """Closure of one seed under a set of generating reflections; ``perms[k][v]``
    is the index of ``points[v]`` reflected by the k-th generator in ascending order."""

    points: tuple[Point, ...]
    seed: Point
    perms: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.points)


@cache
def _sparse_rows(d: Diagram) -> tuple[tuple[tuple[int, QSqrt5], ...], ...]:
    """Nonzero Cartan entries per row, as (0-based column, value) pairs."""
    cartan = cartan_matrix(d)
    return tuple(
        tuple((j, value) for j, value in enumerate(row) if value) for row in cartan
    )


def _zphi(x: QSqrt5, scale: int) -> tuple[int, int]:
    """``(a, b)`` with ``scale * x == a + b*phi``, as ``(p + q√5)/r == ((p - q) + 2q*phi)/r``."""
    a, ra = divmod((x._p - x._q) * scale, x._r)
    b, rb = divmod(2 * x._q * scale, x._r)
    if ra or rb:
        raise ConsistencyError(f"{x} times {scale} is not in Z[phi]")
    return a, b


@cache
def _zphi_rows(d: Diagram) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``_sparse_rows`` in Z[phi]: (0-based column, c, e) for the entry ``c + e*phi``."""
    return tuple(
        tuple((j, *_zphi(value, 1)) for j, value in row) for row in _sparse_rows(d)
    )


def reflect(d: Diagram, i: int, x: Point) -> Point:
    """Apply the reflection of node ``i`` (1-based): x - x_i * (row i of C)."""
    if not 1 <= i <= d.rank:
        raise ValueError(f"generators {(i,)} outside 1..{d.rank}")
    xi = x[i - 1]
    if not xi:
        return x
    coords = list(x)
    for j, value in _sparse_rows(d)[i - 1]:
        coords[j] = coords[j] - xi * value
    return tuple(coords)


def orbit(d: Diagram, seed: Point, generators) -> OrbitResult:
    """Breadth-first closure of ``seed`` under the listed reflections.

    Points come back in first-visit order with generators swept in
    ascending index, so the result is deterministic.
    """
    if len(seed) != d.rank:
        raise ValueError(f"seed of length {len(seed)} does not fit rank {d.rank}")
    gens = tuple(sorted(set(generators)))
    if any(i < 1 or i > d.rank for i in gens):
        raise ValueError(f"generators {gens} outside 1..{d.rank}")
    return _orbit(d, as_point(seed), gens)


@lru_cache(maxsize=256)
def _orbit(d: Diagram, seed: Point, gens: tuple[int, ...]) -> OrbitResult:
    scale = lcm(*(x._r for x in seed))
    start = tuple(n for x in seed for n in _zphi(x, scale))
    rows = _zphi_rows(d)
    # per generator: flat position of x_i, then (flat position of x_j, c, e) per entry
    steps = [(2 * i - 2, [(2 * j, c, e) for j, c, e in rows[i - 1]]) for i in gens]
    limit = group_order(d)
    index = {start: 0}
    order = [start]
    perms = tuple([] for _ in gens)
    for x in order:  # grows while swept: first-in, first-out
        for (at, row), perm in zip(steps, perms):
            a, b = x[at], x[at + 1]
            if a or b:
                # y_j = x_j - x_i C_ij, where phi^2 = phi + 1 gives
                # (a + b phi)(c + e phi) = (ac + be) + (ae + bc + be) phi
                y = list(x)
                for j, c, e in row:
                    y[j] -= a * c + b * e
                    y[j + 1] -= a * e + b * c + b * e
                y = tuple(y)
            else:
                y = x
            k = index.get(y)
            if k is None:
                k = index[y] = len(order)
                if k == limit:
                    raise ConsistencyError(f"orbit in {d.name} outgrows |W| = {limit}")
                order.append(y)
            perm.append(k)
    scalars = {}
    for key, x in zip(zip(start[::2], start[1::2]), seed):
        scalars.setdefault(key, x)
    points = [seed]
    for y in order[1:]:
        coords = []
        for key in zip(y[::2], y[1::2]):
            x = scalars.get(key)
            if x is None:
                a, b = key
                x = scalars[key] = _make(2 * a + b, b, 2 * scale)
            coords.append(x)
        points.append(tuple(coords))
    for i, perm in zip(gens, perms):
        if reflect(d, i, seed) != points[perm[0]]:
            raise ConsistencyError(
                f"orbit sweep in {d.name} disagrees with reflect at node {i}")
    return OrbitResult(tuple(points), seed, tuple(map(tuple, perms)))


def stabilizer_order_of_point(d: Diagram, seed: Point) -> int:
    """Order of the stabilizer of ``seed``: |W| over the full orbit size."""
    size = orbit(d, seed, d.nodes).size
    total = group_order(d)
    if total % size:
        raise ConsistencyError(f"orbit size {size} does not divide |W| = {total}")
    return total // size


def inner(d: Diagram, x: Point, y: Point) -> QSqrt5:
    """Euclidean inner product of two points via the weight Gram matrix."""
    gram = gram_matrix_weights(d)
    total = ZERO
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = gram[i]
        acc = ZERO
        for j, yj in enumerate(y):
            if yj:
                acc = acc + row[j] * yj
        total = total + xi * acc
    return total


def norm_sq(d: Diagram, x: Point) -> QSqrt5:
    """Squared length of a point."""
    return inner(d, x, x)


def random_point(d: Diagram, rng, *, golden_part: bool = True) -> Point:
    """Random exact point with small rational (and optional root-5) parts.

    Intended for property checks; ``rng`` is a seeded random.Random.
    """
    coords = []
    for _ in d.nodes:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if golden_part else 0
        coords.append(QSqrt5(a, b))
    return tuple(coords)

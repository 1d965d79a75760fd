"""Reflection action and orbit enumeration in fundamental-weight coordinates.

Points are tuples of exact scalars: coordinate ``i`` is the coefficient of
the i-th fundamental weight.  In this basis the reflection through mirror
``i`` subtracts ``x_i`` times row i of the Cartan matrix, so orbits of any
seed stay exact and deduplicate by structural equality.  Orbit enumeration
is a plain breadth-first closure with a deterministic generator sweep that
also records how each generator permutes the points it visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .diagram import ConsistencyError, Diagram, cartan_matrix, gram_matrix_weights, group_order
from .qsqrt5 import QSqrt5, ZERO

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
    generators: frozenset[int]
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
    gens = tuple(sorted(set(generators)))
    if any(i < 1 or i > d.rank for i in gens):
        raise ValueError(f"generators {gens} outside 1..{d.rank}")
    return _orbit(d, seed, gens)


@cache
def _orbit(d: Diagram, seed: Point, gens: tuple[int, ...]) -> OrbitResult:
    index = {seed: 0}
    order = [seed]
    perms = tuple([] for _ in gens)
    for x in order:  # grows while swept: first-in, first-out
        for i, perm in zip(gens, perms):
            y = reflect(d, i, x)
            k = index.get(y)
            if k is None:
                k = index[y] = len(order)
                order.append(y)
            perm.append(k)
    return OrbitResult(tuple(order), seed, frozenset(gens), tuple(map(tuple, perms)))


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

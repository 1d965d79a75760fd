"""Reflection action and orbit enumeration in fundamental-weight coordinates.

Points are tuples of exact scalars: coordinate ``i`` is the coefficient of
the i-th fundamental weight.  In this basis the reflection through mirror
``i`` subtracts ``x_i`` times row i of the Cartan matrix, so orbits of any
seed stay exact and deduplicate by structural equality.  ``reflect``,
``inner`` and ``random_point`` compute on the ints of ``QSqrt5``.  Orbit
enumeration is a plain breadth-first closure with a deterministic generator
sweep that also records how each generator permutes the points it visits.

Inside the sweep, and only there, a point is a flat tuple of ints
``(a_1, b_1, ..., a_n, b_n)`` with ``x_j = (a_j + b_j*phi)/R`` for the golden
ratio ``phi`` and one common denominator ``R`` of the seed: every Cartan
entry (2, -1, -2, -phi) lies in Z[phi], so reflections stay integral and the
index dict hashes and compares plain ints.  Every generator is an involution
(its Cartan diagonal is 2, checked before the sweep), so when the sweep maps
point ``v`` to ``k`` it records both ``perm[v] = k`` and ``perm[k] = v`` and
skips that generator when it reaches ``k``: each pair of points a mirror swaps
is reflected once.  Each point is turned back into ``QSqrt5`` in one ``map``
over its ``(a, b)`` pairs, with one scalar per distinct pair shared by every
point of the orbit, and ``reflect`` checks the first step of every generator.
Points whose length is not the rank raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import lcm

from .diagram import ConsistencyError, Diagram, cartan_matrix, gram_matrix_weights, group_order
from .qsqrt5 import QSqrt5, _make

Point = tuple[QSqrt5, ...]


def as_point(values) -> Point:
    """Coerce a sequence of ints/Fractions/QSqrt5 into a point, as ``reflect`` and ``inner`` do."""
    return tuple(v if isinstance(v, QSqrt5) else QSqrt5(v) for v in values)


def fundamental_weight(d: Diagram, i: int) -> Point:
    """The i-th fundamental weight as a point (the i-th unit vector here)."""
    if not 1 <= i <= d.rank:
        raise ValueError(f"node index {i} outside 1..{d.rank}")
    return tuple(QSqrt5(1 if j == i else 0) for j in d.nodes)


def point_sub(x: Point, y: Point) -> Point:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def _fits(d: Diagram, x, what: str = "point") -> None:
    if len(x) != d.rank:
        raise ValueError(f"{what} of length {len(x)} does not fit rank {d.rank}")


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
def _sparse_rows(d: Diagram) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Nonzero Cartan entries per row, as (0-based column, p, q, r) for ``(p + q√5)/r``."""
    return tuple(tuple((j, v._p, v._q, v._r) for j, v in enumerate(row) if v)
                 for row in cartan_matrix(d))


@cache
def _zphi_rows(d: Diagram) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``_sparse_rows`` in Z[phi]: (0-based column, c, e) with ``(p + q√5)/r == c + e*phi``."""
    rows = _sparse_rows(d)
    if any((p - q) % r or 2 * q % r for row in rows for _, p, q, r in row):
        raise ConsistencyError(f"a Cartan entry of {d.name} is not in Z[phi]")
    return tuple(tuple((j, (p - q) // r, 2 * q // r) for j, p, q, r in row) for row in rows)


def reflect(d: Diagram, i: int, x: Point) -> Point:
    """Apply the reflection of node ``i`` (1-based): x - x_i * (row i of C)."""
    if not 1 <= i <= d.rank:
        raise ValueError(f"generators {(i,)} outside 1..{d.rank}")
    _fits(d, x)
    row = _sparse_rows(d)[i - 1]
    try:
        a, b, s = x[i - 1]._p, x[i - 1]._q, x[i - 1]._r
        coords = list(x)
        for j, c, e, t in row:
            # x_j - x_i C_ij, where x_i C_ij = (P + Q√5)/w
            y, P, Q, w = coords[j], a * c + 5 * b * e, a * e + b * c, s * t
            coords[j] = (_make(y._p - P, y._q - Q, w) if y._r == w
                         else _make(y._p * w - P * y._r, y._q * w - Q * y._r, y._r * w))
    except AttributeError:
        return reflect(d, i, as_point(x))
    return tuple(coords)


def orbit(d: Diagram, seed: Point, generators) -> OrbitResult:
    """Breadth-first closure of ``seed`` under the listed reflections.

    Points come back in first-visit order with generators swept in
    ascending index, so the result is deterministic.
    """
    _fits(d, seed, "seed")
    gens = tuple(sorted(set(generators)))
    if any(i < 1 or i > d.rank for i in gens):
        raise ValueError(f"generators {gens} outside 1..{d.rank}")
    return _orbit(d, as_point(seed), gens)


def _pairs(x) -> tuple[tuple[tuple[int, int], ...], int]:
    """``(((p_k, q_k), ...), r)`` with ``x_k == (p_k + q_k√5)/r`` for the least ``r``."""
    r = lcm(*[v._r for v in x])
    return tuple((v._p * (k := r // v._r), v._q * k) for v in x), r


class _Scalars(dict):
    """One orbit's ``QSqrt5`` per ``(a, b)``: a miss makes ``(a + b*phi)/R`` once."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = 2 * scale

    def __missing__(self, key: tuple[int, int]) -> QSqrt5:
        a, b = key
        x = self[key] = _make(2 * a + b, b, self.scale)
        return x


@lru_cache(maxsize=256)
def _orbit(d: Diagram, seed: Point, gens: tuple[int, ...]) -> OrbitResult:
    pairs, scale = _pairs(seed)
    start = tuple(n for p, q in pairs for n in (p - q, 2 * q))
    rows = _zphi_rows(d)
    for i in gens:
        if (i - 1, 2, 0) not in rows[i - 1]:
            raise ConsistencyError(f"Cartan diagonal of {d.name} at node {i} is not 2")
    # per generator: flat position of x_i, then (flat position of x_j, c, e) per entry
    steps = [(2 * i - 2, [(2 * j, c, e) for j, c, e in rows[i - 1]]) for i in gens]
    limit = group_order(d)
    index = {start: 0}
    order = [start]
    # perm[k] is filled ahead of the sweep by k's partner, so the lists grow by doubling
    perms = tuple([None] for _ in gens)
    for v, x in enumerate(order):  # order grows while swept: first-in, first-out
        for (at, row), perm in zip(steps, perms):
            if perm[v] is not None:
                continue  # x is the image of an earlier point under this involution
            a, b = x[at], x[at + 1]
            if not (a or b):
                perm[v] = v
                continue
            # y_j = x_j - x_i C_ij, where phi^2 = phi + 1 gives
            # (a + b phi)(c + e phi) = (ac + be) + (ae + bc + be) phi
            y = list(x)
            for j, c, e in row:
                y[j] -= a * c + b * e
                y[j + 1] -= a * e + b * c + b * e
            y = tuple(y)
            k = index.get(y)
            if k is None:
                k = index[y] = len(order)
                if k == limit:
                    raise ConsistencyError(f"orbit in {d.name} outgrows |W| = {limit}")
                order.append(y)
                if k == len(perm):
                    for p in perms:
                        p += [None] * k
            perm[v], perm[k] = k, v
    scalars = _Scalars(scale)
    for key, x in zip(zip(start[::2], start[1::2]), seed):
        scalars.setdefault(key, x)
    points = (seed, *[tuple(map(scalars.__getitem__, zip(y[::2], y[1::2]))) for y in order[1:]])
    for i, perm in zip(gens, perms):
        if reflect(d, i, seed) != points[perm[0]]:
            raise ConsistencyError(
                f"orbit sweep in {d.name} disagrees with reflect at node {i}")
    size = len(order)
    return OrbitResult(points, seed, tuple(tuple(perm[:size]) for perm in perms))


def stabilizer_order_of_point(d: Diagram, seed: Point) -> int:
    """Order of the stabilizer of ``seed``: |W| over the full orbit size."""
    size = orbit(d, seed, d.nodes).size
    total = group_order(d)
    if total % size:
        raise ConsistencyError(f"orbit size {size} does not divide |W| = {total}")
    return total // size


@cache
def _int_gram(d: Diagram) -> tuple[tuple[tuple[int, int], ...], int]:
    """``_pairs`` of the weight Gram matrix, read row after row."""
    return _pairs(sum(gram_matrix_weights(d), ()))


def inner(d: Diagram, x: Point, y: Point) -> QSqrt5:
    """Euclidean inner product of two points via the weight Gram matrix."""
    _fits(d, x)
    _fits(d, y)
    try:
        (xs, rx), (ys, ry) = _pairs(x), _pairs(y)
    except AttributeError:
        return inner(d, as_point(x), as_point(y))
    gram, rg = _int_gram(d)
    n, p, q = d.rank, 0, 0
    for k, (a, b) in zip(range(0, n * n, n), xs):
        u = v = 0  # (row i of G) . y, then times x_i, in Z[√5]
        for (g, h), (c, e) in zip(gram[k:k + n], ys):
            u += g * c + 5 * h * e
            v += g * e + h * c
        p += a * u + 5 * b * v
        q += a * v + b * u
    return _make(p, q, rg * rx * ry)


def norm_sq(d: Diagram, x: Point) -> QSqrt5:
    """Squared length of a point."""
    return inner(d, x, x)


def random_point(d: Diagram, rng, *, golden_part: bool = True) -> Point:
    """Random exact point with small rational (and optional root-5) parts.

    Intended for property checks; ``rng`` is a seeded random.Random.
    """
    coords = []
    for _ in d.nodes:
        n1, d1 = rng.randint(-9, 9), rng.randint(1, 4)
        n2, d2 = (rng.randint(-3, 3), rng.randint(1, 3)) if golden_part else (0, 1)
        coords.append(_make(n1 * d2, n2 * d1, d1 * d2))
    return tuple(coords)

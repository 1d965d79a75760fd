"""Reflection action and orbit enumeration in fundamental-weight coordinates.

Points are tuples of exact scalars: coordinate ``i`` is the coefficient of
the i-th fundamental weight.  In this basis the reflection through mirror
``i`` subtracts ``x_i`` times row i of the Cartan matrix, so orbits of any
seed stay exact and deduplicate by structural equality.  ``reflect``,
``inner`` and ``random_point`` compute on the ints of ``QSqrt5``.  Orbit
enumeration is a plain breadth-first closure with a deterministic generator
sweep that also records how each generator permutes the points it visits.

Inside the sweep, and only there, coordinate ``x_j = (a_j + b_j*phi)/R``
(golden ratio ``phi``, one denominator ``R`` of the seed) is the one int
``z_j = a_j + b_j*2^k``, with ``k`` the bit length of the seed's largest part
plus ``_MARGIN``.  Every Cartan entry (2, -1, -2, -phi) lies in Z[phi] and the
packing is linear, so the diagonal 2 negates ``z_i``, a rational entry
subtracts ``c*z_i`` and a row with phi unpacks ``z_i`` once to add ``phi*z_i``
as well; ``x_i == 0`` is ``z_i == 0``.  A new point's scalars are built when
the sweep finds it: its discoverer's, with the touched coordinates read
through one map from packed int to ``QSqrt5`` that starts with the seed's
values, so each distinct value is one object.  Unpacking is exact while both
parts stay below 2^(k-1), and a reflection at most triples the largest part,
so each unpacked part, in a phi row and as each value enters the map, must
stay below 2^(k-4): past it the sweep runs again at width ``2k``.  Every
generator is an involution (its Cartan diagonal is 2, checked before the sweep
and by ``reflect``), so when the sweep maps point ``v`` to ``n`` it records
both ``perm[v] = n`` and ``perm[n] = v`` and skips that generator at ``n``,
and ``reflect`` checks the first step of each one.  Points whose length is not
the rank raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import sub

from .diagram import ConsistencyError, Diagram, cartan_matrix, gram_matrix_weights, group_order
from .qsqrt5 import QSqrt5, _make, _new

Point = tuple[QSqrt5, ...]


def as_point(values) -> Point:
    """Coerce a sequence of ints/Fractions/QSqrt5 into a point, as ``reflect`` and ``inner`` do."""
    return tuple(v if isinstance(v, QSqrt5) else QSqrt5(v) for v in values)


def fundamental_weight(d: Diagram, i: int) -> Point:
    """The i-th fundamental weight as a point (the i-th unit vector here)."""
    if not 1 <= i <= d.rank:
        raise ValueError(f"node index {i} outside 1..{d.rank}")
    return tuple(_make(1 if j == i else 0, 0, 1) for j in d.nodes)


def point_sub(x: Point, y: Point) -> Point:
    if len(x) != len(y):
        raise ValueError(f"points of lengths {len(x)} and {len(y)} do not subtract")
    return tuple(map(sub, x, y))


def _fits(d: Diagram, x, what: str = "point") -> None:
    if len(x) != d.rank:
        raise ValueError(f"{what} of length {len(x)} does not fit rank {d.rank}")


@dataclass(frozen=True)
class OrbitResult:
    """Closure of the seed ``points[0]`` under generating reflections; ``perms[k][v]``
    is the index of ``points[v]`` reflected by the k-th generator in ascending order."""

    points: tuple[Point, ...]
    perms: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.points)


@lru_cache(maxsize=256)
def _sparse_rows(d: Diagram) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Nonzero Cartan entries per row, as (0-based column, p, q, r) for ``(p + q√5)/r``."""
    return tuple(tuple((j, v._p, v._q, v._r) for j, v in enumerate(row) if v)
                 for row in cartan_matrix(d))


@lru_cache(maxsize=256)
def _zphi_rows(d: Diagram) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``_sparse_rows`` in Z[phi]: (0-based column, c, e) with ``(p + q√5)/r == c + e*phi``."""
    rows = _sparse_rows(d)
    if any((p - q) % r or 2 * q % r for row in rows for _, p, q, r in row):
        raise ConsistencyError(f"a Cartan entry of {d.name} is not in Z[phi]")
    return tuple(tuple((j, (p - q) // r, 2 * q // r) for j, p, q, r in row) for row in rows)


def reflect(d: Diagram, i: int, x: Point) -> Point:
    """Apply the reflection of node ``i`` (1-based): x - x_i * (row i of C).

    The Cartan diagonal, checked to be 2, negates x_i.  Each other touched
    coordinate is reduced by one gcd and built in place, as ``qsqrt5._make``
    would build it; an integer entry needs no √5 product.
    """
    if not 1 <= i <= d.rank:
        raise ValueError(f"generators {(i,)} outside 1..{d.rank}")
    if len(x) != d.rank:
        _fits(d, x)  # raises
    row = _sparse_rows(d)[i - 1]
    if (i - 1, 2, 0, 1) not in row:
        raise ConsistencyError(f"Cartan diagonal of {d.name} at node {i} is not 2")
    try:
        a, b, s = x[i - 1]._p, x[i - 1]._q, x[i - 1]._r
        coords = list(x)
        for j, c, e, t in row:
            if j == i - 1:  # -x_i, already canonical
                coords[j] = z = _new(QSqrt5)
                z._p, z._q, z._r = -a, -b, s
                continue
            # x_j - x_i C_ij, where x_i C_ij = (P + Q√5)/w
            if e or t != 1:
                P, Q, w = a * c + 5 * b * e, a * e + b * c, s * t
            else:
                P, Q, w = a * c, b * c, s
            y = coords[j]
            r = y._r
            if r == w:
                p, q = y._p - P, y._q - Q
            else:
                p, q, w = y._p * w - P * r, y._q * w - Q * r, r * w
            if w != 1 and (g := gcd(p, q, w)) != 1:
                p, q, w = p // g, q // g, w // g
            coords[j] = z = _new(QSqrt5)
            z._p, z._q, z._r = p, q, w
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
    if gens and (gens[0] < 1 or gens[-1] > d.rank):
        raise ValueError(f"generators {gens} outside 1..{d.rank}")
    return _orbit(d, as_point(seed), gens)


def _pairs(x) -> tuple[tuple[tuple[int, int], ...], int]:
    """``(((p_k, q_k), ...), r)`` with ``x_k == (p_k + q_k√5)/r`` for the least ``r``."""
    r = lcm(*[v._r for v in x])
    return tuple([(v._p * (k := r // v._r), v._q * k) for v in x]), r


# bits between the seed's largest part and the first packing width k; at least 4,
# so that the seed's own parts pass the check of ``_unpack``
_MARGIN = 8


def _unpack(z: int, k: int) -> tuple[int, int]:
    """``(a, b)`` with ``z == a + b*2^k``; ``OverflowError`` unless both are below 2^(k-4)."""
    b = (z + (1 << k - 1)) >> k
    a = z - (b << k)
    if (abs(a) | abs(b)) >> k - 4:
        raise OverflowError(f"orbit parts outgrow the packing width {k}")
    return a, b


@lru_cache(maxsize=256)
def _orbit(d: Diagram, seed: Point, gens: tuple[int, ...]) -> OrbitResult:
    if not gens:  # nothing to sweep or check
        return OrbitResult((seed,), ())
    rows = _zphi_rows(d)
    for i in gens:
        if (i - 1, 2, 0) not in rows[i - 1]:
            raise ConsistencyError(f"Cartan diagonal of {d.name} at node {i} is not 2")
    pairs, scale = _pairs(seed)
    # a | b has the bit length of the larger of a and b
    k = max([abs(p - q) | abs(2 * q) for p, q in pairs]).bit_length() + _MARGIN
    while True:
        try:
            points, perms = _sweep(d, seed, gens, pairs, scale, k)
            break
        except OverflowError:
            k *= 2
    for i, perm in zip(gens, perms):
        if reflect(d, i, seed) != points[perm[0]]:
            raise ConsistencyError(
                f"orbit sweep in {d.name} disagrees with reflect at node {i}")
    return OrbitResult(points, perms)


def _sweep(d: Diagram, seed: Point, gens: tuple[int, ...], pairs, scale: int, k: int):
    """Points and perms of the orbit, with x_j = (p_j + q_j√5)/scale packed as
    ``a + b*2^k`` for ``a + b*phi == p_j + q_j√5``; ``OverflowError`` when k is
    too narrow for the orbit's parts."""
    rows = _zphi_rows(d)
    # perm[n] is filled ahead of the sweep by n's partner, so the lists grow by doubling
    perms = tuple([[None] for _ in gens])
    # per generator: 0-based i, whether row i holds a phi, its off-diagonal (j, c, e) entries
    # (the diagonal 2, checked by _orbit, negates x_i), the columns it touches and its perm
    steps = []
    for i, perm in zip([g - 1 for g in gens], perms):
        row = [t for t in rows[i] if t[0] != i]
        steps.append((i, any([t[2] for t in row]), row, [i] + [t[0] for t in row], perm))
    start = tuple([p - q + (2 * q << k) for p, q in pairs])
    # packed value -> its one QSqrt5 (a + b*phi)/scale: the seed's own, which fit the
    # width k, then each built and checked by ``_unpack`` the first time it is read
    scalars = dict(zip(start, seed))
    limit = group_order(d)
    index = {start: 0}
    order = [start]
    size = cap = 1  # points found; length of each perm list
    # each point's scalars, built when the sweep finds it: the discoverer's, with the
    # touched coordinates read from the map (the seed's too), so values are shared
    built = [tuple(map(scalars.__getitem__, start))]
    for v, x in enumerate(order):  # order grows while swept: first-in, first-out
        for i, golden, row, cols, perm in steps:
            if perm[v] is not None:
                continue  # x is the image of an earlier point under this involution
            z = x[i]
            if not z:
                perm[v] = v
                continue
            y = list(x)
            y[i] = -z
            if golden:
                # phi*(a + b*phi) = b + (a + b)*phi, since phi^2 = phi + 1
                a, b = _unpack(z, k)
                w = b + (a + b << k)
                for j, c, e in row:
                    y[j] -= c * z + e * w
            else:
                for j, c, _ in row:
                    y[j] -= c * z
            y = tuple(y)
            n = index.setdefault(y, size)
            if n == size:
                if n == limit:
                    raise ConsistencyError(f"orbit in {d.name} outgrows |W| = {limit}")
                size += 1
                order.append(y)
                point = list(built[v])
                for j in cols:
                    t = y[j]
                    if t not in scalars:
                        a, b = _unpack(t, k)
                        scalars[t] = _make(2 * a + b, b, 2 * scale)
                    point[j] = scalars[t]
                built.append(tuple(point))
                if n == cap:
                    for p in perms:
                        p += [None] * n
                    cap *= 2
            perm[v], perm[n] = n, v
    return (seed, *built[1:]), tuple([tuple(perm[:size]) for perm in perms])


def stabilizer_order_of_point(d: Diagram, seed: Point) -> int:
    """Order of the stabilizer of ``seed``: |W| over the full orbit size."""
    size = orbit(d, seed, d.nodes).size
    total = group_order(d)
    if total % size:
        raise ConsistencyError(f"orbit size {size} does not divide |W| = {total}")
    return total // size


@lru_cache(maxsize=256)
def _int_gram(d: Diagram) -> tuple[tuple[tuple[int, int], ...], int]:
    """``_pairs`` of the weight Gram matrix, read row after row."""
    return _pairs(sum(gram_matrix_weights(d), ()))


def inner(d: Diagram, x: Point, y: Point) -> QSqrt5:
    """Euclidean inner product of two points via the weight Gram matrix."""
    _fits(d, x)
    _fits(d, y)
    try:
        xs, rx = _pairs(x)
        ys, ry = (xs, rx) if y is x else _pairs(y)
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


def random_point(d: Diagram, rng) -> Point:
    """Random exact point with small rational and root-5 parts.

    Intended for property checks; ``rng`` is a seeded random.Random.  Per
    coordinate it draws ``randint(-9, 9)/randint(1, 4)`` plus
    ``randint(-3, 3)/randint(1, 3)`` times root 5, as ``randint`` itself
    draws each part: for a range of n values, ``getrandbits(n.bit_length())``
    until the word is below n.  So the points and the generator's state are
    those of the four ``randint`` calls.
    """
    draw, coords = rng.getrandbits, []
    for _ in d.nodes:
        while (n1 := draw(5)) >= 19:
            pass
        while (d1 := draw(3)) >= 4:
            pass
        while (n2 := draw(3)) >= 7:
            pass
        while (d2 := draw(2)) >= 3:
            pass
        d1, d2 = d1 + 1, d2 + 1
        coords.append(_make((n1 - 9) * d2, (n2 - 3) * d1, d1 * d2))
    return tuple(coords)

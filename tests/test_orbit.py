"""Reflection action and orbit enumeration.

Claims:
    - reflections act by subtracting Cartan rows, fix points with zero
      coordinate, and are exact involutions
    - as matrices they preserve the weight Gram form exactly
    - orbit sizes reproduce the classical vertex counts and always divide
      the group order
    - a point with all coordinates positive has a free orbit
    - the inner product matches the Gram matrix and is reflection-invariant
    - the integer sweep returns the points and permutations of a sweep by
      ``reflect`` alone under every generator subset, each permutation is an
      involution, and a wrong Cartan row or diagonal fails fast instead of
      hanging or pairing points wrongly
    - ``reflect`` negates x_i and refuses a Cartan diagonal other than 2, also
      under ``-O``
    - every rank <= 4 diagram's orbits of both seed ends, of seeds whose parts
      grow far past their own, and of random golden and rational seeds under
      each 3-node subgroup match the sweep by ``reflect``
    - points whose length is not the rank are rejected
    - ``reflect``, ``inner`` and ``random_point`` give the same canonical
      ``(p, q, r)`` ints as the operator-based QSqrt5 routines and the
      Fraction-based draw, so the verify sample is the same stream of points
    - ``random_point`` draws that stream from ``getrandbits`` words alone, as
      many words as ``randint`` takes, never calling ``randint`` or
      ``randrange``
    - tuples of plain ints or Fractions are coerced to points, and floats raise
"""

import importlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import all_diagrams, chain_diagrams, matmul, reflection_matrix, transpose
from platonic import (
    ConsistencyError,
    End,
    Family,
    as_point,
    build,
    cartan_matrix,
    chain,
    fundamental_weight,
    gram_matrix_weights,
    group_order,
    inner,
    norm_sq,
    orbit,
    parse_name,
    point_sub,
    reflect,
    stabilizer_order_of_point,
)
from platonic.facelattice import seed_point
from platonic.orbit import random_point
from platonic.qsqrt5 import GOLDEN, QSqrt5, ZERO

orbit_module = importlib.import_module("platonic.orbit")  # ``platonic.orbit`` is the function


def reflect_sweep(d, seed, gens):
    """The breadth-first sweep by ``reflect`` alone: the oracle for ``orbit``."""
    index = {seed: 0}
    order = [seed]
    perms = tuple([] for _ in gens)
    for x in order:
        for i, perm in zip(gens, perms):
            y = reflect(d, i, x)
            k = index.get(y)
            if k is None:
                k = index[y] = len(order)
                order.append(y)
            perm.append(k)
    return tuple(order), tuple(map(tuple, perms))


def reference_reflect(d, i, x):
    """Reflection by QSqrt5 operators, one scalar at a time: the oracle for ``reflect``."""
    xi = x[i - 1]
    if not xi:
        return x
    coords = list(x)
    for j, value in enumerate(cartan_matrix(d)[i - 1]):
        if value:
            coords[j] = coords[j] - xi * value
    return tuple(coords)


def reference_inner(d, x, y):
    """Inner product by QSqrt5 operators: the oracle for ``inner``."""
    gram = gram_matrix_weights(d)
    total = ZERO
    for i, xi in enumerate(x):
        acc = ZERO
        for j, yj in enumerate(y):
            acc = acc + gram[i][j] * yj
        total = total + xi * acc
    return total


def reference_random_point(d, rng, *, golden_part=True):
    """Coordinates built from Fractions: the oracle for ``random_point``."""
    coords = []
    for _ in d.nodes:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if golden_part else 0
        coords.append(QSqrt5(a, b))
    return tuple(coords)


def ints(value):
    """The canonical ``(p, q, r)`` of a scalar, or a tuple of them for a point."""
    if isinstance(value, QSqrt5):
        return value._p, value._q, value._r
    return tuple(map(ints, value))


class TestReflect:
    def test_a3_first_mirror(self):
        a3 = build(Family.A, 3)
        assert reflect(a3, 1, as_point((1, 0, 0))) == as_point((-1, 1, 0))

    def test_a3_last_mirror(self):
        a3 = build(Family.A, 3)
        assert reflect(a3, 3, as_point((0, 0, 1))) == as_point((0, 1, -1))

    def test_zero_coordinate_fixed(self):
        h4 = build(Family.H4, 4)
        x = as_point((0, 3, Fraction(1, 2), 2))
        assert reflect(h4, 1, x) == x

    def test_node_outside_range_rejected(self):
        a3 = build(Family.A, 3)
        x = as_point((1, 2, 3))
        for i in (0, -1, 4):
            with pytest.raises(ValueError, match=r"outside 1\.\.3"):
                reflect(a3, i, x)

    def test_involution_sampled(self):
        rng = random.Random(42)
        for d in all_diagrams(8):
            for _ in range(1000):
                x = random_point(d, rng)
                for i in d.nodes:
                    assert reflect(d, i, reflect(d, i, x)) == x

    def test_plain_int_point(self):
        a3 = build(Family.A, 3)
        for x, image in (((1, 0, 0), (-1, 1, 0)), ((0, 1, 2), (0, 1, 2))):
            got = reflect(a3, 1, x)
            assert got == as_point(image)
            assert all(type(v) is QSqrt5 for v in got), got

    def test_fraction_point(self):
        h4 = build(Family.H4, 4)
        x = (Fraction(1, 2), Fraction(-2, 3), 1, 0)
        for i in h4.nodes:
            got = reflect(h4, i, x)
            assert ints(got) == ints(reflect(h4, i, as_point(x)))
            assert all(type(v) is QSqrt5 for v in got), got

    def test_float_point_rejected(self):
        a3 = build(Family.A, 3)
        for x in ((1.0, 0, 0), (1, 0.5, 0), (0.0, 0, 0)):
            with pytest.raises(TypeError):
                reflect(a3, 1, x)

    def test_wrong_length_rejected(self):
        b3 = build(Family.B, 3)
        for x in ((1, 0, 0, 9), (1, 0), as_point((1, 0, 0, 0))):
            with pytest.raises(ValueError, match="length .* does not fit rank 3"):
                reflect(b3, 1, x)

    def test_matrix_preserves_gram(self):
        # R^T G R == G proves the isometry for all points at once
        for d in all_diagrams(8):
            gram = gram_matrix_weights(d)
            for i in d.nodes:
                r = reflection_matrix(cartan_matrix(d), i)
                assert matmul(matmul(transpose(r), gram), r) == gram, (d.name, i)


class TestOrbit:
    @pytest.mark.parametrize("name,node,size", [
        ("B3", 1, 6),    # octahedron
        ("B3", 3, 8),    # cube
        ("H3", 1, 12),
        ("H3", 3, 20),
        ("A3", 1, 4),
        ("F4", 1, 24),
        ("H4", 4, 600),
        ("H4", 1, 120),
    ])
    def test_vertex_counts(self, name, node, size):
        d = parse_name(name)
        assert orbit(d, fundamental_weight(d, node), d.nodes).size == size

    def test_empty_generators(self):
        a2 = build(Family.A, 2)
        res = orbit(a2, fundamental_weight(a2, 1), ())
        assert res.size == 1 and res.points == (fundamental_weight(a2, 1),)

    def test_closure_and_determinism(self):
        b3 = build(Family.B, 3)
        res = orbit(b3, fundamental_weight(b3, 1), b3.nodes)
        pts = set(res.points)
        assert res.points[0] == fundamental_weight(b3, 1)
        for p in pts:
            for i in b3.nodes:
                assert reflect(b3, i, p) in pts
        again = orbit(b3, fundamental_weight(b3, 1), b3.nodes)
        assert again.points == res.points

    def test_sizes_divide_group_order(self):
        for d in chain_diagrams(8):
            total = group_order(d)
            for i in d.nodes:
                size = orbit(d, fundamental_weight(d, i), d.nodes).size
                assert total % size == 0, (d.name, i)

    def test_regular_point_free_orbit(self):
        for d in chain_diagrams(4):
            seed = as_point((1,) * d.rank)
            assert orbit(d, seed, d.nodes).size == group_order(d)

    def test_bad_generator(self):
        a2 = build(Family.A, 2)
        with pytest.raises(ValueError):
            orbit(a2, fundamental_weight(a2, 1), (0, 1))

    def test_seed_length_must_match_rank(self):
        a3 = build(Family.A, 3)
        for seed in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match="does not fit rank 3"):
                orbit(a3, as_point(seed), a3.nodes)


# 3*rho and phi^2*rho, rho = (1, ..., 1): their orbits' Z[phi] parts grow far past
# the seed's, to 33 in F4 and 58 in H4
GROWING = (QSqrt5(3), GOLDEN + 1)


class TestIntegerSweep:
    def check(self, d, seed, gens):
        res = orbit(d, seed, gens)
        assert (res.points, res.perms) == reflect_sweep(d, seed, tuple(sorted(gens))), (
            d.name, seed, gens)
        for perm in res.perms:
            assert all(perm[k] == v for v, k in enumerate(perm)), (d.name, seed, gens)
        return res

    def test_every_diagram_both_ends(self):
        chains = set(chain_diagrams(8))
        for d in all_diagrams(8):
            for end in End:
                seed = seed_point(d, end)
                res = self.check(d, seed, d.nodes)
                # past the seed, one scalar object per value in the whole orbit
                scalars = [x for p in res.points[1:] for x in p]
                assert len({id(x) for x in scalars}) == len(set(scalars)), d.name
                if d in chains:
                    for dec in chain(d, end):
                        self.check(d, seed, dec.filled_nodes)

    def test_random_seeds(self):
        rng = random.Random(20261018)
        diagrams = [d for d in all_diagrams(3) if d.rank <= 3]
        diagrams += [parse_name("A4"), parse_name("B4")]
        for d in diagrams:
            for golden in (True, False):
                for _ in range(3):
                    self.check(d, reference_random_point(d, rng, golden_part=golden), d.nodes)

    def test_random_seeds_generator_subsets(self):
        rng = random.Random(20261019)
        diagrams = [d for d in all_diagrams(3) if d.rank <= 3]
        diagrams += [parse_name(name) for name in ("A4", "B4", "D4")]
        for d in diagrams:
            for size in range(1, d.rank):
                for gens in combinations(d.nodes, size):
                    for golden in (True, False):
                        self.check(d, reference_random_point(d, rng, golden_part=golden), gens)

    @pytest.mark.parametrize("name", ["B9", "B10"])
    def test_benchmark_hypercubes(self, name):
        d = parse_name(name)
        seed = seed_point(d, End.RIGHT)
        self.check(d, seed, d.nodes)
        for dec in chain(d, End.RIGHT):
            self.check(d, seed, dec.filled_nodes)

    def test_largest_hypercubes(self):
        for n in (11, 12):
            d = parse_name(f"B{n}")
            res = orbit(d, seed_point(d, End.RIGHT), d.nodes)
            assert res.size == 2**n
            for perm in res.perms:
                assert all(perm[k] == v for v, k in enumerate(perm)), d.name

    def test_small_rank_seeds_match_reflect_sweep(self):
        rng = random.Random(20261020)
        cases = set()
        for d in [d for d in all_diagrams(4) if d.rank <= 4]:
            seeds = [seed_point(d, end) for end in End] + [(x,) * d.rank for x in GROWING]
            cases |= {(d, seed, d.nodes) for seed in seeds}
            randoms = [reference_random_point(d, rng, golden_part=g)
                       for g in (True, False) for _ in range(3)]
            # at rank 4 the random orbits run under each 3-node subgroup: H4's own is 14400 points
            subsets = combinations(d.nodes, 3) if d.rank == 4 else [d.nodes]
            cases |= {(d, seed, gens) for gens in subsets for seed in randoms}
        for case in cases:
            self.check(*case)

    def test_plain_rational_seed(self):
        b3 = build(Family.B, 3)
        seed = (1, Fraction(1, 2), 0)
        assert orbit(b3, seed, b3.nodes).points == orbit(b3, as_point(seed), b3.nodes).points

    def test_denominator_not_a_power_of_two(self):
        for name in ("B3", "H3"):
            d = parse_name(name)
            seed = as_point((QSqrt5(Fraction(1, 3), Fraction(1, 6)), Fraction(2, 5), 0))
            assert self.check(d, seed, d.nodes).size == group_order(d) // 2


@pytest.fixture
def corrupt_row(monkeypatch):
    """Replace one entry of one diagram's Z[phi] Cartan rows, orbit cache emptied around it."""
    real = orbit_module._zphi_rows

    def corrupt(name, row, col, entry):
        target = parse_name(name)

        def rows(d):
            table = real(d)
            if d != target:
                return table
            fixed = tuple((j, *entry) if j == col else (j, c, e) for j, c, e in table[row])
            return table[:row] + (fixed,) + table[row + 1:]

        monkeypatch.setattr(orbit_module, "_zphi_rows", rows)
        orbit_module._orbit.cache_clear()
        return target

    yield corrupt
    orbit_module._orbit.cache_clear()


def run_under_optimize(code):
    """Run ``code`` under ``python -O`` with ``sys``, ``importlib`` and the orbit
    module ``m`` imported; return the finished process."""
    code = (
        "import importlib, sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "m = importlib.import_module('platonic.orbit')\n"
    ) + code
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)


def raises_under_optimize(rows, message):
    """Run a full A3 orbit under ``python -O`` with ``_zphi_rows`` of A3 replaced by
    ``rows`` (an expression in the real ``rows``): it must raise ConsistencyError
    saying ``message``."""
    proc = run_under_optimize(
        "from platonic import ConsistencyError, fundamental_weight, parse_name\n"
        "a3 = parse_name('A3')\n"
        "rows = m._zphi_rows(a3)\n"
        f"m._zphi_rows = lambda d: {rows}\n"
        "try:\n"
        "    m.orbit(a3, fundamental_weight(a3, 1), a3.nodes)\n"
        "except ConsistencyError as e:\n"
        "    print(e)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


class TestCorruptRows:
    def test_infinite_group_stops_at_group_order(self, corrupt_row):
        # C_12 = -3 makes A3 the affine group of type G2~: the orbit never closes
        a3 = corrupt_row("A3", 0, 1, (-3, 0))
        start = time.perf_counter()
        with pytest.raises(ConsistencyError, match=r"outgrows \|W\| = 24"):
            orbit(a3, fundamental_weight(a3, 1), a3.nodes)
        assert time.perf_counter() - start < 1.0

    def test_finite_wrong_group_fails_reflect_check(self, corrupt_row):
        # C_23 = -1 turns the rows of B3 into those of A3, a finite group
        b3 = corrupt_row("B3", 1, 2, (-1, 0))
        with pytest.raises(ConsistencyError, match="disagrees with reflect at node 2"):
            orbit(b3, as_point((1, 1, 1)), b3.nodes)

    def test_infinite_group_stops_under_optimize(self):
        raises_under_optimize("(((0, 2, 0), (1, -3, 0)),) + rows[1:]", "outgrows |W| = 24")

    def test_wrong_diagonal_rejected(self, corrupt_row):
        # C_22 = 3 makes s_2 not an involution, so pairing each point with its image
        # under s_2 would be wrong; the seed w_1 has x_2 = 0, so reflect cannot tell
        a3 = corrupt_row("A3", 1, 1, (3, 0))
        with pytest.raises(ConsistencyError, match="diagonal of A3 at node 2"):
            orbit(a3, fundamental_weight(a3, 1), a3.nodes)
        assert orbit(a3, fundamental_weight(a3, 1), (1, 3)).size == 2

    def test_wrong_diagonal_rejected_under_optimize(self):
        raises_under_optimize("rows[:1] + (((0, -1, 0), (1, 3, 0), (2, -1, 0)),) + rows[2:]",
                              "diagonal of A3 at node 2")


# row 2 of A3's sparse Cartan rows with a diagonal of 3, as (column, p, q, r) entries
A3_ROW_2_DIAGONAL_3 = ((0, -1, 0, 1), (1, 3, 0, 1), (2, -1, 0, 1))


class TestReflectDiagonal:
    def test_wrong_diagonal_rejected(self, monkeypatch):
        # reflect negates x_i instead of multiplying by the diagonal, so it checks it is 2
        a3 = parse_name("A3")
        real = orbit_module._sparse_rows

        def rows(d):
            table = real(d)
            return table[:1] + (A3_ROW_2_DIAGONAL_3,) + table[2:] if d == a3 else table

        monkeypatch.setattr(orbit_module, "_sparse_rows", rows)
        with pytest.raises(ConsistencyError, match="diagonal of A3 at node 2"):
            reflect(a3, 2, as_point((1, 1, 1)))
        assert reflect(a3, 1, as_point((1, 1, 1))) == as_point((-1, 2, 1))

    def test_wrong_diagonal_rejected_under_optimize(self):
        proc = run_under_optimize(
            "from platonic import ConsistencyError, as_point, parse_name\n"
            "a3 = parse_name('A3')\n"
            "rows = m._sparse_rows(a3)\n"
            f"m._sparse_rows = lambda d: rows[:1] + ({A3_ROW_2_DIAGONAL_3},) + rows[2:]\n"
            "try:\n"
            "    m.reflect(a3, 2, as_point((1, 1, 1)))\n"
            "except ConsistencyError as e:\n"
            "    print(e)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "diagonal of A3 at node 2" in proc.stdout


class TestStabilizer:
    def test_h3(self):
        h3 = build(Family.H3, 3)
        assert stabilizer_order_of_point(h3, fundamental_weight(h3, 1)) == 10

    def test_b3(self):
        b3 = build(Family.B, 3)
        assert stabilizer_order_of_point(b3, fundamental_weight(b3, 1)) == 8

    def test_interior_point_trivial(self):
        a3 = build(Family.A, 3)
        assert stabilizer_order_of_point(a3, as_point((1, 1, 1))) == 1


class TestInner:
    def test_a1_weight_norm(self):
        a1 = build(Family.A, 1)
        w1 = fundamental_weight(a1, 1)
        assert inner(a1, w1, w1) == Fraction(1, 2)

    def test_b3_weight_norms(self):
        b3 = build(Family.B, 3)
        w1, w3 = fundamental_weight(b3, 1), fundamental_weight(b3, 3)
        assert inner(b3, w1, w1) == 1
        assert inner(b3, w3, w3) == Fraction(3, 4)
        assert inner(b3, w1, w3) == Fraction(1, 2)

    def test_zero(self):
        a2 = build(Family.A, 2)
        zero = as_point((0, 0))
        assert inner(a2, fundamental_weight(a2, 1), zero) == ZERO

    def test_plain_number_points(self):
        b3 = build(Family.B, 3)
        x, y = (1, Fraction(1, 2), 0), (Fraction(-3, 4), 2, 1)
        got = inner(b3, x, y)
        assert type(got) is QSqrt5
        assert ints(got) == ints(inner(b3, as_point(x), as_point(y)))
        assert ints(inner(b3, x, as_point(y))) == ints(got)
        with pytest.raises(TypeError):
            inner(b3, (1.0, 0, 0), y)

    def test_reflection_invariance_sampled(self):
        rng = random.Random(777)
        for d in chain_diagrams(5):
            for _ in range(20):
                x, y = random_point(d, rng), random_point(d, rng)
                base = inner(d, x, y)
                assert inner(d, y, x) == base
                for i in d.nodes:
                    assert inner(d, reflect(d, i, x), reflect(d, i, y)) == base

    def test_wrong_length_rejected(self):
        b3 = build(Family.B, 3)
        fits = as_point((1, 0, 0))
        for x, y in (((1, 0), (1, 0)), ((1, 0), fits), (fits, (1, 0, 0, 0))):
            with pytest.raises(ValueError, match="length .* does not fit rank 3"):
                inner(b3, x, y)

    def test_point_sub_lengths_must_match(self):
        for x, y in (((1, 2, 3), (1, 2)), ((1, 2), (1, 2, 3))):
            with pytest.raises(ValueError):
                point_sub(as_point(x), as_point(y))

    def test_edge_length_of_octahedron(self):
        b3 = build(Family.B, 3)
        w1 = fundamental_weight(b3, 1)
        edge = point_sub(w1, reflect(b3, 1, w1))
        assert norm_sq(b3, edge) == QSqrt5(2)


class TestExactKernels:
    """The integer kernels against the operator-based references, compared as ``(p, q, r)``."""

    def points(self, d, rng):
        """Golden and rational points, each with one coordinate zeroed, and the zero point."""
        out = [as_point((0,) * d.rank)]
        for golden in (True, False):
            for _ in range(3):
                x = reference_random_point(d, rng, golden_part=golden)
                out.append(x)
                out += [x[:k] + (ZERO,) + x[k + 1:] for k in range(d.rank)]
        out.append(tuple(GOLDEN * (k + 1) for k in range(d.rank)))
        return out

    def test_every_diagram(self):
        rng = random.Random(20261018)
        for d in all_diagrams(8):
            points = self.points(d, rng)
            for x in points:
                for i in d.nodes:
                    assert ints(reflect(d, i, x)) == ints(reference_reflect(d, i, x)), (
                        d.name, i, x)
            for x, y in zip(points, points[1:] + points[:1]):
                assert ints(inner(d, x, y)) == ints(reference_inner(d, x, y)), (d.name, x, y)
                assert ints(norm_sq(d, x)) == ints(reference_inner(d, x, x)), (d.name, x)

    @pytest.mark.parametrize("golden", [True])
    def test_random_point_draws(self, golden):
        ours, theirs = random.Random(20261018), random.Random(20261018)
        for d in all_diagrams(8):
            for _ in range(20):
                got = random_point(d, ours)
                assert ints(got) == ints(reference_random_point(d, theirs, golden_part=golden))
                assert ours.getstate() == theirs.getstate()

    def test_verify_sample(self):
        # the draws of verify's structural check: 200 involution points and 10
        # isometry pairs per diagram, in this order, from one seeded stream
        ours, theirs = random.Random(20240811), random.Random(20240811)
        for d in all_diagrams(8):
            sample = [random_point(d, ours) for _ in range(220)]
            assert ints(sample) == ints([reference_random_point(d, theirs) for _ in range(220)])
            assert ours.getstate() == theirs.getstate(), d.name
            for k, x in enumerate(sample[:200]):
                for i in d.nodes:
                    once = reflect(d, i, x)
                    assert ints(once) == ints(reference_reflect(d, i, x)), (d.name, k, i)
                    assert ints(reflect(d, i, once)) == ints(x), (d.name, k, i)
            for x, y in zip(sample[200::2], sample[201::2]):
                assert ints(inner(d, x, y)) == ints(reference_inner(d, x, y)), d.name
                for i in d.nodes:
                    moved = reflect(d, i, x), reflect(d, i, y)
                    assert ints(inner(d, *moved)) == ints(reference_inner(d, *moved)), (d.name, i)

    def test_verify_sample_draws_words_only(self):
        # the whole verify sample comes from getrandbits words, as many as
        # randint's own draws take, with no randint or randrange call
        class Counted(random.Random):
            words = 0

            def getrandbits(self, k):
                self.words += 1
                return super().getrandbits(k)

        class WordsOnly(Counted):
            def randint(self, a, b):
                raise AssertionError(f"randint({a}, {b}) called")

            def randrange(self, *args):
                raise AssertionError(f"randrange{args} called")

        ours, theirs = WordsOnly(20240811), Counted(20240811)
        for d in all_diagrams(8):
            for _ in range(220):
                assert ints(random_point(d, ours)) == ints(reference_random_point(d, theirs))
            assert ours.words == theirs.words, d.name
        assert ours.getstate() == theirs.getstate()

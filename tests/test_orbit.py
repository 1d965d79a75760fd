"""Reflection action and orbit enumeration.

Claims:
    - reflections act by subtracting Cartan rows, fix points with zero
      coordinate, and are exact involutions
    - as matrices they preserve the weight Gram form exactly
    - orbit sizes reproduce the classical vertex counts and always divide
      the group order
    - a point with all coordinates positive has a free orbit
    - the inner product matches the Gram matrix and is reflection-invariant
"""

import random
from fractions import Fraction

import pytest

from conftest import all_diagrams, chain_diagrams, matmul, reflection_matrix, transpose
from platonic import (
    Family,
    as_point,
    build,
    cartan_matrix,
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
from platonic.orbit import random_point
from platonic.qsqrt5 import QSqrt5, ZERO


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
        assert res.size == 1 and res.points == (res.seed,)

    def test_closure_and_determinism(self):
        b3 = build(Family.B, 3)
        res = orbit(b3, fundamental_weight(b3, 1), b3.nodes)
        pts = set(res.points)
        assert res.seed in pts
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

    def test_reflection_invariance_sampled(self):
        rng = random.Random(777)
        for d in chain_diagrams(5):
            for _ in range(20):
                x, y = random_point(d, rng), random_point(d, rng)
                base = inner(d, x, y)
                assert inner(d, y, x) == base
                for i in d.nodes:
                    assert inner(d, reflect(d, i, x), reflect(d, i, y)) == base

    def test_edge_length_of_octahedron(self):
        b3 = build(Family.B, 3)
        w1 = fundamental_weight(b3, 1)
        edge = point_sub(w1, reflect(b3, 1, w1))
        assert norm_sq(b3, edge) == QSqrt5(2)

"""Diagrams, Cartan/Gram matrices, orders and parabolic classification.

Claims:
    - builders produce the documented chains and the D fork, and reject
      bad family/rank pairs and unknown names; a hand-built diagram is
      rejected unless its edges are its family's bonds; equal diagrams hash
      equal, so built, parsed and hand-built ones are the same dict key
    - Cartan matrices follow the convention fixed by the orbit counts
      (octahedron from the first weight of B3), with exact golden entries
      on quintuple bonds
    - 4 cos^2(pi/m_ij) = C_ij C_ji holds exactly on every edge
    - weight Gram matrices are symmetric positive definite; C and the weight
      Gram agree with the simple-root Gram matrix A built from the labels:
      C = 2 A diag(l)^-1 and G = C^-1 A C^-T
    - group orders and root counts match the classical values
    - parabolic subsets classify componentwise with multiplicative orders,
      and every parabolic order is the orbit size of a regular point
"""

from fractions import Fraction

import pytest

from itertools import combinations

from conftest import all_diagrams, chain_diagrams, matmul, transpose
from platonic import (
    Diagram,
    DiagramError,
    Family,
    build,
    cartan_matrix,
    classify_parabolic,
    gram_matrix_weights,
    group_order,
    is_platonic_chain,
    parabolic_order,
    parse_name,
    root_count,
)
from platonic.diagram import _root_lengths_sq, matrix_inverse
from platonic.orbit import as_point, orbit
from platonic.qsqrt5 import GOLDEN, ONE, QSqrt5, ZERO


def q(*values):
    return tuple(QSqrt5(v) for v in values)


def matrix_determinant(x):
    """Exact determinant by Gaussian elimination."""
    n = len(x)
    rows = [list(row) for row in x]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].invert()
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return det


class TestBuild:
    def test_h3_chain(self):
        d = build(Family.H3, 3)
        assert d.label(1, 2) == 3 and d.label(2, 3) == 5
        assert d.label(1, 3) == 2

    def test_f4_chain(self):
        d = build(Family.F4, 4)
        assert [d.label(i, i + 1) for i in (1, 2, 3)] == [3, 4, 3]

    def test_a1_single_node(self):
        d = build(Family.A, 1)
        assert d.edges == ()

    def test_d_fork(self):
        d = build(Family.D, 5)
        assert d.neighbors(3) == (2, 4, 5)
        assert not is_platonic_chain(d)

    def test_bad_ranks(self):
        for family, rank in ((Family.A, 0), (Family.B, 1), (Family.D, 3),
                             (Family.F4, 5), (Family.H3, 4), (Family.H2, 3)):
            with pytest.raises(DiagramError):
                build(family, rank)

    def test_parse_name(self):
        assert parse_name("a4").name == "A4"
        assert parse_name("H4").rank == 4
        assert parse_name(" b7 ").family is Family.B
        for bad in ("Q9", "E6", "F5", "H9", "A", "3", "Bx"):
            with pytest.raises(DiagramError):
                parse_name(bad)

    def test_hand_built_diagram_checked(self):
        assert Diagram(Family.H3, 3, ((1, 2, 3), (2, 3, 5))) == build(Family.H3, 3)
        for family, rank, edges in ((Family.A, 3, ((1, 2, 5), (2, 3, 3))),
                                    (Family.A, 0, ()),
                                    (Family.B, 3, ((1, 2, 3),)),
                                    (Family.D, 4, ((1, 2, 3), (2, 3, 3), (3, 4, 3)))):
            with pytest.raises(DiagramError):
                Diagram(family, rank, edges)

    def test_hash_is_value_based(self):
        diagrams = all_diagrams(8)
        for d in diagrams:
            # ``build`` is cached, so a hand-built twin is the other instance
            built, parsed = build(d.family, d.rank), parse_name(d.name)
            twin = Diagram(d.family, d.rank, d.edges)
            assert twin is not built and twin == built == parsed, d.name
            assert hash(twin) == hash(built) == hash(parsed), d.name
            table = {built: d.name}
            assert table[parsed] == table[twin] == d.name
            table[twin] = "again"
            assert table == {parsed: "again"}, d.name
        assert len(set(diagrams)) == len(diagrams)


class TestCartan:
    def test_a2(self):
        assert cartan_matrix(build(Family.A, 2)) == (q(2, -1), q(-1, 2))

    def test_h3(self):
        expected = (
            (QSqrt5(2), QSqrt5(-1), ZERO),
            (QSqrt5(-1), QSqrt5(2), -GOLDEN),
            (ZERO, -GOLDEN, QSqrt5(2)),
        )
        assert cartan_matrix(build(Family.H3, 3)) == expected

    def test_b3_short_last_root(self):
        # fixed so the first-weight orbit of B3 is the 6-vertex octahedron
        expected = (q(2, -1, 0), q(-1, 2, -2), q(0, -1, 2))
        assert cartan_matrix(build(Family.B, 3)) == expected

    def test_c_transposes_b(self):
        for n in range(2, 6):
            cb = cartan_matrix(build(Family.B, n))
            cc = cartan_matrix(build(Family.C, n))
            assert cc == tuple(zip(*cb))

    def test_edge_label_identity(self):
        # 4 cos^2(pi/m) equals C_ij C_ji: 1 for m=3, 2 for m=4, golden+1 for m=5
        expected = {3: ONE, 4: QSqrt5(2), 5: GOLDEN + 1}
        for d in all_diagrams(6):
            c = cartan_matrix(d)
            for i, j, m in d.edges:
                assert c[i - 1][j - 1] * c[j - 1][i - 1] == expected[m], (d.name, i, j)
            for i in d.nodes:
                assert c[i - 1][i - 1] == 2
                for j in d.nodes:
                    if i != j and d.label(i, j) == 2:
                        assert not c[i - 1][j - 1]

    def test_nonsingular(self):
        for d in all_diagrams(6):
            assert matrix_determinant(cartan_matrix(d))


class TestGram:
    def test_a1(self):
        assert gram_matrix_weights(build(Family.A, 1)) == ((QSqrt5(Fraction(1, 2)),),)

    def test_a2_diagonal(self):
        g = gram_matrix_weights(build(Family.A, 2))
        assert g[0][0] == Fraction(2, 3) and g[1][1] == Fraction(2, 3)

    def test_b3_known_weights(self):
        # weights of B3 are e1, e1+e2, (e1+e2+e3)/2 in the usual embedding
        g = gram_matrix_weights(build(Family.B, 3))
        assert g[0][0] == 1
        assert g[2][2] == Fraction(3, 4)
        assert g[0][2] == Fraction(1, 2)

    def test_symmetric_positive_definite(self):
        for d in all_diagrams(6):
            g = gram_matrix_weights(d)
            assert g == tuple(zip(*g))
            for k in range(1, d.rank + 1):
                minor = tuple(row[:k] for row in g[:k])
                assert matrix_determinant(minor).sign() == 1, (d.name, k)

    def test_root_gram_oracle(self):
        # A, the Gram matrix of the simple roots, built here from the labels:
        # l_i on the diagonal, -l/2 at m = 3, -1 at m = 4 (one long root and
        # one short), -golden at m = 5.  Then C = 2 A diag(l)^-1 and the
        # weight Gram is C^-1 A C^-T.
        off = {2: ZERO, 4: -ONE, 5: -GOLDEN}
        for d in all_diagrams(8):
            lengths = _root_lengths_sq(d)
            roots = tuple(
                tuple(QSqrt5(lengths[i - 1]) if i == j
                      else QSqrt5(-lengths[i - 1] / 2) if d.label(i, j) == 3
                      else off[d.label(i, j)] for j in d.nodes)
                for i in d.nodes
            )
            c = cartan_matrix(d)
            assert c == tuple(tuple(a * 2 / lengths[j] for j, a in enumerate(row))
                              for row in roots), d.name
            c_inv = matrix_inverse(c)
            assert gram_matrix_weights(d) == matmul(matmul(c_inv, roots), transpose(c_inv)), d.name

    def test_inverse_helper(self):
        c = cartan_matrix(build(Family.H4, 4))
        prod = matmul(c, matrix_inverse(c))
        identity = tuple(
            tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4)
        )
        assert prod == identity


class TestOrders:
    @pytest.mark.parametrize("name,order,roots", [
        ("A3", 24, 12),
        ("B5", 3840, 50),
        ("C5", 3840, 50),
        ("D5", 1920, 40),
        ("F4", 1152, 48),
        ("H2", 10, 10),
        ("H3", 120, 30),
        ("H4", 14400, 60),
    ])
    def test_values(self, name, order, roots):
        d = parse_name(name)
        assert group_order(d) == order
        assert root_count(d) == roots


class TestParabolic:
    def test_f4_tail_is_bc3(self):
        f4 = build(Family.F4, 4)
        assert classify_parabolic(f4, {2, 3, 4}) == [("BC", 3)]
        assert parabolic_order(f4, {2, 3, 4}) == 48

    def test_h4_tail_is_h2(self):
        h4 = build(Family.H4, 4)
        assert classify_parabolic(h4, {3, 4}) == [("H", 2)]
        assert parabolic_order(h4, {3, 4}) == 10

    def test_empty(self):
        d = build(Family.A, 4)
        assert classify_parabolic(d, set()) == []
        assert parabolic_order(d, set()) == 1

    def test_examples(self):
        h3 = build(Family.H3, 3)
        assert parabolic_order(h3, {2, 3}) == 10
        b3 = build(Family.B, 3)
        assert classify_parabolic(b3, {1, 2}) == [("A", 2)]
        assert parabolic_order(b3, {1, 2}) == 6

    def test_disconnected_multiplicative(self):
        a5 = build(Family.A, 5)
        assert classify_parabolic(a5, {1, 3, 4}) == [("A", 1), ("A", 2)]
        assert parabolic_order(a5, {1, 3, 4}) == 2 * 6
        assert parabolic_order(a5, {1, 3, 4}) == (
            parabolic_order(a5, {1}) * parabolic_order(a5, {3, 4})
        )

    def test_full_set_recovers_group(self):
        for d in all_diagrams(7):
            assert parabolic_order(d, set(d.nodes)) == group_order(d)

    def test_d_fork_subsets(self):
        d6 = build(Family.D, 6)
        assert classify_parabolic(d6, {4, 5, 6}) == [("A", 3)]
        assert classify_parabolic(d6, {3, 4, 5, 6}) == [("D", 4)]
        assert parabolic_order(d6, {3, 4, 5, 6}) == 192

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_parabolic(build(Family.A, 3), {0, 1})

    def test_orders_are_regular_orbit_sizes(self):
        # rho = (1, ..., 1) has a trivial stabilizer, so its orbit under the
        # subgroup generated by S has exactly |W_S| points
        subsets = 0
        for d in all_diagrams(5):
            rho = as_point((1,) * d.rank)
            for k in range(d.rank + 1):
                for nodes in combinations(d.nodes, k):
                    assert parabolic_order(d, nodes) == orbit(d, rho, nodes).size, (d.name, nodes)
                    subsets += 1
        assert subsets == 274


class TestChainPredicate:
    def test_values(self):
        assert is_platonic_chain(build(Family.H4, 4))
        assert not is_platonic_chain(build(Family.D, 5))
        assert is_platonic_chain(build(Family.A, 1))
        for d in chain_diagrams(8):
            assert is_platonic_chain(d)

"""Diagrams, Cartan/Gram matrices, orders and parabolic classification.

Claims:
    - each node's stored neighbours equal a scan of every bond, at every
      rank <= 24, and a number outside 1..rank has none
    - builders produce the documented chains and the D fork, and reject
      bad family/rank pairs and unknown names; a diagram is its family and
      rank, makes its family's bonds once, and a hand-built one is rejected
      at a bad rank; equal diagrams hash equal, so built, parsed and
      hand-built ones are the same dict key
    - ``build`` keeps the 256 most recently used diagrams, and one built
      again after eviction equals and hashes like a fresh one
    - the family table gives the same bonds, root lengths, orders, root
      counts, names and parses as per-family code, at every rank 0..24
    - Cartan matrices follow the convention fixed by the orbit counts
      (octahedron from the first weight of B3), with exact golden entries
      on quintuple bonds
    - 4 cos^2(pi/m_ij) = C_ij C_ji holds exactly on every edge
    - weight Gram matrices are symmetric positive definite; C and the weight
      Gram agree with the simple-root Gram matrix A built from the labels:
      C = 2 A diag(l)^-1 and G = C^-1 A C^-T
    - the one-elimination weight Gram equals Gauss-Jordan's C^-1 diag(l)/2
      on all 95 diagrams of rank <= 24, and G (2 L^-1 C) = I exactly; a node
      with two lower neighbours raises ConsistencyError, also under -O
    - group orders and root counts match the classical values
    - every parabolic order of a chain, read off its maximal runs, equals
      the test-local oracle that classifies each component by its bonds
      (every subset at rank <= 8, every run at rank <= 24); orders are
      multiplicative over components, the fork D and nodes outside
      1..rank raise ValueError, and every parabolic order (D's through the
      oracle) is the orbit size of a regular point
"""

import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from itertools import combinations

from conftest import all_diagrams, chain_diagrams, matmul, transpose
from platonic import (
    ConsistencyError,
    Diagram,
    DiagramError,
    Family,
    build,
    cartan_matrix,
    gram_matrix_weights,
    group_order,
    parabolic_order,
    parse_name,
    root_count,
)
import platonic.diagram as diagram_module
from platonic.decoration import is_platonic_chain
from platonic.diagram import _TYPES, _bonds, _root_lengths_sq
from platonic.orbit import as_point, orbit
from platonic.qsqrt5 import GOLDEN, ONE, QSqrt5, ZERO


def q(*values):
    return tuple(QSqrt5(v) for v in values)


def label(d, i, j):
    """The bond label of nodes i != j, read off ``d.edges``; 2 when unlisted."""
    return next((m for a, b, m in d.edges if {a, b} == {i, j}), 2)


def matrix_inverse(x):
    """Exact inverse by Gauss-Jordan elimination: the reference for the weight Gram."""
    n = len(x)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(x)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col].invert()
        aug[col] = [v * scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


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
        assert label(d, 1, 2) == 3 and label(d, 2, 3) == 5
        assert label(d, 1, 3) == 2

    def test_f4_chain(self):
        d = build(Family.F4, 4)
        assert [label(d, i, i + 1) for i in (1, 2, 3)] == [3, 4, 3]

    def test_a1_single_node(self):
        d = build(Family.A, 1)
        assert d.edges == ()

    def test_d_fork(self):
        d = build(Family.D, 5)
        assert d.neighbors(3) == (2, 4, 5)
        assert not is_platonic_chain(d)

    def test_neighbors_equal_edge_scan(self):
        # stored once per diagram; a scan of every bond is the oracle, and a
        # number that is no node has none
        for d in all_diagrams(24):
            for i in range(d.rank + 2):
                scan = tuple(sorted(b if a == i else a for a, b, _ in d.edges if i in (a, b)))
                assert d.neighbors(i) == scan, (d.name, i)

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
            # the message names the valid names, read off the family table
            with pytest.raises(DiagramError, match=r"^unknown diagram name: .*F4, H2, H3, H4"):
                parse_name(bad)

    def test_hand_built_diagram_checked(self):
        h3 = Diagram(Family.H3, 3)
        assert h3 == build(Family.H3, 3) and h3.edges == ((1, 2, 3), (2, 3, 5))
        for family, rank in ((Family.A, 0), (Family.B, 1), (Family.D, 3), (Family.H2, 3)):
            with pytest.raises(DiagramError, match=f"invalid rank {rank} "):
                Diagram(family, rank)

    def test_bonds_made_once_per_diagram(self, monkeypatch):
        calls = []

        def counted(family, rank):
            calls.append((family, rank))
            return _bonds(family, rank)

        monkeypatch.setattr(diagram_module, "_bonds", counted)
        build.cache_clear()
        d = build(Family.B, 5)
        assert calls == [(Family.B, 5)]
        assert build(Family.B, 5) is d and len(calls) == 1
        assert d.edges == reference_bonds(Family.B, 5)

    def test_build_keeps_256_diagrams(self):
        build.cache_clear()
        first = build(Family.A, 1)
        for n in range(1, 301):
            build(Family.A, n)
        assert build.cache_info().currsize == build.cache_info().maxsize == 256
        again, fresh = build(Family.A, 1), Diagram(Family.A, 1)
        assert again is not first and again == first == fresh
        assert hash(again) == hash(first) == hash(fresh)
        assert again.edges == fresh.edges == reference_bonds(Family.A, 1)

    def test_hash_is_value_based(self):
        diagrams = all_diagrams(8)
        for d in diagrams:
            # ``build`` is cached, so a hand-built twin is the other instance
            built, parsed = build(d.family, d.rank), parse_name(d.name)
            twin = Diagram(d.family, d.rank)
            assert twin is not built and twin == built == parsed, d.name
            assert hash(twin) == hash(built) == hash(parsed), d.name
            table = {built: d.name}
            assert table[parsed] == table[twin] == d.name
            table[twin] = "again"
            assert table == {parsed: "again"}, d.name
        assert len(set(diagrams)) == len(diagrams)


# -- per-family code, one branch per family: the oracle for the family table --

REFERENCE_RANKS = {
    Family.A: (1, None), Family.B: (2, None), Family.C: (2, None), Family.D: (4, None),
    Family.F4: (4, 4), Family.H2: (2, 2), Family.H3: (3, 3), Family.H4: (4, 4),
}


def reference_bonds(family, rank):
    lo, hi = REFERENCE_RANKS[family]
    if rank < lo or (hi is not None and rank != hi):
        raise DiagramError(f"invalid rank {rank} for family {family.value}")
    chain = [(i, i + 1, 3) for i in range(1, rank)]
    if family in (Family.B, Family.C):
        chain[-1] = (rank - 1, rank, 4)
    elif family is Family.F4:
        chain[1] = (2, 3, 4)
    elif family is Family.H2:
        chain[0] = (1, 2, 5)
    elif family in (Family.H3, Family.H4):
        chain[-1] = (rank - 1, rank, 5)
    elif family is Family.D:
        chain = [(i, i + 1, 3) for i in range(1, rank - 1)]
        chain.append((rank - 2, rank, 3))
    return tuple(sorted(chain))


def reference_root_lengths_sq(family, rank):
    if family is Family.B:
        return tuple(Fraction(2) if i < rank else Fraction(1) for i in range(1, rank + 1))
    if family is Family.C:
        return tuple(Fraction(1) if i < rank else Fraction(2) for i in range(1, rank + 1))
    if family is Family.F4:
        return (Fraction(2), Fraction(2), Fraction(1), Fraction(1))
    return tuple(Fraction(2) for _ in range(rank))


def reference_type(family):
    v = family.value
    return "BC" if v in ("B", "C") else "H" if v[0] == "H" else v


def reference_name(family, rank):
    if family in (Family.F4, Family.H2, Family.H3, Family.H4):
        return family.value
    return f"{family.value}{rank}"


def reference_parse_name(name):
    m = re.fullmatch(r"([a-hA-H])\s*([0-9]+)", name.strip())
    if m is None:
        raise DiagramError(f"unknown diagram name: {name!r}")
    letter, rank = m.group(1).upper(), int(m.group(2))
    if letter in ("A", "B", "C", "D"):
        family = Family(letter)
    elif letter == "F" and rank == 4:
        family = Family.F4
    elif letter == "H" and rank in (2, 3, 4):
        family = Family(f"H{rank}")
    else:
        raise DiagramError(f"unknown diagram name: {name!r}")
    d = Diagram(family, rank)
    # the constructor makes the bonds without comparing them, so the oracle does
    assert d.edges == reference_bonds(family, rank), name
    return d


def outcome(fn, *args):
    """``fn(*args)``, or DiagramError when it raises one."""
    try:
        return fn(*args)
    except DiagramError:
        return DiagramError


class TestFamilyTable:
    def test_every_family_and_rank_against_reference(self):
        valid = 0
        for family in Family:
            for rank in range(25):
                bonds = outcome(_bonds, family, rank)
                assert bonds == outcome(reference_bonds, family, rank), (family, rank)
                if bonds is DiagramError:
                    continue
                d = build(family, rank)
                assert d.edges == bonds, d.name
                assert _root_lengths_sq(d) == reference_root_lengths_sq(family, rank), d.name
                order_and_roots = _TYPES[reference_type(family)](rank)
                assert (group_order(d), root_count(d)) == order_and_roots, d.name
                assert d.name == reference_name(family, rank)
                valid += 1
        assert valid == 24 + 23 + 23 + 21 + 4

    def test_parse_name_against_reference(self):
        accepted = 0
        for letter in "ABCDEFGHabcdefgh":
            for gap in ("", " "):
                for rank in range(25):
                    name = f"{letter}{gap}{rank}"
                    parsed = outcome(parse_name, name)
                    assert parsed == outcome(reference_parse_name, name), name
                    if parsed is not DiagramError:
                        assert parsed.edges == reference_bonds(parsed.family, parsed.rank)
                        accepted += 1
        assert accepted == 4 * 95


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
                    if i != j and label(d, i, j) == 2:
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
                      else QSqrt5(-lengths[i - 1] / 2) if label(d, i, j) == 3
                      else off[label(d, i, j)] for j in d.nodes)
                for i in d.nodes
            )
            c = cartan_matrix(d)
            assert c == tuple(tuple(a * 2 / lengths[j] for j, a in enumerate(row))
                              for row in roots), d.name
            c_inv = matrix_inverse(c)
            assert gram_matrix_weights(d) == matmul(matmul(c_inv, roots), transpose(c_inv)), d.name

    @pytest.mark.parametrize("families", [
        (Family.A,), (Family.B,), (Family.C,), (Family.D,),
        (Family.F4, Family.H2, Family.H3, Family.H4),
    ], ids=["A", "B", "C", "D", "F4-H"])
    def test_elimination_equals_gauss_jordan(self, families):
        # G_ij = (C^-1)_ij l_j / 2 on A1-A24, B2-B24, C2-C24, D4-D24, F4, H2-H4
        for d in (d for d in all_diagrams(24) if d.family in families):
            halves = [length / 2 for length in _root_lengths_sq(d)]
            expected = tuple(tuple(v * h for v, h in zip(row, halves))
                             for row in matrix_inverse(cartan_matrix(d)))
            assert gram_matrix_weights(d) == expected, d.name

    def test_gram_times_inverse_is_identity(self):
        # T = 2 L^-1 C, T_kj = 2 C_kj / l_k, nonzero only at the diagonal and bonds
        diagrams = all_diagrams(24)
        assert len(diagrams) == 95
        for d in diagrams:
            g, c, lengths = gram_matrix_weights(d), cartan_matrix(d), _root_lengths_sq(d)
            t = [[(k, c[k][j] * 2 / lengths[k]) for k in range(d.rank) if c[k][j]]
                 for j in range(d.rank)]
            product = tuple(tuple(sum((row[k] * v for k, v in col), ZERO) for col in t)
                            for row in g)
            assert product == tuple(tuple(ONE if i == j else ZERO for j in range(d.rank))
                                    for i in range(d.rank)), d.name

    def test_two_lower_neighbours_raise(self):
        # node 3 above both 1 and 2: no Diagram admits these edges, so the
        # function behind the cache gets a stand-in carrying them
        fork = SimpleNamespace(name="fork", edges=((1, 3, 3), (2, 3, 3)))
        with pytest.raises(ConsistencyError, match="node 3 of fork has two lower neighbours"):
            gram_matrix_weights.__wrapped__(fork)

    def test_two_lower_neighbours_raise_under_optimize(self):
        code = (
            "import sys\n"
            "from types import SimpleNamespace\n"
            "from platonic import ConsistencyError, gram_matrix_weights\n"
            "if __debug__:\n"
            "    sys.exit('not running under -O')\n"
            "fork = SimpleNamespace(name='fork', edges=((1, 3, 3), (2, 3, 3)))\n"
            "try:\n"
            "    gram_matrix_weights.__wrapped__(fork)\n"
            "except ConsistencyError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

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


def reference_components(d, nodes):
    """Sorted components of ``nodes`` in node order: every node has at most
    one lower neighbour, D's fork included, and a sweep in node order joins
    its component."""
    lower = {j: i for i, j, _ in d.edges}
    home = {}
    comps = []
    for v in sorted(nodes):
        comp = home.get(lower.get(v))
        if comp is None:
            comp = []
            comps.append(comp)
        comp.append(v)
        home[v] = comp
    return comps


def reference_classify(d, comp):
    """Component type by list scans, quadratic in the component: with
    ``reference_components``, the oracle for every parabolic order."""
    k = len(comp)
    inside = [(i, j, m) for i, j, m in d.edges if i in comp and j in comp]
    ends = [v for i, j, _ in inside for v in (i, j)]
    if any(ends.count(v) == 3 for v in comp):
        return ("D", k)
    heavy = [(i, m) for i, _, m in inside if m > 3]
    if not heavy:
        return ("A", k)
    [(i, m)] = heavy
    if m == 5:
        return ("H", k)
    return ("BC", k) if i - comp[0] in (0, k - 2) else ("F4", 4)


def reference_types(d, nodes):
    """One ``(type, rank)`` per component of ``nodes``, ordered by smallest node."""
    return [reference_classify(d, comp) for comp in reference_components(d, nodes)]


def reference_order(d, nodes):
    order = 1
    for kind, rank in reference_types(d, nodes):
        order *= _TYPES[kind](rank)[0]
    return order


class TestParabolic:
    def test_every_subset_against_reference(self):
        subsets = 0
        for d in all_diagrams(8):
            for k in range(d.rank + 1):
                for nodes in combinations(d.nodes, k):
                    if d.family is Family.D:
                        with pytest.raises(ValueError):
                            parabolic_order(d, nodes)
                    else:
                        assert parabolic_order(d, nodes) == reference_order(d, nodes), (
                            d.name, nodes)
                    subsets += 1
        assert subsets == 2066

    def test_every_run_against_reference(self):
        # runs lo..hi with lo <= hi + 1, so each chain counts one empty run per lo
        runs = 0
        for d in chain_diagrams(24):
            for lo in range(1, d.rank + 2):
                for hi in range(lo - 1, d.rank + 1):
                    nodes = range(lo, hi + 1)
                    assert parabolic_order(d, nodes) == reference_order(d, nodes), (d.name, lo, hi)
                    runs += 1
        assert runs == 8812

    def test_f4_tail_is_bc3(self):
        f4 = build(Family.F4, 4)
        assert reference_types(f4, {2, 3, 4}) == [("BC", 3)]
        assert parabolic_order(f4, {2, 3, 4}) == 48

    def test_h4_tail_is_h2(self):
        h4 = build(Family.H4, 4)
        assert reference_types(h4, {3, 4}) == [("H", 2)]
        assert parabolic_order(h4, {3, 4}) == 10

    def test_empty(self):
        d = build(Family.A, 4)
        assert reference_types(d, set()) == []
        assert parabolic_order(d, set()) == 1

    def test_examples(self):
        h3 = build(Family.H3, 3)
        assert parabolic_order(h3, {2, 3}) == 10
        b3 = build(Family.B, 3)
        assert reference_types(b3, {1, 2}) == [("A", 2)]
        assert parabolic_order(b3, {1, 2}) == 6

    def test_disconnected_multiplicative(self):
        a5 = build(Family.A, 5)
        assert reference_types(a5, {1, 3, 4}) == [("A", 1), ("A", 2)]
        assert parabolic_order(a5, {1, 3, 4}) == 2 * 6
        assert parabolic_order(a5, {1, 3, 4}) == (
            parabolic_order(a5, {1}) * parabolic_order(a5, {3, 4})
        )

    def test_full_set_recovers_group(self):
        for d in all_diagrams(7):
            order = reference_order if d.family is Family.D else parabolic_order
            assert order(d, set(d.nodes)) == group_order(d), d.name

    def test_d_fork_subsets(self):
        # the oracle reads D6's fork; parabolic_order reads chains only
        d6 = build(Family.D, 6)
        assert reference_types(d6, {4, 5, 6}) == [("A", 3)]
        assert reference_types(d6, {3, 4, 5, 6}) == [("D", 4)]
        assert reference_order(d6, {3, 4, 5, 6}) == 192
        for nodes in (set(), {4, 5, 6}, {3, 4, 5, 6}):
            with pytest.raises(ValueError, match="D6 is not a chain"):
                parabolic_order(d6, nodes)

    def test_out_of_range(self):
        for nodes in ({0, 1}, {4}, {1, 2, 3, 4}):
            with pytest.raises(ValueError, match="outside 1..3"):
                parabolic_order(build(Family.A, 3), nodes)

    def test_orders_are_regular_orbit_sizes(self):
        # rho = (1, ..., 1) has a trivial stabilizer, so its orbit under the
        # subgroup generated by S has exactly |W_S| points
        subsets = 0
        for d in all_diagrams(5):
            order = reference_order if d.family is Family.D else parabolic_order
            rho = as_point((1,) * d.rank)
            for k in range(d.rank + 1):
                for nodes in combinations(d.nodes, k):
                    assert order(d, nodes) == orbit(d, rho, nodes).size, (d.name, nodes)
                    subsets += 1
        assert subsets == 274


class TestChainPredicate:
    def test_values(self):
        assert is_platonic_chain(build(Family.H4, 4))
        assert not is_platonic_chain(build(Family.D, 5))
        assert is_platonic_chain(build(Family.A, 1))
        for d in chain_diagrams(8):
            assert is_platonic_chain(d)

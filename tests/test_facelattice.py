"""Face classes: counting, realization, incidence and duality.

Claims:
    - class sizes match the classical face-count tables in ranks 3 and 4
    - geometric set enumeration reproduces every class size
    - stabilizer-order ratios give the meeting numbers for consecutive
      dimensions and telescope across gaps
    - for non-consecutive dimensions the ratio counts flags, which the
      geometric count can undercut (octahedron: 8 vs 4)
    - Euler alternating sums, mirror/dual symmetries and edge-length
      uniformity hold across the supported range
    - index faces map back to the faces of the point-set enumeration
    - a count that disagrees with the enumeration raises ConsistencyError,
      also under ``python -O``
"""

import subprocess
import sys

import pytest

from conftest import chain_diagrams
from platonic import (
    ConsistencyError,
    Decoration,
    DecorationError,
    End,
    Family,
    as_point,
    build,
    chain,
    dual_read,
    enumerate_faces,
    euler_sum,
    face_count,
    face_stabilizer_nodes,
    face_table,
    fundamental_weight,
    group_order,
    incidence_count,
    intersection_symmetry_nodes,
    meeting_note,
    norm_sq,
    orbit,
    parabolic_order,
    parse_name,
    point_sub,
    polytope_name,
    realize_representative,
    reflect,
    report,
    stabilizer_ratio,
)
from platonic.facelattice import locate_in_chain, seed_point, vertex_table


def dec(text):
    return Decoration.from_text(text)


class TestFaceCount:
    @pytest.mark.parametrize("name,text,count", [
        ("H3", "fso", 30),
        ("H4", "ffso", 1200),
        ("F4", "sooo", 24),
        ("A3", "soo", 4),
        ("B4", "oosf", 32),
    ])
    def test_examples(self, name, text, count):
        assert face_count(parse_name(name), dec(text)) == count

    def test_invalid_decoration(self):
        with pytest.raises(DecorationError):
            face_count(build(Family.A, 3), dec("fos"))

    def test_fork_rejected(self):
        with pytest.raises(DecorationError):
            face_count(build(Family.D, 4), dec("sooo"))


class TestFaceTable:
    def test_a3(self):
        assert [fc.count for fc in face_table(parse_name("A3"))] == [4, 4, 6, 6, 4, 4]

    def test_b4(self):
        assert [fc.count for fc in face_table(parse_name("B4"))] == [
            8, 16, 24, 32, 32, 24, 16, 8,
        ]

    def test_b5_first_row(self):
        table = face_table(parse_name("B5"))
        assert table[0].count == 10  # 2n vertices of the rank-5 cross-polytope

    def test_row_structure(self):
        for d in chain_diagrams(6):
            table = face_table(d)
            assert len(table) == 2 * d.rank
            for row in table:
                assert row.dimension + row.dual_dimension == d.rank - 1
                assert row.face_nodes == row.decoration.filled_nodes
                assert row.stab_nodes == row.decoration.open_nodes
                assert group_order(d) % row.count == 0


class TestStabilizerRatio:
    def test_f4_edges_per_vertex(self):
        f4 = parse_name("F4")
        decs = chain(f4, End.LEFT)
        assert stabilizer_ratio(f4, decs[0], decs[1]) == 48 // 6

    def test_h4_faces_per_edge(self):
        h4 = parse_name("H4")
        decs = chain(h4, End.LEFT)
        assert stabilizer_ratio(h4, decs[1], decs[2]) == 10 // 2

    def test_b6_edges_per_vertex(self):
        b6 = parse_name("B6")
        decs = chain(b6, End.LEFT)
        assert stabilizer_ratio(b6, decs[0], decs[1]) == 2 * 5

    def test_mixed_ends_rejected(self):
        a4 = parse_name("A4")
        with pytest.raises(DecorationError):
            stabilizer_ratio(a4, chain(a4, End.LEFT)[0], chain(a4, End.RIGHT)[1])

    def test_wrong_order_rejected(self):
        a4 = parse_name("A4")
        decs = chain(a4, End.LEFT)
        with pytest.raises(DecorationError):
            stabilizer_ratio(a4, decs[2], decs[1])

    def test_telescoping(self):
        for d in chain_diagrams(6):
            if d.rank < 3:
                continue
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                for c in range(d.rank - 2):
                    for k in range(c + 1, d.rank):
                        product = 1
                        for m in range(c + 1, k + 1):
                            product *= stabilizer_ratio(d, decs[m - 1], decs[m])
                        assert stabilizer_ratio(d, decs[c], decs[k]) == product


class TestNodeSets:
    def test_intersection_nested(self):
        f1, f2 = dec("fsoo"), dec("ffso")
        assert intersection_symmetry_nodes(f1, f2) == {1}

    def test_vertex_trivial(self):
        assert intersection_symmetry_nodes(dec("sooo"), dec("ffso")) == frozenset()

    def test_idempotent(self):
        d1 = dec("fso")
        assert intersection_symmetry_nodes(d1, d1) == d1.filled_nodes

    def test_face_stabilizer_nodes(self):
        assert face_stabilizer_nodes(dec("fso")) == {1, 3}
        assert face_stabilizer_nodes(dec("sooo")) == {2, 3, 4}
        assert face_stabilizer_nodes(dec("ffs")) == {1, 2}


class TestRealize:
    def test_a3_edge(self):
        a3 = parse_name("A3")
        face = realize_representative(a3, chain(a3, End.LEFT)[1])
        assert set(face) == {as_point((1, 0, 0)), as_point((-1, 1, 0))}

    def test_h3_triangle_and_pentagon(self):
        h3 = parse_name("H3")
        assert len(realize_representative(h3, chain(h3, End.LEFT)[2])) == 3
        assert len(realize_representative(h3, chain(h3, End.RIGHT)[2])) == 5

    def test_vertex_is_seed(self):
        for d in (parse_name("A4"), parse_name("H3")):
            for end in (End.LEFT, End.RIGHT):
                face = realize_representative(d, chain(d, end)[0])
                assert face == (seed_point(d, end),)

    def test_size_is_orbit_of_seed_in_face_group(self):
        # |face| = |<S_f>| / |<S_f minus the seed node>|, the seed node being
        # the one generator of S_f that moves the seed vertex
        for name in ("A4", "B4", "C4", "F4", "H4", "H3"):
            d = parse_name(name)
            for end in (End.LEFT, End.RIGHT):
                seed_node = 1 if end is End.LEFT else d.rank
                for c in chain(d, end)[1:]:
                    expected = parabolic_order(d, c.filled_nodes) // parabolic_order(
                        d, c.filled_nodes - {seed_node}
                    )
                    assert len(realize_representative(d, c)) == expected

    def test_locate(self):
        h4 = parse_name("H4")
        assert locate_in_chain(h4, dec("osff")) == (End.RIGHT, 2)
        assert locate_in_chain(h4, dec("sfff")) == (End.RIGHT, 3)
        with pytest.raises(DecorationError):
            locate_in_chain(h4, dec("ffff"))


class TestEnumerate:
    def test_octahedron_triangles(self):
        b3 = parse_name("B3")
        assert len(enumerate_faces(b3, chain(b3, End.LEFT)[2])) == 8

    def test_vertices_equal_orbit(self):
        h3 = parse_name("H3")
        faces = enumerate_faces(h3, chain(h3, End.LEFT)[0])
        pts = orbit(h3, seed_point(h3, End.LEFT), h3.nodes).points
        assert {pts[f[0]] for f in faces} == set(pts)

    def test_matches_formula_3d_4d(self):
        for name in ("A3", "B3", "C3", "H3", "A4", "B4", "C4", "F4", "H4"):
            d = parse_name(name)
            for end in (End.LEFT, End.RIGHT):
                for c in chain(d, end):
                    assert len(enumerate_faces(d, c)) == face_count(d, c), (name, c.text)


def point_set_faces(d, c):
    """Reference enumeration on exact points: sorted point tuples closed
    under ``reflect``, with no vertex indices involved."""
    end, _ = locate_in_chain(d, c)

    def canonical(points):
        return tuple(sorted(set(points)))

    first = canonical(orbit(d, seed_point(d, end), c.filled_nodes).points)
    seen = {first}
    frontier = [first]
    while frontier:
        face = frontier.pop()
        for i in d.nodes:
            image = canonical(reflect(d, i, p) for p in face)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


class TestPointSetOracle:
    def test_index_faces_are_the_point_set_faces(self):
        # H4 is left out: its point-set lattice alone takes several seconds
        for d in chain_diagrams(5):
            if d.family is Family.H4:
                continue
            for end in (End.LEFT, End.RIGHT):
                points = vertex_table(d, end)[0]
                for c in chain(d, end):
                    got = {tuple(sorted(points[v] for v in face))
                           for face in enumerate_faces(d, c)}
                    assert got == point_set_faces(d, c), (d.name, end, c.text)

    def test_vertex_table_is_the_seed_orbit(self):
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                points, perms = vertex_table(d, end)
                assert points == orbit(d, seed_point(d, end), d.nodes).points
                for i, perm in zip(d.nodes, perms):
                    assert [points[w] for w in perm] == [reflect(d, i, p) for p in points]
                for c in chain(d, end):
                    res = orbit(d, seed_point(d, end), c.filled_nodes)
                    assert len(res.perms) == len(c.filled_nodes), (d.name, c.text)
                    for i, perm in zip(sorted(c.filled_nodes), res.perms):
                        assert [res.points[w] for w in perm] == [
                            reflect(d, i, p) for p in res.points], (d.name, c.text, i)


class TestConsistency:
    def test_tampered_count_raises(self, tampered_face_count):
        a3 = parse_name("A3")
        with pytest.raises(ConsistencyError, match="found 4 faces, counting gives 5"):
            enumerate_faces(a3, chain(a3, End.LEFT)[0])

    def test_tampered_count_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from platonic import ConsistencyError, End, chain, parse_name\n"
            "from platonic import facelattice as fl\n"
            "if __debug__:\n"
            "    sys.exit('not running under -O')\n"
            "real = fl.face_count\n"
            "fl.face_count = lambda d, c: real(d, c) + 1\n"
            "a3 = parse_name('A3')\n"
            "try:\n"
            "    fl.enumerate_faces(a3, chain(a3, End.LEFT)[0])\n"
            "except ConsistencyError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestIncidence:
    def test_f4_edges_at_vertex(self):
        f4 = parse_name("F4")
        decs = chain(f4, End.LEFT)
        assert incidence_count(f4, decs[0], decs[1]) == 8

    def test_600cell_edges_at_vertex_is_12(self):
        h4 = parse_name("H4")
        decs = chain(h4, End.LEFT)
        # independent double count: 2 * 720 edge-ends over 120 vertices
        edges = face_count(h4, decs[1])
        vertices = face_count(h4, decs[0])
        assert 2 * edges // vertices == 12
        assert incidence_count(h4, decs[0], decs[1]) == 12
        assert stabilizer_ratio(h4, decs[0], decs[1]) == 12
        note = meeting_note(h4, End.LEFT, 0, 1)
        assert note is not None and "20" in note and "12" in note

    def test_octahedron_flag_vs_face(self):
        b3 = parse_name("B3")
        decs = chain(b3, End.LEFT)
        assert stabilizer_ratio(b3, decs[0], decs[2]) == 8
        assert incidence_count(b3, decs[0], decs[2]) == 4

    def test_consecutive_matches_ratio(self):
        for name in ("A3", "B3", "C3", "H3", "A4", "B4", "C4", "F4", "H4"):
            d = parse_name(name)
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                for k in range(1, d.rank):
                    assert incidence_count(d, decs[k - 1], decs[k]) == (
                        stabilizer_ratio(d, decs[k - 1], decs[k])
                    ), (name, end, k)

    def test_edge_vertex_double_counting(self):
        for d in chain_diagrams(8):
            if d.rank < 2:
                continue
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                v = face_count(d, decs[0])
                e = face_count(d, decs[1])
                assert v * incidence_count(d, decs[0], decs[1]) == 2 * e


class TestEuler:
    def test_120cell(self):
        h4 = parse_name("H4")
        assert euler_sum(h4, End.RIGHT) == 600 - 1200 + 720 - 120 == 0

    def test_tetrahedron(self):
        a3 = parse_name("A3")
        assert euler_sum(a3, End.LEFT) == 4 - 6 + 4 == 2
        assert euler_sum(a3, End.RIGHT) == 2

    def test_b5(self):
        assert euler_sum(parse_name("B5"), End.LEFT) == 10 - 40 + 80 - 80 + 32 == 2

    def test_all_supported(self):
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                assert euler_sum(d, end) == 1 - (-1) ** d.rank


class TestDuality:
    def test_count_symmetric_under_dual_reading(self):
        for d in chain_diagrams(7):
            for end in (End.LEFT, End.RIGHT):
                for c in chain(d, end):
                    _v, face_nodes, stab_nodes = dual_read(c)
                    via_dual = group_order(d) // (
                        parabolic_order(d, face_nodes) * parabolic_order(d, stab_nodes)
                    )
                    assert via_dual == face_count(d, c)

    def test_simplex_tables_mirror(self):
        for n in range(1, 9):
            a = build(Family.A, n)
            left, right = chain(a, End.LEFT), chain(a, End.RIGHT)
            for k in range(n):
                assert left[k].symbols == right[k].symbols[::-1]
                assert face_count(a, left[k]) == face_count(a, right[k])

    def test_bc_tables(self):
        for n in range(2, 9):
            b, c = build(Family.B, n), build(Family.C, n)
            assert [f.count for f in face_table(b)] == [f.count for f in face_table(c)]
            left_b = [face_count(b, x) for x in chain(b, End.LEFT)]
            right_c = [face_count(c, x) for x in chain(c, End.RIGHT)]
            assert left_b == right_c[::-1]

    def test_edge_lengths_uniform(self):
        for name in ("A3", "B3", "C3", "H3", "A4", "B4", "C4", "F4", "H4"):
            d = parse_name(name)
            for end in (End.LEFT, End.RIGHT):
                points = vertex_table(d, end)[0]
                edges = enumerate_faces(d, chain(d, end)[1])
                lengths = {norm_sq(d, point_sub(points[a], points[b])) for a, b in edges}
                assert len(lengths) == 1, (name, end)


class TestNamesAndReport:
    @pytest.mark.parametrize("name,end,expect", [
        ("A3", End.LEFT, "tetrahedron"),
        ("B3", End.LEFT, "octahedron"),
        ("B3", End.RIGHT, "cube"),
        ("H3", End.LEFT, "icosahedron"),   # 12 vertices
        ("H3", End.RIGHT, "dodecahedron"),  # 20 vertices
        ("H4", End.LEFT, "600-cell"),
        ("H4", End.RIGHT, "120-cell"),
        ("F4", End.LEFT, "24-cell"),
        ("A6", End.LEFT, "6-simplex"),
        ("B6", End.LEFT, "cross-polytope"),
        ("B6", End.RIGHT, "hypercube"),
        ("H2", End.LEFT, "pentagon"),
    ])
    def test_vertex_count_names(self, name, end, expect):
        assert polytope_name(parse_name(name), end) == expect

    def test_report_schema(self):
        h3 = parse_name("H3")
        payload = report(h3, End.LEFT)
        assert set(payload) == {"diagram", "end", "rows", "meets"}
        assert payload["diagram"] == "H3" and payload["end"] == "left"
        assert [row["count"] for row in payload["rows"]] == [12, 30, 20]
        assert set(payload["rows"][0]) == {
            "decoration", "d", "v", "face_nodes", "stab_nodes", "count",
        }
        assert payload["meets"] == [
            {"c": 0, "d": 1, "ratio": 5, "geometric": 5},
            {"c": 1, "d": 2, "ratio": 2, "geometric": 2},
        ]

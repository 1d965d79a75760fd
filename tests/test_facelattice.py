"""Face classes: counting, realization, incidence and duality.

Claims:
    - class sizes match the classical face-count tables in ranks 3 and 4
    - geometric set enumeration reproduces every class size; the vertex
      class, read off the vertex table, equals the closure of vertex 0
    - stabilizer-order ratios give the meeting numbers for consecutive
      dimensions and telescope across gaps
    - for non-consecutive dimensions the ratio counts flags, which the
      geometric count can undercut (octahedron: 8 vs 4)
    - Euler alternating sums, mirror/dual symmetries and edge-length
      uniformity hold across the supported range
    - index faces map back to the faces of the point-set enumeration
    - the pair-once closure equals the plain breadth-first closure on every
      class of rank <= 8 at both ends, on B9 right and on every face group's
      vertex closure, and forms one image per fixed (face, reflection) and one
      per swapped pair, not one per face and reflection
    - the c-faces inside a representative d-face are counted by the
      formula on the sub-diagram of its filled nodes (the paper's recursion)
    - the distinct k-faces around a c-face are counted by the formula on
      the face figure, the sub-diagram of its open nodes seeded next to
      its square
    - that count is one orbit of the c-face's stabilizer, which agrees with
      the whole-class scan and with |W_K| / |W_{K - {m}}| on every case up
      to rank 8, and needs no enumerated face class up to rank 24
    - the two seed ends give dual polytopes: facets of the left one map
      equivariantly and bijectively onto vertices of the right one, and
      the facets around each left k-face are a right (n-1-k)-face
    - each end's enumerated lattice of every chain diagram of rank <= 7 has
      exactly |W| maximal chains vertex < edge < ... < facet, as W acts simply
      transitively on the flags of a regular polytope; one B4 edge swapped
      for a non-edge breaks the count
    - a count that disagrees with the enumeration raises ConsistencyError,
      also under ``python -O``
"""

import json
import subprocess
import sys

import pytest

from conftest import chain_diagrams
from platonic import (
    ConsistencyError,
    Decoration,
    DecorationError,
    DiagramError,
    End,
    Family,
    as_point,
    build,
    chain,
    cli,
    enumerate_faces,
    euler_sum,
    face_count,
    face_table,
    facelattice,
    fundamental_weight,
    group_order,
    incidence_count,
    meeting_note,
    norm_sq,
    orbit,
    parabolic_order,
    parse_name,
    point_sub,
    polytope_name,
    reflect,
    report,
    stabilizer_ratio,
)
from platonic.diagram import _bonds
from platonic.facelattice import _representative, locate_in_chain, seed_point, vertex_table
from platonic.qsqrt5 import ZERO
from platonic.verify import _cross_count, _cube_count, _simplex_count


def dec(text):
    return Decoration(text)


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
        with pytest.raises(DecorationError, match="chain"):
            face_count(build(Family.D, 4), dec("sooo"))


def table_counts(d):
    return [face_count(d, c) for c in face_table(d)]


class TestFaceTable:
    def test_a3(self):
        assert table_counts(parse_name("A3")) == [4, 4, 6, 6, 4, 4]

    def test_b4(self):
        assert table_counts(parse_name("B4")) == [8, 16, 24, 32, 32, 24, 16, 8]

    def test_b5_first_row(self):
        b5 = parse_name("B5")
        assert face_count(b5, face_table(b5)[0]) == 10  # 2n vertices of the cross-polytope

    def test_row_structure(self):
        for d in chain_diagrams(6):
            table = face_table(d)
            assert len(table) == 2 * d.rank
            assert table[0::2] == chain(d, End.LEFT)
            assert table[1::2] == chain(d, End.RIGHT)
            for row in table:
                assert row.dimension + row.dual_dimension == d.rank - 1
                assert group_order(d) % face_count(d, row) == 0


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
        # A1's two chains are both ("s",), so its only pair fails on dimension
        a1 = parse_name("A1")
        for meet in (stabilizer_ratio, incidence_count):
            with pytest.raises(DecorationError, match="need dimensions c < d"):
                meet(a1, chain(a1, End.LEFT)[0], chain(a1, End.RIGHT)[0])

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


def face_points(d, end, c):
    """One face of the class of ``c``: the seed vertex's orbit under its filled nodes."""
    return orbit(d, seed_point(d, end), c.filled_nodes).points


class TestRealize:
    def test_a3_edge(self):
        a3 = parse_name("A3")
        face = face_points(a3, End.LEFT, chain(a3, End.LEFT)[1])
        assert set(face) == {as_point((1, 0, 0)), as_point((-1, 1, 0))}

    def test_h3_triangle_and_pentagon(self):
        h3 = parse_name("H3")
        assert len(face_points(h3, End.LEFT, chain(h3, End.LEFT)[2])) == 3
        assert len(face_points(h3, End.RIGHT, chain(h3, End.RIGHT)[2])) == 5

    def test_vertex_is_seed(self):
        for d in (parse_name("A4"), parse_name("H3")):
            for end in (End.LEFT, End.RIGHT):
                face = face_points(d, end, chain(d, end)[0])
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
                    assert len(face_points(d, end, c)) == expected

    def test_locate(self):
        h4 = parse_name("H4")
        assert locate_in_chain(h4, dec("osff")) == (End.RIGHT, 2)
        assert locate_in_chain(h4, dec("sfff")) == (End.RIGHT, 3)
        with pytest.raises(DecorationError):
            locate_in_chain(h4, dec("ffff"))

    def test_locate_wrong_length_raises(self):
        a3 = parse_name("A3")
        for text in ("ffff", "s"):
            with pytest.raises(DecorationError):
                locate_in_chain(a3, dec(text))


class TestEnumerate:
    def test_octahedron_triangles(self):
        b3 = parse_name("B3")
        assert len(enumerate_faces(b3, chain(b3, End.LEFT)[2])) == 8

    def test_vertices_equal_orbit(self):
        h3 = parse_name("H3")
        faces = enumerate_faces(h3, chain(h3, End.LEFT)[0])
        pts = orbit(h3, seed_point(h3, End.LEFT), h3.nodes).points
        assert {pts[f[0]] for f in faces} == set(pts)

    def test_vertex_class_equals_closure_of_vertex_0(self):
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                perms = vertex_table(d, end)[1]
                assert enumerate_faces(d, chain(d, end)[0]) == \
                    facelattice._closure((0,), perms), (d.name, end)

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


def reference_closure(first, perms):
    """The plain closure: every image of every face under every perm."""
    seen = {first}
    frontier = [first]
    while frontier:
        face = frontier.pop()
        for perm in perms:
            image = tuple(sorted([perm[v] for v in face]))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return tuple(sorted(seen))


def classes(d, end):
    """Each class of one polytope as (representative face, vertex perms)."""
    perms = vertex_table(d, end)[1]
    return [(_representative(perms, c), perms) for c in chain(d, end)]


class CountingPerm(tuple):
    """A vertex permutation that counts the lookups made through it."""

    lookups = 0

    def __getitem__(self, v):
        CountingPerm.lookups += 1
        return tuple.__getitem__(self, v)


class TestClosure:
    def test_equals_reference_on_every_class_to_rank_8(self):
        cases = [case for d in chain_diagrams(8) for end in (End.LEFT, End.RIGHT)
                 for case in classes(d, end)]
        assert len(cases) == 238
        for first, perms in cases:
            assert facelattice._closure(first, perms) == reference_closure(first, perms)

    def test_equals_reference_on_b9_right(self):
        for first, perms in classes(parse_name("B9"), End.RIGHT):
            assert facelattice._closure(first, perms) == reference_closure(first, perms)

    def test_representatives_equal_reference(self):
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                perms = vertex_table(d, end)[1]
                for c in chain(d, end):
                    face_perms = [perms[i - 1] for i in c.filled_nodes]
                    assert facelattice._closure((0,), face_perms) == \
                        reference_closure((0,), face_perms), (d.name, end, c.text)

    @pytest.mark.parametrize("name,end", [("H4", End.RIGHT), ("B6", End.RIGHT)])
    def test_one_image_per_fixed_face_and_per_swapped_pair(self, name, end):
        for first, perms in classes(parse_name(name), end)[1:]:  # faces of 2+ vertices
            faces = reference_closure(first, perms)
            moved = sum(tuple(sorted(perm[v] for v in face)) != face
                        for face in faces for perm in perms)
            fixed = len(perms) * len(faces) - moved
            CountingPerm.lookups = 0
            got = facelattice._closure(first, [CountingPerm(perm) for perm in perms])
            assert got == faces
            assert CountingPerm.lookups == len(first) * (fixed + moved // 2)
            assert fixed + moved // 2 < len(perms) * len(faces)


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


def face_diagram(d, nodes, end):
    """The sub-diagram of ``nodes`` and the end its seed vertex sits at.

    The nodes, relabelled 1..k in order, are matched against each family's
    bonds; when they match only read backwards, the seed node lands at the
    other end.  The filled nodes of a face class give the face's own
    diagram and its open nodes the face figure; both are seeded at the
    chain's ``end``, which for the figure is the side of the square.
    """
    label = {node: k for k, node in enumerate(sorted(nodes), 1)}
    k = len(label)
    edges = tuple(sorted((label[i], label[j], m) for i, j, m in d.edges
                         if i in label and j in label))
    flipped = tuple(sorted((k + 1 - j, k + 1 - i, m) for i, j, m in edges))
    other = End.RIGHT if end is End.LEFT else End.LEFT
    for family in Family:
        try:
            bonds = _bonds(family, k)
        except DiagramError:
            continue
        if bonds == edges:
            return build(family, k), end
        if bonds == flipped:
            return build(family, k), other
    raise AssertionError(f"no family has the bonds {edges} of {d.name} {sorted(nodes)}")


class TestFacesOfFaces:
    def test_octahedral_cells(self):
        f4 = parse_name("F4")
        for end in (End.LEFT, End.RIGHT):
            sub, sub_end = face_diagram(f4, chain(f4, end)[3].filled_nodes, end)
            assert polytope_name(sub, sub_end) == "octahedron"
        h4 = parse_name("H4")
        sub, sub_end = face_diagram(h4, chain(h4, End.RIGHT)[3].filled_nodes, End.RIGHT)
        assert polytope_name(sub, sub_end) == "dodecahedron"

    def test_faces_inside_a_face_are_counted_on_its_subdiagram(self):
        # the paper's recursion: a d-face is the polytope of its filled nodes
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                perms = vertex_table(d, end)[1]
                for k in range(2, d.rank):
                    face = set(_representative(perms, decs[k]))
                    sub, sub_end = face_diagram(d, decs[k].filled_nodes, end)
                    sub_decs = chain(sub, sub_end)
                    for c in range(k):
                        inside = sum(1 for f in enumerate_faces(d, decs[c])
                                     if face.issuperset(f))
                        assert inside == face_count(sub, sub_decs[c]), (
                            d.name, end, k, c)


    def test_faces_around_a_face_are_counted_on_its_figure(self):
        # the open nodes of a c-face, seeded next to its square, are the
        # diagram of its face figure: the k-faces containing the c-face are
        # the figure's (k-c-1)-faces, so the geometric incidence count has
        # a counting route at every gap, where the flag ratio does not
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                for c in range(d.rank - 1):
                    figure, figure_end = face_diagram(d, decs[c].open_nodes, end)
                    figure_decs = chain(figure, figure_end)
                    for k in range(c + 1, d.rank):
                        assert incidence_count(d, decs[c], decs[k]) == face_count(
                            figure, figure_decs[k - c - 1]), (d.name, end, c, k)


class TestDualLattice:
    def test_right_polytope_is_the_dual_of_the_left(self):
        # facets of the left polytope map to vertices of the right one by
        # equivariance: the representative facet goes to vertex 0, and a
        # reflection moves facets and vertices alike; the facets around each
        # left k-face then make up exactly the right polytope's (n-1-k)-faces
        for d in chain_diagrams(8):
            n = d.rank
            left, right = chain(d, End.LEFT), chain(d, End.RIGHT)
            points, left_perms = vertex_table(d, End.LEFT)
            right_perms = vertex_table(d, End.RIGHT)[1]
            first = _representative(left_perms, left[n - 1])
            # the representative facet's centroid lies on the ray of the last weight
            centroid = [sum(col, ZERO) for col in zip(*(points[v] for v in first))]
            assert not any(centroid[:-1]) and centroid[-1].sign() == 1, d.name
            to_vertex = {first: 0}
            frontier = [first]
            while frontier:
                facet = frontier.pop()
                for lp, rp in zip(left_perms, right_perms):
                    image = tuple(sorted(lp[v] for v in facet))
                    vertex = rp[to_vertex[facet]]
                    if image not in to_vertex:
                        to_vertex[image] = vertex
                        frontier.append(image)
                    assert to_vertex[image] == vertex, (d.name, "not well defined")
            assert sorted(to_vertex) == list(enumerate_faces(d, left[n - 1])), d.name
            assert sorted(to_vertex.values()) == list(range(face_count(d, right[0]))), d.name
            around = {}  # left vertex -> right vertices of the facets around it
            for facet, vertex in to_vertex.items():
                for v in facet:
                    around.setdefault(v, set()).add(vertex)
            for k in range(n):
                duals = {tuple(sorted(set.intersection(*(around[v] for v in face))))
                         for face in enumerate_faces(d, left[k])}
                assert duals == set(enumerate_faces(d, right[n - 1 - k])), (d.name, k)


def flag_count(classes):
    """Maximal chains vertex < edge < ... < facet of a lattice given as its face
    classes in dimension order: each k-face sums the counts of the (k-1)-faces
    it contains, and the facets' counts add up to the answer."""
    counts = dict.fromkeys(classes[0], 1)
    for lower, upper in zip(classes, classes[1:]):
        above = {}  # vertex -> the upper faces holding it, as sets
        for face in upper:
            for v in face:
                above.setdefault(v, []).append((face, set(face)))
        sums = dict.fromkeys(upper, 0)
        for face in lower:
            for big, vertices in above.get(face[0], ()):
                if vertices.issuperset(face):
                    sums[big] += counts[face]
        counts = sums
    return sum(counts.values())


class TestFlagCount:
    def test_every_chain_polytope_has_group_order_flags(self):
        cases = [(d, end) for d in chain_diagrams(7) for end in End]
        assert len(cases) == 46
        for d, end in cases:
            classes = [enumerate_faces(d, dec) for dec in chain(d, end)]
            assert flag_count(classes) == group_order(d), (d.name, end)

    def test_tampered_lattice_fails(self):
        # one edge u-v of B4's left polytope swapped for u-w, w the first other
        # vertex that no edge joins to u
        d = parse_name("B4")
        classes = [list(enumerate_faces(d, dec)) for dec in chain(d, End.LEFT)]
        assert flag_count(classes) == group_order(d) == 384
        edges = set(classes[1])
        u = classes[1][0][0]
        w = next(w for w in range(len(classes[0]))
                 if w != u and tuple(sorted((u, w))) not in edges)
        classes[1][0] = tuple(sorted((u, w)))
        assert flag_count(classes) == 368


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


def scan_incidence(d, dec_c, dec_d):
    """The whole-class scan: members of the enumerated d-class whose vertex
    set contains the representative c-face."""
    end, _ = locate_in_chain(d, dec_c)
    small = set(_representative(vertex_table(d, end)[1], dec_c))
    return sum(1 for face in enumerate_faces(d, dec_d) if small.issubset(face))


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

    def test_orbit_scan_and_order_ratio_agree(self):
        # three routes to the distinct d-faces around a c-face: the W_K-orbit
        # of the weight of the d-decoration's square m (incidence_count), the
        # whole-class scan, and |W_K| / |W_{K - {m}}|, K the c-face's
        # filled and open nodes
        cases = 0
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                for k in range(1, d.rank):
                    (m,) = decs[k].square_nodes
                    for c in range(k):
                        stab = decs[c].filled_nodes | decs[c].open_nodes
                        ratio = parabolic_order(d, stab) // parabolic_order(d, stab - {m})
                        assert incidence_count(d, decs[c], decs[k]) == scan_incidence(
                            d, decs[c], decs[k]) == ratio, (d.name, end, c, k)
                        cases += 1
        assert cases == 536

    def test_edge_vertex_double_counting(self):
        for d in chain_diagrams(8):
            if d.rank < 2:
                continue
            for end in (End.LEFT, End.RIGHT):
                decs = chain(d, end)
                v = face_count(d, decs[0])
                e = face_count(d, decs[1])
                assert v * incidence_count(d, decs[0], decs[1]) == 2 * e


class TestAllDimensions:
    def test_meets_at_every_rank_to_24_without_the_face_lattice(self, monkeypatch, capsys):
        # verify checks 5 and 6 stop at rank 8; the meets come from small
        # stabilizer orbits, so the report reaches rank 24 (16.7 million
        # hypercube vertices) without a vertex orbit or an enumerated class
        def refuse(*args):
            raise AssertionError("the face lattice was built")

        monkeypatch.setattr(facelattice, "enumerate_faces", refuse)
        monkeypatch.setattr(facelattice, "vertex_table", refuse)
        for n in range(2, 25):
            simplex = (_simplex_count, lambda k: n + 1 - k)
            polytopes = [(build(Family.A, n), End.LEFT, *simplex),
                         (build(Family.A, n), End.RIGHT, *simplex)]
            for family in (Family.B, Family.C):
                polytopes += [(build(family, n), End.LEFT, _cross_count, lambda k: 2 * (n - k)),
                              (build(family, n), End.RIGHT, _cube_count, lambda k: n + 1 - k)]
            for d, end, count, meet in polytopes:
                payload = report(d, end)
                assert [row["count"] for row in payload["rows"]] == [
                    count(n, k) for k in range(n)], (d.name, end)
                # "ratio" is stabilizer_ratio, "geometric" incidence_count
                assert payload["meets"] == [
                    {"c": k - 1, "d": k, "ratio": meet(k), "geometric": meet(k)}
                    for k in range(1, n)], (d.name, end)
        assert cli.main(["faces", "B24", "right", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == report(parse_name("B24"), End.RIGHT)


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
                    face_nodes, stab_nodes = c.open_nodes, c.filled_nodes
                    via_dual = group_order(d) // (
                        parabolic_order(d, face_nodes) * parabolic_order(d, stab_nodes)
                    )
                    assert via_dual == face_count(d, c)

    def test_simplex_tables_mirror(self):
        for n in range(1, 9):
            a = build(Family.A, n)
            left, right = chain(a, End.LEFT), chain(a, End.RIGHT)
            for k in range(n):
                assert left[k].text == right[k].text[::-1]
                assert face_count(a, left[k]) == face_count(a, right[k])

    def test_bc_tables(self):
        for n in range(2, 9):
            b, c = build(Family.B, n), build(Family.C, n)
            assert table_counts(b) == table_counts(c)
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

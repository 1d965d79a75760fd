"""Mesh and incidence exports.

Claims:
    - OFF files carry the right vertex/face counts, valid index ranges,
      outward-oriented polygons and satisfy V - E + F = 2 when the edges
      are recomputed from the face cycles
    - the Cartesian embedding reproduces the exact Gram inner products
    - incidence JSON lists exact coordinates that parse back, plus
      per-dimension faces whose sizes match the counting formula
    - OFF meshes and incidence JSON are byte-identical to recorded outputs
"""

import hashlib
import math

import numpy as np
import pytest

from platonic import End, chain, face_count, inner, parse_name
from platonic.cli import canonical_json
from platonic.export import cartesian_map, incidence_json, off_text
from platonic.qsqrt5 import QSqrt5


def parse_off(text):
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "OFF"
    nv, nf, ne = map(int, lines[1].split())
    verts = [tuple(map(float, ln.split())) for ln in lines[2:2 + nv]]
    faces = []
    for ln in lines[2 + nv:2 + nv + nf]:
        parts = list(map(int, ln.split()))
        assert parts[0] == len(parts) - 1
        faces.append(parts[1:])
    return nv, nf, ne, verts, faces


def edges_of(faces):
    out = set()
    for poly in faces:
        for a, b in zip(poly, poly[1:] + poly[:1]):
            out.add((min(a, b), max(a, b)))
    return out


class TestOff:
    @pytest.mark.parametrize("name,end,nv,nf,gon", [
        ("H3", End.LEFT, 12, 20, 3),
        ("B3", End.RIGHT, 8, 6, 4),
        ("A3", End.LEFT, 4, 4, 3),
        ("B3", End.LEFT, 6, 8, 3),
        ("H3", End.RIGHT, 20, 12, 5),
        ("A3", End.RIGHT, 4, 4, 3),
    ])
    def test_shapes_and_euler(self, name, end, nv, nf, gon):
        text = off_text(parse_name(name), end)
        got_nv, got_nf, got_ne, verts, faces = parse_off(text)
        assert (got_nv, got_nf) == (nv, nf)
        assert all(len(poly) == gon for poly in faces)
        assert all(0 <= i < nv for poly in faces for i in poly)
        edges = edges_of(faces)
        assert len(edges) == got_ne
        assert got_nv - len(edges) + got_nf == 2

    def test_faces_oriented_outward(self):
        for name, end in (("H3", End.LEFT), ("B3", End.RIGHT), ("H3", End.RIGHT)):
            _nv, _nf, _ne, verts, faces = parse_off(off_text(parse_name(name), end))
            pts = np.array(verts)
            for poly in faces:
                ring = pts[poly]
                center = ring.mean(axis=0)
                newell = np.zeros(3)
                for a, b in zip(ring, np.roll(ring, -1, axis=0)):
                    newell += np.cross(a, b)
                assert np.dot(newell, center) > 1e-9

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            off_text(parse_name("A4"), End.LEFT)


class TestEmbedding:
    def test_matches_exact_inner_products(self):
        for name in ("A3", "B3", "H3", "H4"):
            d = parse_name(name)
            emb = cartesian_map(d)
            gram = emb.T @ emb
            for i in d.nodes:
                for j in d.nodes:
                    wi = [QSqrt5(1 if k == i else 0) for k in d.nodes]
                    wj = [QSqrt5(1 if k == j else 0) for k in d.nodes]
                    exact = float(inner(d, tuple(wi), tuple(wj)))
                    assert math.isclose(gram[i - 1][j - 1], exact, abs_tol=1e-10)


class TestIncidenceJson:
    def test_h4_counts(self):
        h4 = parse_name("H4")
        payload = incidence_json(h4, End.LEFT)
        assert payload["name"] == "600-cell"
        assert len(payload["vertices"]) == 120
        sizes = {k: len(v) for k, v in payload["faces"].items()}
        assert sizes == {"0": 120, "1": 720, "2": 1200, "3": 600}

    def test_coordinates_parse_back(self):
        h3 = parse_name("H3")
        payload = incidence_json(h3, End.LEFT)
        for vertex in payload["vertices"]:
            got = [QSqrt5.parse(s) for s in vertex["omega"]]
            assert len(got) == 3
            assert all(isinstance(v, QSqrt5) for v in got)
            approx = [float(v) for v in got]
            assert len(vertex["cartesian"]) == 3
            assert all(isinstance(x, float) for x in vertex["cartesian"])
            assert approx  # exact and float views both present

    def test_face_sizes_match_formula(self):
        b4 = parse_name("B4")
        payload = incidence_json(b4, End.RIGHT)
        decs = chain(b4, End.RIGHT)
        for k, dc in enumerate(decs):
            assert len(payload["faces"][str(k)]) == face_count(b4, dc)
        # 3-faces of the tesseract are cubes on 8 vertices
        assert all(len(cell) == 8 for cell in payload["faces"]["3"])


def floats_as_printed(value):
    """Cartesian floats at the 12 significant digits the OFF mesh prints."""
    if isinstance(value, float):
        return format(value + 0.0, ".12g")
    if isinstance(value, dict):
        return {k: floats_as_printed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [floats_as_printed(v) for v in value]
    return value


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of whole outputs, recorded at commit 5c3e942 from the point-set
# face enumeration: the OFF digests pin the polygon order as well as the
# vertices and the cycles, the JSON digests the vertex order and every face
# list
OFF_DIGESTS = {
    ("A3", "left"): "f278d4c14129f17be74539dcae7077962959b02f96f42268febbe08653b3aeb2",
    ("A3", "right"): "60b135f30983d07d97a82b39651ff9704ace28da4a0c27543e70ef58de8c67b4",
    ("B3", "left"): "188ad197ad37282e09f3d1caf04b6204fc2e0fc0163a23cb07ee32ab008ce417",
    ("B3", "right"): "78ff946abec8df33ec500bf8e2707e03bd3cb6ec574e768a6f602277925ccccb",
    ("C3", "left"): "ee100a082a27776241c6a0dc4dd5ce5aa90060cdd8c77f03e6336175eb7adb51",
    ("C3", "right"): "465f5bea4c2e0fcda323ea9b4004e08d1a98bb318c74dd184a832bc8eb2de553",
    ("H3", "left"): "3d47dd8fc71fde807d36c1f08370b40717dc0d8b793d7c79078bffa63e6ff69e",
    ("H3", "right"): "93d7c92d2952caa2cbc3529f36f3c1123b24b4d8641c9141343e5538a25b1993",
}
INCIDENCE_DIGESTS = {
    ("B4", "left"): "216f2f79b3e38811d47d415235ecf97a14fa2a6bbbab2fe76fb3d47f54ea2b68",
    ("B4", "right"): "3e2d273f5caf1c6afc0d961202ebe529cdc16ef6a9bf2a0c4abba82de6f81e90",
    ("H4", "left"): "5db50524f19b0eb2a93f9d82a319dea82789d93694fb42e873b69ea20be24b50",
    ("H4", "right"): "55f9e2805b2a1fc984e59a160746f895f580f4fb93728bfd29534974f4dc53d7",
}


class TestGolden:
    @pytest.mark.parametrize("name,end", OFF_DIGESTS)
    def test_off(self, name, end):
        text = off_text(parse_name(name), End(end))
        assert sha256(text) == OFF_DIGESTS[name, end]

    @pytest.mark.parametrize("name,end", INCIDENCE_DIGESTS)
    def test_incidence_json(self, name, end):
        payload = floats_as_printed(incidence_json(parse_name(name), End(end)))
        assert sha256(canonical_json(payload)) == INCIDENCE_DIGESTS[name, end]

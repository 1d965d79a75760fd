"""Face classes of Platonic polytopes: counts, enumeration and incidence.

A face class is one decoration of the chain recursion: its filled nodes
generate the face's own symmetry group, its open nodes the pointwise
stabilizer, and the class size is

    count = |W| / (|stabilizer parabolic| * |face parabolic|).

Every counting statement has a geometric counterpart: a face is the seed
vertex's orbit under the face's generators, the d-faces around a c-face
are one orbit of its stabilizer, and a whole class is a breadth-first
closure on vertex sets (sorted tuples of indices into the exact vertex
orbit, which each reflection permutes as the orbit sweep records).  Each
reflection is an involution, so the closure forms the image of each pair of
faces it swaps once, as the orbit sweep does for points.  The two routes
are kept independent so one can check the other.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .decoration import Decoration, DecorationError, End, chain, is_platonic_chain, validate
from .diagram import ConsistencyError, Diagram, Family, group_order, parabolic_order
# not called here: kept as facelattice.reflect, an import site perfbench wraps
from .orbit import Point, fundamental_weight, orbit, reflect  # noqa: F401

Face = tuple[int, ...]


def face_count(d: Diagram, dec: Decoration) -> int:
    """Number of faces in the class of ``dec``: |W| over both parabolic orders."""
    if not is_platonic_chain(d):
        raise DecorationError(f"{d.name} has no Platonic chain: its faces form several orbits")
    if not validate(d, dec):
        raise DecorationError(f"invalid decoration {dec.text} for {d.name}")
    total = group_order(d)
    denom = parabolic_order(d, dec.open_nodes) * parabolic_order(d, dec.filled_nodes)
    if total % denom:
        raise ConsistencyError(f"non-integral face count {total}/{denom}")
    return total // denom


def face_table(d: Diagram) -> tuple[Decoration, ...]:
    """The decorations of all 2n face classes, alternating left/right seeds.

    Row order matches the conventional tables: for each dimension first
    the left-seeded class, then the right-seeded (dual) one.
    """
    return tuple(dec for pair in zip(chain(d, End.LEFT), chain(d, End.RIGHT)) for dec in pair)


def locate_in_chain(d: Diagram, dec: Decoration) -> tuple[End, int]:
    """Which chain (seed end) and dimension a decoration belongs to.

    Each chain holds one decoration per dimension, at that dimension's index.
    """
    if dec.dimension < d.rank:
        for end in (End.LEFT, End.RIGHT):
            if chain(d, end)[dec.dimension] == dec:
                return end, dec.dimension
    raise DecorationError(f"decoration {dec.text} is not in either chain of {d.name}")


def _common_end(d: Diagram, dec_c: Decoration, dec_d: Decoration) -> None:
    """Raise unless a c-face and a d-face class share a seed end and c < d."""
    end_c, dim_c = locate_in_chain(d, dec_c)
    end_d, dim_d = locate_in_chain(d, dec_d)
    if end_c is not end_d:
        raise DecorationError("decorations come from different seed ends")
    if dim_c >= dim_d:
        raise DecorationError(f"need dimensions c < d, got {dim_c} >= {dim_d}")


def stabilizer_ratio(d: Diagram, dec_c: Decoration, dec_d: Decoration) -> int:
    """Ratio of the two stabilizer-parabolic orders for faces of dimensions c < d.

    For consecutive dimensions this is the number of d-faces meeting in a
    (d-1)-face; for a wider gap it counts flags rather than the distinct
    faces that incidence_count finds as one orbit of the c-face's stabilizer.
    """
    _common_end(d, dec_c, dec_d)
    num = parabolic_order(d, dec_c.open_nodes)
    den = parabolic_order(d, dec_d.open_nodes)
    if num % den:
        raise ConsistencyError(f"non-integral stabilizer ratio {num}/{den}")
    return num // den


def seed_point(d: Diagram, end: End) -> Point:
    """The seed vertex: first fundamental weight (left) or last (right)."""
    return fundamental_weight(d, 1 if end is End.LEFT else d.rank)


def vertex_table(d: Diagram, end: End) -> tuple[tuple[Point, ...], tuple[tuple[int, ...], ...]]:
    """The seed's vertex orbit in ``orbit`` order (vertex 0 is the seed) and
    ``perms``, where ``perms[i - 1][v]`` is the index of vertex ``v`` reflected
    by node ``i``; both come from the orbit sweep and its cache."""
    result = orbit(d, seed_point(d, end), d.nodes)
    return result.points, result.perms


def _closure(first: Face, perms) -> tuple[Face, ...]:
    """Sorted breadth-first closure of one face under reflections' vertex perms.

    A reflection is an involution: once face v maps to n, n is flagged as
    known to map back, so each swapped pair's image is formed once.
    """
    if len(first) == 1:  # itemgetter of one index returns it bare: close (v, v)
        return tuple((v,) for v, _ in _closure(first * 2, perms))
    index = {first: 0}
    order = [first]
    known = [bytearray(1) for _ in perms]  # known[g][n]: n's image under g is found
    for v, face in enumerate(order):  # order grows while swept
        images = itemgetter(*face)
        for perm, flags in zip(perms, known):
            if flags[v]:
                continue
            image = tuple(sorted(images(perm)))
            n = index.get(image)
            if n is None:
                n = index[image] = len(order)
                order.append(image)
                if n == len(flags):
                    for f in known:
                        f += bytes(n)
            flags[n] = 1
    return tuple(sorted(order))


def _representative(perms, dec: Decoration) -> Face:
    """The seed vertex's orbit under the face group, as vertex indices."""
    return tuple(v for (v,) in _closure((0,), [perms[i - 1] for i in dec.filled_nodes]))


@lru_cache(maxsize=256)
def enumerate_faces(d: Diagram, dec: Decoration) -> tuple[Face, ...]:
    """Every face of the class, via breadth-first closure on vertex sets.

    A face is a sorted tuple of indices into the vertex orbit of its seed
    end, ``vertex_table(d, end)[0]``.  The result is sorted and its size is
    checked against the counting formula.
    """
    end, dim = locate_in_chain(d, dec)
    points, perms = vertex_table(d, end)
    if dim == 0:  # the vertex orbit itself, read off the table instead of closed again
        faces = tuple((v,) for v in range(len(points)))
    else:
        faces = _closure(_representative(perms, dec), perms)
    expected = face_count(d, dec)
    if len(faces) != expected:
        raise ConsistencyError(
            f"geometric enumeration found {len(faces)} faces, counting gives {expected}"
        )
    return faces


def incidence_count(d: Diagram, dec_c: Decoration, dec_d: Decoration) -> int:
    """How many distinct d-faces contain one fixed c-face, geometrically.

    The c-face's stabilizer W_K (K its filled and open nodes) moves one d-face
    onto all of them, and that face's centroid lies on the ray of weight m, the
    d-decoration's square: the count is the size of that weight's W_K-orbit.
    """
    _common_end(d, dec_c, dec_d)
    (m,) = dec_d.square_nodes
    return orbit(d, fundamental_weight(d, m), dec_c.filled_nodes | dec_c.open_nodes).size


def euler_sum(d: Diagram, end: End) -> int:
    """Alternating sum of face counts; 2 in odd rank, 0 in even rank."""
    return sum(
        (-1) ** k * face_count(d, dec) for k, dec in enumerate(chain(d, end))
    )


_NAMES_3D = {4: "tetrahedron", 6: "octahedron", 8: "cube",
             12: "icosahedron", 20: "dodecahedron"}
_NAMES_4D = {5: "pentatope", 8: "16-cell", 16: "tesseract", 24: "24-cell",
             120: "600-cell", 600: "120-cell"}
_NAMES_2D = {3: "triangle", 4: "square", 5: "pentagon"}


def polytope_name(d: Diagram, end: End) -> str:
    """Conventional name, keyed strictly on the vertex count.

    In particular the icosahedron is the 12-vertex pentagonal polytope and
    the dodecahedron the 20-vertex one, whatever the seed was called
    elsewhere.
    """
    vertices = face_count(d, chain(d, end)[0])
    if d.rank == 1:
        return "segment"
    if d.rank == 2:
        return _NAMES_2D.get(vertices, f"{vertices}-gon")
    if d.rank == 3 and vertices in _NAMES_3D:
        return _NAMES_3D[vertices]
    if d.rank == 4 and vertices in _NAMES_4D:
        return _NAMES_4D[vertices]
    if d.family is Family.A:
        return f"{d.rank}-simplex"
    if d.family in (Family.B, Family.C):
        return "cross-polytope" if vertices == 2 * d.rank else "hypercube"
    return f"{d.name} polytope ({end.value} seed)"  # pragma: no cover


EDGE_MEET_NOTE_600CELL = (
    "600-cell: 12 edges meet at every vertex (double counting: 720 edges "
    "with 2 ends over 120 vertices gives 12). The figure 20 sometimes "
    "quoted for this entry is the number of tetrahedral cells around a "
    "vertex, not the number of edges."
)


def meeting_note(d: Diagram, end: End, c: int, dim_d: int) -> str | None:
    """Caveat attached to specific meeting numbers, if any."""
    if d.family is Family.H4 and end is End.LEFT and (c, dim_d) == (0, 1):
        return EDGE_MEET_NOTE_600CELL
    return None


def report(d: Diagram, end: End) -> dict:
    """Structured face report for one polytope (fixed JSON field names)."""
    decs = chain(d, end)
    rows = [{
        "decoration": dec.text,
        "d": dec.dimension,
        "v": dec.dual_dimension,
        "face_nodes": sorted(dec.filled_nodes),
        "stab_nodes": sorted(dec.open_nodes),
        "count": face_count(d, dec),
    } for dec in decs]
    meets = [{
        "c": k - 1,
        "d": k,
        "ratio": stabilizer_ratio(d, decs[k - 1], decs[k]),
        "geometric": incidence_count(d, decs[k - 1], decs[k]),
    } for k in range(1, d.rank)]
    return {"diagram": d.name, "end": end.value, "rows": rows, "meets": meets}

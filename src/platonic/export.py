"""Mesh and incidence exports.

Cartesian coordinates come from a Cholesky factor of the exact weight
Gram matrix; exact coordinates are converted to floats only at this last
step, so the combinatorics upstream never sees rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .decoration import End, chain
from .diagram import Diagram, gram_matrix_weights
from .facelattice import enumerate_faces, face_count, polytope_name, vertex_table


def cartesian_map(d: Diagram):
    """Matrix turning weight coordinates into Cartesian float coordinates."""
    gram = np.array([[float(v) for v in row] for row in gram_matrix_weights(d)])
    return np.linalg.cholesky(gram).T


def _vertex_arrays(d: Diagram, end: End):
    points = vertex_table(d, end)[0]
    coords = np.array([[float(v) for v in p] for p in points]) @ cartesian_map(d).T
    return points, coords


def _polygon_cycle(face_idx: list[int], coords: np.ndarray) -> list[int]:
    """Order polygon vertices counterclockwise seen from outside.

    The polytope is centered at the origin, so the face centroid points
    along the outward normal.
    """
    pts = coords[face_idx]
    center = pts.mean(axis=0)
    normal = center / np.linalg.norm(center)
    u = pts[0] - center
    u -= np.dot(u, normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    angles = [
        math.atan2(float(np.dot(p - center, v)), float(np.dot(p - center, u)))
        for p in pts
    ]
    ordered = [i for _, i in sorted(zip(angles, face_idx))]
    # check the winding really is outward (Newell normal against centroid)
    ring = coords[ordered]
    newell = np.cross(ring, np.roll(ring, -1, axis=0)).sum(axis=0)
    if np.dot(newell, center) < 0:  # pragma: no cover - defensive
        ordered.reverse()
    return ordered


def off_text(d: Diagram, end: End) -> str:
    """OFF mesh of a 3-dimensional polytope: vertices and oriented polygons."""
    if d.rank != 3:
        raise ValueError(f"OFF export needs rank 3, {d.name} has rank {d.rank}")
    decs = chain(d, end)
    points, coords = _vertex_arrays(d, end)
    # polygons in the order of their exact vertex sets
    faces = sorted(enumerate_faces(d, decs[2]), key=lambda f: sorted(points[v] for v in f))
    polygons = [_polygon_cycle(list(face), coords) for face in faces]
    edge_count = face_count(d, decs[1])
    lines = ["OFF", f"{len(points)} {len(polygons)} {edge_count}"]
    for row in coords:
        lines.append(" ".join(f"{x:.12g}" for x in row))
    for poly in polygons:
        lines.append(" ".join(str(i) for i in [len(poly)] + poly))
    return "\n".join(lines) + "\n"


def incidence_json(d: Diagram, end: End) -> dict:
    """Exact vertices plus per-dimension face vertex-index lists."""
    if d.rank > 8:
        raise ValueError("incidence export supported up to rank 8")
    points, coords = _vertex_arrays(d, end)
    faces = {
        str(k): [list(face) for face in enumerate_faces(d, dec)]
        for k, dec in enumerate(chain(d, end))
    }
    return {
        "diagram": d.name,
        "end": end.value,
        "name": polytope_name(d, end),
        "vertices": [
            {"omega": [str(v) for v in p], "cartesian": [float(x) for x in row]}
            for p, row in zip(points, coords)
        ],
        "faces": faces,
    }

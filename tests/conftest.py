"""Shared helpers for the test suite."""

import pytest

from platonic import facelattice
from platonic.qsqrt5 import ONE, ZERO
from platonic.verify import _all_diagrams as all_diagrams
from platonic.verify import _chain_diagrams as chain_diagrams


def matmul(x, y):
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in zip(*y))
        for row in x
    )


def transpose(x):
    return tuple(zip(*x))


def reflection_matrix(cartan, i):
    """Matrix of reflection i on weight coordinates: x'_j = x_j - x_i C_ij.

    Identity except in column i, which picks up -C_ij (1-based i).
    """
    n = len(cartan)
    i0 = i - 1
    rows = []
    for j in range(n):
        row = [ONE if j == k else ZERO for k in range(n)]
        row[i0] = row[i0] - cartan[i0][j]
        rows.append(tuple(row))
    return tuple(rows)


@pytest.fixture
def tampered_face_count(monkeypatch):
    """``facelattice.face_count`` one too high, with the face cache emptied around it."""
    real = facelattice.face_count
    monkeypatch.setattr(facelattice, "face_count", lambda d, c: real(d, c) + 1)
    facelattice.enumerate_faces.cache_clear()
    yield
    facelattice.enumerate_faces.cache_clear()

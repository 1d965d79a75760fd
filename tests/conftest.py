"""Shared helpers for the test suite."""

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

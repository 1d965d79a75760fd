"""Coxeter-Dynkin diagrams of the finite reflection groups used here.

Supported families: the chains A_n, B_n, C_n, F4 and the pentagonal
chains H2, H3, H4, plus the forked family D_n, carried for its group
order and root count as the non-Platonic case that ``decoration.chain``
refuses.  Each is one row of ``_FAMILIES``: least
rank, only rank, irreducible type, its one bond above 3 and the short side
of a label-4 bond; bonds, root lengths, orders, name and parsing read it.
Nodes are numbered 1..n left to right as the diagrams are conventionally
drawn; an absent edge means the two mirrors commute (label 2).

A ``Diagram`` is its family and rank; its edges are that family's bonds,
built once when it is made.  The module derives everything combinatorial
and metric from a diagram: Cartan matrix C, Gram matrix of the fundamental
weights (one elimination of its inverse 2 L^-1 C along the bonds, with no
general matrix inverse), group order, root count, and the order of each
parabolic subgroup of a chain, one irreducible type per maximal run of nodes.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .qsqrt5 import GOLDEN, ONE, QSqrt5, ZERO

MatrixQ = tuple[tuple[QSqrt5, ...], ...]


class Family(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    F4 = "F4"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"


class DiagramError(ValueError):
    """Raised for invalid family/rank combinations or unknown names."""


class ConsistencyError(RuntimeError):
    """Raised when two independent routes to one quantity disagree."""


@dataclass(frozen=True)
class Diagram:
    """A Coxeter-Dynkin diagram, fixed by its family and rank.

    ``edges``, the family's bonds at that rank, holds triples ``(i, j, m)``
    with ``i < j`` and label ``m in {3, 4, 5}``; every unlisted pair has
    label 2.  Raises DiagramError unless the rank is admissible.
    """

    family: Family
    rank: int
    edges: tuple[tuple[int, int, int], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _bonds(self.family, self.rank))
        # node i's neighbours, ascending (the bonds are sorted), at i - 1: O(1) per walk step
        adjacent: list[tuple[int, ...]] = [()] * self.rank
        for i, j, _ in self.edges:
            adjacent[i - 1] += (j,)
            adjacent[j - 1] += (i,)
        object.__setattr__(self, "_neighbors", tuple(adjacent))
        # every cache keyed by a diagram hashes it, and the generated hash would
        # hash ``family`` through Enum's Python-level __hash__ on each lookup
        object.__setattr__(self, "_hash", hash((self.family.value, self.rank)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        only = _FAMILIES[self.family].only
        return self.family.value if only else f"{self.family.value}{self.rank}"

    @property
    def nodes(self) -> range:
        """Node indices 1..rank."""
        return range(1, self.rank + 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i - 1] if 0 < i <= self.rank else ()

    def __str__(self) -> str:
        return self.name


# least rank, only rank, irreducible type as named in _TYPES, (label, index among
# the chain's bonds) of the one bond above 3, and the short side of a label-4 bond
_Row = namedtuple("_Row", "least only type bond short")

_FAMILIES = {
    Family.A: _Row(1, None, "A", None, None),
    Family.B: _Row(2, None, "BC", (4, -1), "right"),
    Family.C: _Row(2, None, "BC", (4, -1), "left"),
    Family.D: _Row(4, None, "D", None, None),
    Family.F4: _Row(4, 4, "F4", (4, 1), "right"),
    Family.H2: _Row(2, 2, "H", (5, -1), None),
    Family.H3: _Row(3, 3, "H", (5, -1), None),
    Family.H4: _Row(4, 4, "H", (5, -1), None),
}


def _bonds(family: Family, rank: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted labelled edges of the family's diagram; DiagramError on a bad rank."""
    row = _FAMILIES[family]
    if rank < row.least or row.only not in (None, rank):
        raise DiagramError(f"invalid rank {rank} for family {family.value}")

    chain = [(i, i + 1, 3) for i in range(1, rank)]
    if family is Family.D:  # fork: the last chain edge moves to node rank-2
        chain[-1] = (rank - 2, rank, 3)
    elif row.bond:
        label, at = row.bond
        chain[at] = chain[at][:2] + (label,)
    return tuple(chain)


@lru_cache(maxsize=256)
def build(family: Family, rank: int) -> Diagram:
    """Construct the diagram of the given family and rank.

    Raises DiagramError when the rank is not admissible for the family.
    """
    return Diagram(family, rank)


_NAME_RE = re.compile(r"([a-hA-H])\s*([0-9]+)")
_BY_NAME = dict(Family.__members__)  # "A".."D", "F4", "H2".."H4"


def parse_name(name: str) -> Diagram:
    """Parse diagram names like ``A4``, ``b7``, ``F4``, ``H3``."""
    m = _NAME_RE.fullmatch(name.strip())
    letter, rank = (m.group(1).upper(), int(m.group(2))) if m else ("", 0)
    family = _BY_NAME.get(letter) or _BY_NAME.get(f"{letter}{rank}")
    if family is None:
        valid = ", ".join(f.value if row.only else f"{f.value}<n>" for f, row in _FAMILIES.items())
        raise DiagramError(f"unknown diagram name: {name!r} (valid names: {valid})")
    return build(family, rank)


# -- root geometry -----------------------------------------------------

def _root_lengths_sq(d: Diagram) -> tuple[Fraction, ...]:
    """Squared lengths of the simple roots (long = 2, short = 1)."""
    short = _FAMILIES[d.family].short
    cut = next((i for i, _, m in d.edges if m == 4), 0)  # lower node of the label-4 bond
    return tuple(Fraction(1 if short == ("right" if i > cut else "left") else 2) for i in d.nodes)


@lru_cache(maxsize=256)
def cartan_matrix(d: Diagram) -> MatrixQ:
    """Cartan matrix C with C_ij = 2 (a_i|a_j) / (a_j|a_j), read off the bonds.

    A label-3 bond joins equal roots and gives -1 both ways, a label-5 bond
    -golden; a label-4 bond has (a_i|a_j) = -1 between a long and a short
    root, so -1 toward the long one and -2 toward the short one.  Rows
    express the simple roots in the basis of fundamental weights.
    """
    lengths = _root_lengths_sq(d)
    rows = [[QSqrt5(2) if i == j else ZERO for j in d.nodes] for i in d.nodes]
    for i, j, m in d.edges:
        for a, b in ((i, j), (j, i)):
            bond = -GOLDEN if m == 5 else QSqrt5(-2 / lengths[b - 1]) if m == 4 else -ONE
            rows[a - 1][b - 1] = bond
    return tuple(map(tuple, rows))


@lru_cache(maxsize=256)
def gram_matrix_weights(d: Diagram) -> MatrixQ:
    """Gram matrix G of the fundamental weights, the inverse of T = 2 L^-1 C.

    With L = diag((a_i|a_i)), T_ij = 4 (a_i|a_j) / (l_i l_j) is symmetric and
    nonzero only on the diagonal and at bonds.  Each node j > 1 has one lower
    neighbour p, so eliminating from node n down gives T = W diag(e) W^T with
    one entry W_pj = T_pj / e_j per bond, and G = U^T diag(1/e) U for U = W^-1.
    Column j of U is column p times -W_pj plus unit vector j, so from node 1 up
    G_jj = 1/e_j + W_pj^2 G_pp and G_ij = -W_pj G_ip for i < j; no general
    inverse is formed.  A node with two lower neighbours raises ConsistencyError.
    """
    lower: dict[int, int] = {}
    for i, j, _ in d.edges:
        if lower.setdefault(j, i) != i:
            raise ConsistencyError(f"node {j} of {d.name} has two lower neighbours")
    lengths = _root_lengths_sq(d)
    e = {i: QSqrt5(4 / length) for i, length in zip(d.nodes, lengths)}  # T_ii, then pivots
    u = {}  # u[j] = U_pj = -W_pj
    for j, p in sorted(lower.items(), reverse=True):
        t = cartan_matrix(d)[p - 1][j - 1] * (2 / lengths[p - 1])  # T_pj
        u[j] = -t / e[j]
        e[p] += t * u[j]
    g = {(1, 1): e[1].invert()}
    for j, p in sorted(lower.items()):
        g[j, j] = e[j].invert() + u[j] * u[j] * g[p, p]
        for i in range(1, j):
            g[i, j] = g[j, i] = u[j] * g[i, p]
    return tuple(tuple(g[i, j] for j in d.nodes) for i in d.nodes)


# -- orders and root counts ----------------------------------------------

# (order, root count) of each irreducible type at rank n, keyed by the
# type names of the family rows and of parabolic_order's runs
_TYPES = {
    "A": lambda n: (math.factorial(n + 1), n * (n + 1)),
    "BC": lambda n: (2**n * math.factorial(n), 2 * n * n),
    "D": lambda n: (2 ** (n - 1) * math.factorial(n), 2 * n * n - 2 * n),
    "F4": lambda n: (1152, 48),
    "H": lambda n: {2: (10, 10), 3: (120, 30), 4: (14400, 60)}[n],
}


def group_order(d: Diagram) -> int:
    """Order of the reflection group of the diagram."""
    return _TYPES[_FAMILIES[d.family].type](d.rank)[0]


def root_count(d: Diagram) -> int:
    """Number of nonzero roots of the associated root system."""
    return _TYPES[_FAMILIES[d.family].type](d.rank)[1]


# -- parabolic sub-diagrams ----------------------------------------------

def parabolic_order(d: Diagram, nodes: frozenset[int] | set[int]) -> int:
    """Order of the subgroup generated by the reflections in ``nodes``.

    On a chain each component of ``nodes`` is a maximal run lo..hi, whose
    type reads the family row: the whole chain has the family's own type, a
    shorter run holding the one bond above 3 is H (label 5) or BC (label 4),
    and any other run is A.  Raises ValueError for the fork D, which is no
    chain, and for nodes outside 1..rank.
    """
    row = _FAMILIES[d.family]
    if d.family is Family.D:
        raise ValueError(f"{d.name} is not a chain: its parabolic orders are not read by runs")
    nodes = sorted(nodes)
    if nodes and not 1 <= nodes[0] <= nodes[-1] <= d.rank:
        raise ValueError(f"nodes {nodes} outside 1..{d.rank}")
    # lower node and label of the one bond above 3; node 0 lies in no run
    heavy, _, label = d.edges[row.bond[1]] if row.bond else (0, 0, 3)
    order, lo = 1, 0
    for k, v in enumerate(nodes, 1):
        if k == len(nodes) or nodes[k] != v + 1:  # nodes[lo:k] is the run nodes[lo]..v
            size, inside = k - lo, nodes[lo] <= heavy < v
            kind = row.type if size == d.rank else ("H" if label == 5 else "BC") if inside else "A"
            order *= _TYPES[kind](size)[0]
            lo = k
    return order


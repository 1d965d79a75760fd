"""Coxeter-Dynkin diagrams of the finite reflection groups used here.

Supported families: the chains A_n, B_n, C_n, F4 and the pentagonal
chains H2, H3, H4, plus the forked family D_n, which is carried only for
its group order and root count.  Each is one row of ``_FAMILIES``: least
rank, only rank, irreducible type, its one bond above 3 and the short side
of a label-4 bond; bonds, root lengths, orders, name and parsing read it.
Nodes are numbered 1..n left to right as the diagrams are conventionally
drawn; an absent edge means the two mirrors commute (label 2).

A ``Diagram`` is checked when it is made: its edges must be the bonds of
its family at its rank.  The module derives everything combinatorial and
metric from a diagram: Cartan matrix C, Gram matrix of the fundamental
weights (one elimination of its inverse 2 L^-1 C along the bonds, with no
general matrix inverse), group order, root count, and the finite type of
each parabolic subgroup, read off the bonds of a node subset.
"""

from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache

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
    """A Coxeter-Dynkin diagram: family, rank and labelled edges.

    ``edges`` holds triples ``(i, j, m)`` with ``i < j`` and label
    ``m in {3, 4, 5}``; every unlisted pair has label 2.  Raises
    DiagramError unless they are the family's bonds at an admissible rank.
    """

    family: Family
    rank: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.edges != _bonds(self.family, self.rank):
            raise DiagramError(f"edges {self.edges} are not the bonds of {self.name}")
        # every cache keyed by a diagram hashes it; the edges follow from these two
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

    def label(self, i: int, j: int) -> int:
        if i == j:
            return 1
        key = (i, j) if i < j else (j, i)
        for a, b, m in self.edges:
            if (a, b) == key:
                return m
        return 2

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(b if a == i else a for a, b, _ in self.edges if i in (a, b)))

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


@cache
def build(family: Family, rank: int) -> Diagram:
    """Construct the diagram of the given family and rank.

    Raises DiagramError when the rank is not admissible for the family.
    """
    return Diagram(family, rank, _bonds(family, rank))


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


@cache
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


@cache
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
# names classify_parabolic gives its components
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

def _components(d: Diagram, nodes: frozenset[int]) -> list[list[int]]:
    """Sorted components of ``nodes`` in node order: every node here has at
    most one lower neighbour, and a sweep in node order joins its component."""
    lower = {j: i for i, j, _ in d.edges}
    home: dict[int, list[int]] = {}
    comps = []
    for v in sorted(nodes):
        comp = home.get(lower.get(v))
        if comp is None:
            comp = []
            comps.append(comp)
        comp.append(v)
        home[v] = comp
    return comps


def _classify(d: Diagram, comp: list[int]) -> tuple[str, int]:
    """Finite type of one connected component, read off its bonds.

    A fork (a node of degree 3) occurs only in D; otherwise the component
    is a run of consecutive chain nodes with at most one bond above 3.
    """
    k = len(comp)
    members = set(comp)
    inside = [(i, j, m) for i, j, m in d.edges if i in members and j in members]
    if 3 in Counter(v for i, j, _ in inside for v in (i, j)).values():
        return ("D", k)
    heavy = [(i, m) for i, _, m in inside if m > 3]
    if not heavy:
        return ("A", k)
    [(i, m)] = heavy
    if m == 5:
        return ("H", k)
    return ("BC", k) if i - comp[0] in (0, k - 2) else ("F4", 4)


def classify_parabolic(d: Diagram, nodes: frozenset[int] | set[int]) -> list[tuple[str, int]]:
    """Classify the sub-diagram induced by ``nodes``.

    Returns one ``(family, rank)`` pair per connected component, ordered
    by smallest node, with families ``A``, ``BC`` (equal orders), ``D``,
    ``F4`` and ``H``.
    """
    nodes = frozenset(nodes)
    if not nodes <= set(d.nodes):
        raise ValueError(f"nodes {sorted(nodes)} outside 1..{d.rank}")
    return [_classify(d, comp) for comp in _components(d, nodes)]


def parabolic_order(d: Diagram, nodes: frozenset[int] | set[int]) -> int:
    """Order of the subgroup generated by the reflections in ``nodes``."""
    order = 1
    for family, rank in classify_parabolic(d, nodes):
        order *= _TYPES[family](rank)[0]
    return order


def is_platonic_chain(d: Diagram) -> bool:
    """True when the diagram is a single branch-free path.

    Only such diagrams, seeded at an extreme node, produce polytopes with
    one symmetry class of face per dimension.
    """
    return all(j == i + 1 for i, j, _ in d.edges)

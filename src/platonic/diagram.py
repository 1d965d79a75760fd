"""Coxeter-Dynkin diagrams of the finite reflection groups used here.

Supported families: the chains A_n, B_n, C_n (n >= 2), F4 and the
pentagonal chains H2, H3, H4, plus the forked family D_n (n >= 4), which
is carried only for its group order and root count.  Nodes are numbered
1..n left to right as the diagrams are conventionally drawn; an absent
edge means the two mirrors commute (label 2).

A ``Diagram`` is checked when it is made: its edges must be the bonds of
its family at its rank.  The module derives everything combinatorial and
metric from a diagram: Cartan matrix C, Gram matrix of the fundamental
weights (from C^-1 and the root lengths), group order, root count, and the
finite type of each parabolic subgroup, read off the bonds of a node subset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache

from .qsqrt5 import GOLDEN, ONE, QSqrt5, ZERO

MatrixQ = tuple[tuple[QSqrt5, ...], ...]

_HALF = Fraction(1, 2)


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
        if self.family in (Family.F4, Family.H2, Family.H3, Family.H4):
            return self.family.value
        return f"{self.family.value}{self.rank}"

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
        out = []
        for a, b, _ in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return tuple(sorted(out))

    def __str__(self) -> str:
        return self.name


_RANK_RULES = {
    Family.A: (1, None),
    Family.B: (2, None),
    Family.C: (2, None),
    Family.D: (4, None),
    Family.F4: (4, 4),
    Family.H2: (2, 2),
    Family.H3: (3, 3),
    Family.H4: (4, 4),
}


def _bonds(family: Family, rank: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted labelled edges of the family's diagram; DiagramError on a bad rank."""
    lo, hi = _RANK_RULES[family]
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
        # fork: replace the last chain edge by two tips on node rank-2
        chain = [(i, i + 1, 3) for i in range(1, rank - 1)]
        chain.append((rank - 2, rank, 3))
    return tuple(sorted(chain))


@cache
def build(family: Family, rank: int) -> Diagram:
    """Construct the diagram of the given family and rank.

    Raises DiagramError when the rank is not admissible for the family.
    """
    return Diagram(family, rank, _bonds(family, rank))


_NAME_RE = re.compile(r"([a-hA-H])\s*([0-9]+)")


def parse_name(name: str) -> Diagram:
    """Parse diagram names like ``A4``, ``b7``, ``F4``, ``H3``."""
    m = _NAME_RE.fullmatch(name.strip())
    if m is None:
        raise DiagramError(f"unknown diagram name: {name!r}")
    letter = m.group(1).upper()
    rank = int(m.group(2))
    if letter in ("A", "B", "C", "D"):
        return build(Family(letter), rank)
    if letter == "F":
        if rank != 4:
            raise DiagramError(f"unknown diagram name: {name!r} (only F4 exists)")
        return build(Family.F4, 4)
    if letter == "H":
        try:
            return build(Family(f"H{rank}"), rank)
        except ValueError as exc:
            raise DiagramError(
                f"unknown diagram name: {name!r} (H2, H3, H4 exist)"
            ) from exc
    raise DiagramError(f"unknown diagram name: {name!r}")


# -- root geometry -----------------------------------------------------

def _root_lengths_sq(d: Diagram) -> tuple[Fraction, ...]:
    """Squared lengths of the simple roots (long = 2, short = 1)."""
    n = d.rank
    if d.family is Family.B:
        return tuple(Fraction(2) if i < n else Fraction(1) for i in d.nodes)
    if d.family is Family.C:
        return tuple(Fraction(1) if i < n else Fraction(2) for i in d.nodes)
    if d.family is Family.F4:
        return (Fraction(2), Fraction(2), Fraction(1), Fraction(1))
    return tuple(Fraction(2) for _ in d.nodes)


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
    """Gram matrix G of the fundamental weights, G_ij = (C^-1)_ij (a_j|a_j) / 2.

    A = C diag((a_j|a_j)) / 2 is the Gram matrix of the simple roots, so
    C^-1 A C^-T = diag((a_i|a_i)) C^-T / 2, which is symmetric.
    """
    halves = [length * _HALF for length in _root_lengths_sq(d)]
    return tuple(
        tuple(v * h for v, h in zip(row, halves)) for row in matrix_inverse(cartan_matrix(d))
    )


# -- exact matrix inverse (Gauss-Jordan) --------------------------------

def matrix_inverse(x: MatrixQ) -> MatrixQ:
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


def _type(family: Family) -> str:
    """The irreducible type of a family's diagram, as named in ``_TYPES``."""
    v = family.value
    return "BC" if v in ("B", "C") else "H" if v[0] == "H" else v


def group_order(d: Diagram) -> int:
    """Order of the reflection group of the diagram."""
    return _TYPES[_type(d.family)](d.rank)[0]


def root_count(d: Diagram) -> int:
    """Number of nonzero roots of the associated root system."""
    return _TYPES[_type(d.family)](d.rank)[1]


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

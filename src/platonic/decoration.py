"""Node decorations that encode the face classes of a polytope.

Each node of a diagram carries one of three marks:

* square   - a reflection that moves the tracked face (drives the recursion),
* open     - a reflection that fixes the face pointwise (its stabilizer),
* filled   - a reflection generating the face's own symmetry group.

A decoration with ``d`` filled nodes describes one symmetry class of
``d``-dimensional faces.  The recursion starts from a seed with a single
square at an extreme node (marking the seed vertex) and repeatedly turns
a square into a filled mark, promoting any open neighbours to squares,
until no open node is left.  Read with the open/filled roles exchanged,
the same decoration describes a face of the dual polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .diagram import ConsistencyError, Diagram, is_platonic_chain


_PRETTY = str.maketrans("sof", "□◊◆")


class End(str, Enum):
    LEFT = "left"
    RIGHT = "right"


class DecorationError(ValueError):
    """Raised when a decoration violates the marking rules."""


@dataclass(frozen=True)
class Decoration:
    """One mark per node: s (square), o (open), f (filled)."""

    text: str

    def __post_init__(self) -> None:
        if not set(self.text) <= set("sof"):
            raise DecorationError(f"bad decoration text {self.text!r}")

    @classmethod
    def from_text(cls, text: str) -> "Decoration":
        """Build from the marks in either case."""
        return cls(text.lower())

    @property
    def pretty(self) -> str:
        return self.text.translate(_PRETTY)

    def __len__(self) -> int:
        return len(self.text)

    def _nodes_of(self, mark: str) -> frozenset[int]:
        return frozenset(i + 1 for i, m in enumerate(self.text) if m == mark)

    @property
    def filled_nodes(self) -> frozenset[int]:
        return self._nodes_of("f")

    @property
    def open_nodes(self) -> frozenset[int]:
        return self._nodes_of("o")

    @property
    def square_nodes(self) -> frozenset[int]:
        return self._nodes_of("s")

    @property
    def dimension(self) -> int:
        """Dimension of the face this decoration describes."""
        return self.text.count("f")

    @property
    def dual_dimension(self) -> int:
        """Dimension of the corresponding face of the dual polytope."""
        return self.text.count("o")

    def reversed(self) -> "Decoration":
        return Decoration(self.text[::-1])

    def __str__(self) -> str:
        return self.pretty


def validate(d: Diagram, dec: Decoration) -> bool:
    """Check the marking grammar against a diagram.

    A decoration is valid when no pair of connected nodes carries an open
    mark next to a filled one.  Raises on length mismatch.
    """
    if len(dec) != d.rank:
        raise DecorationError(
            f"decoration of length {len(dec)} does not fit rank {d.rank}"
        )
    for i, j, _ in d.edges:
        if {dec.text[i - 1], dec.text[j - 1]} == {"o", "f"}:
            return False
    return True


def seed(d: Diagram, end: End) -> Decoration:
    """Seed decoration: one square at the chosen extreme node, open elsewhere.

    Marks the seed vertex (the fundamental weight of node 1 or node n).
    Only branch-free chain diagrams admit a Platonic seed.
    """
    if not is_platonic_chain(d):
        raise DecorationError(
            f"{d.name} is not a branch-free chain; no single-orbit seed exists"
        )
    text = "s" + "o" * (d.rank - 1)
    return Decoration(text if end is End.LEFT else text[::-1])


def step(d: Diagram, dec: Decoration) -> tuple[Decoration, ...]:
    """All successors of a decoration under one recursion step.

    For each square: turn it into a filled mark and promote its open
    neighbours to squares.  Successors are returned in node order of the
    replaced square; they are distinct, since two of them differ at the
    square each one filled.  Raises when the decoration is terminal (no
    open node left) or has no square to replace.
    """
    if not validate(d, dec):
        raise DecorationError(f"invalid decoration {dec.text} for {d.name}")
    squares = sorted(dec.square_nodes)
    if not squares:
        raise DecorationError("no square to replace")
    if not dec.open_nodes:
        raise DecorationError("terminal decoration: no open node remains")
    out: list[Decoration] = []
    for s in squares:
        marks = list(dec.text)
        marks[s - 1] = "f"
        for nb in d.neighbors(s):
            if marks[nb - 1] == "o":
                marks[nb - 1] = "s"
        out.append(Decoration("".join(marks)))
    return tuple(out)


@lru_cache(maxsize=256)
def chain(d: Diagram, end: End) -> tuple[Decoration, ...]:
    """The full recursion from the seed: one decoration per dimension 0..n-1.

    On a chain diagram the single-square recursion is deterministic: the
    square walks from the seed end to the far end, leaving filled marks
    behind.  The recursion depends on nothing but ``(d, end)``, so each
    pair runs once per process while it stays among the 256 most recent.
    """
    current = seed(d, end)
    out = [current]
    while current.open_nodes:
        successors = step(d, current)
        if len(successors) != 1:
            raise ConsistencyError("single-square chain recursion must not branch")
        current = successors[0]
        out.append(current)
    if len(out) != d.rank:
        raise ConsistencyError(f"chain has {len(out)} decorations, rank is {d.rank}")
    return tuple(out)

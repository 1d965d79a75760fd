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

A seed is Platonic when at each step all faces lie in one orbit: each
decoration has exactly one square.  ``chain`` alone judges this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .diagram import Diagram


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
    Whether the walk from it stays Platonic is ``chain``'s verdict.
    """
    text = "s" + "o" * (d.rank - 1)
    return Decoration(text if end is End.LEFT else text[::-1])


def _fill(d: Diagram, text: str, s: int) -> str:
    """Fill the square at node ``s``; its open neighbours become squares."""
    marks = list(text)
    marks[s - 1] = "f"
    for nb in d.neighbors(s):
        if marks[nb - 1] == "o":
            marks[nb - 1] = "s"
    return "".join(marks)


@lru_cache(maxsize=256)
def chain(d: Diagram, end: End) -> tuple[Decoration, ...]:
    """The full recursion from the seed: one decoration per dimension 0..n-1.

    The walk fills the one square of each decoration until no open node is
    left, and raises DecorationError at a decoration with any other number
    of squares; each fill keeps the valid seed's grammar.  The walk runs
    once per ``(d, end)`` while that pair is among the 256 most recent.
    """
    out = [seed(d, end)]
    while True:
        text = out[-1].text
        if (squares := text.count("s")) != 1:
            raise DecorationError(f"{d.name} has no Platonic chain from its {end.value} "
                                  f"end: {text} has {squares} squares")
        if "o" not in text:
            return tuple(out)
        out.append(Decoration(_fill(d, text, text.index("s") + 1)))


def is_platonic_chain(d: Diagram) -> bool:
    """The recursion's verdict: ``chain`` accepts the seeds at both ends."""
    try:
        chain(d, End.LEFT), chain(d, End.RIGHT)
    except DecorationError:
        return False
    return True

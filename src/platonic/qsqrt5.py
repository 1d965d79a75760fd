"""Exact arithmetic in the real quadratic field Q(sqrt 5).

Every scalar used by this package is a :class:`QSqrt5`, the number
``a + b*sqrt(5)`` with rational ``a`` and ``b``.  The field contains the
golden ratio ``(1 + sqrt 5)/2``, so coordinates of pentagonal geometry stay
exact; integer and rational quantities are simply elements with ``b = 0``.

All comparisons (equality, ordering, sign) are decided exactly from the
rational components, never through floating point.  Floats appear only via
:func:`float` when handing coordinates to mesh output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

Rational = int | Fraction

_SQRT5 = math.sqrt(5.0)

# optional rational head (kept only when followed by +/- or end of string),
# optional root term "b√5" with optional sign, coefficient and "*"/"·"
_PARSE_RE = re.compile(
    r"(?:(?P<a>[+-]?\d+(?:/\d+)?)(?=[+-]|$))?"
    r"(?:(?P<bsign>[+-])?(?P<b>\d+(?:/\d+)?)?[*·]?√5)?"
)


def _coerce(value: object) -> "QSqrt5 | None":
    if isinstance(value, QSqrt5):
        return value
    if isinstance(value, (int, Fraction)):
        return QSqrt5(value)
    return None


@total_ordering
class QSqrt5:
    """Immutable exact number ``a + b*sqrt(5)`` with rational a, b.

    Values are canonical by construction: :class:`fractions.Fraction`
    keeps numerator/denominator reduced with a positive denominator, so
    structural equality is value equality and instances hash soundly.
    """

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QSqrt5 components must be exact (int or Fraction)")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSqrt5 is immutable")

    # -- ring structure ------------------------------------------------

    def __add__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(o.a - self.a, o.b - self.b)

    def __mul__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1√5)(a2 + b2√5) = a1a2 + 5 b1b2 + (a1b2 + b1a2)√5
        return QSqrt5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self) -> "QSqrt5":
        return QSqrt5(-self.a, -self.b)

    def __pos__(self) -> "QSqrt5":
        return self

    # -- field structure -----------------------------------------------

    def norm(self) -> Fraction:
        """Field norm ``a^2 - 5 b^2`` (product with the conjugate)."""
        return self.a * self.a - 5 * self.b * self.b

    def conjugate(self) -> "QSqrt5":
        """Image under sqrt(5) -> -sqrt(5)."""
        return QSqrt5(self.a, -self.b)

    def invert(self) -> "QSqrt5":
        """Multiplicative inverse, computed as conjugate over norm.

        Raises ZeroDivisionError on zero.
        """
        n = self.norm()
        if n == 0:
            # norm vanishes only at 0 since sqrt(5) is irrational
            raise ZeroDivisionError("inverse of zero in Q(√5)")
        return QSqrt5(self.a / n, -self.b / n)

    def __truediv__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    # -- exact comparisons ----------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or +1, no floating point.

        Mixed-sign components are resolved by comparing ``a^2`` with
        ``5 b^2``; equality of those cannot happen off zero because
        sqrt(5) is irrational.
        """
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        # a and b pull in opposite directions
        lhs = self.a * self.a
        rhs = 5 * self.b * self.b
        if lhs == rhs:  # pragma: no cover - impossible for nonzero b
            return 0
        return sa if lhs > rhs else sb

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # rational values hash like the underlying Fraction so that
            # x == Fraction(...) implies equal hashes
            h = hash(self.a) if not self.b else hash((self.a, self.b))
            object.__setattr__(self, "_hash", h)
        return h

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT5

    def __repr__(self) -> str:
        return f"QSqrt5({self.a}, {self.b})"

    def __str__(self) -> str:
        """Canonical text form, e.g. ``1/2 + 1/2√5``; parse() round-trips it."""
        if not self.b:
            return str(self.a)
        root = "√5" if abs(self.b) == 1 else f"{abs(self.b)}√5"
        if not self.a:
            return root if self.b > 0 else "-" + root
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {root}"

    @classmethod
    def parse(cls, text: str) -> "QSqrt5":
        """Parse the textual rendering back into an exact value.

        Accepts the forms emitted by ``str``: a rational, a root term, or
        ``rational ± coefficient√5``, with optional spaces, ``*``/``·``
        between coefficient and root, and ``sqrt5``/``sqrt(5)`` spellings.
        Raises ValueError on any other text, a zero denominator included.
        """
        s = text.strip().lower().replace("sqrt(5)", "√5").replace("sqrt5", "√5")
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty QSqrt5 literal")
        m = _PARSE_RE.fullmatch(s)
        if m is None or (m.group("a") is None and "√5" not in s):
            raise ValueError(f"cannot parse QSqrt5 literal: {text!r}")
        try:
            a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
            if "√5" in s:
                b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
                if m.group("bsign") == "-":
                    b = -b
            else:
                b = Fraction(0)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in QSqrt5 literal: {text!r}") from None
        return cls(a, b)


ZERO = QSqrt5(0)
ONE = QSqrt5(1)
SQRT5 = QSqrt5(0, 1)
# golden ratio (1 + sqrt 5)/2, the exact value of 2 cos(pi/5)
GOLDEN = QSqrt5(Fraction(1, 2), Fraction(1, 2))

"""Exact arithmetic in the real quadratic field Q(sqrt 5).

Every scalar used by this package is a :class:`QSqrt5`, the number
``a + b*sqrt(5)`` with rational ``a`` and ``b``.  The field contains the
golden ratio ``(1 + sqrt 5)/2``, so coordinates of pentagonal geometry stay
exact; integer and rational quantities are simply elements with ``b = 0``.

A value is stored as three Python ints ``(p, q, r)`` for
``(p + q*sqrt(5))/r``, kept canonical: ``r > 0`` and ``gcd(p, q, r) == 1``.
Sums, differences and products are formed from those ints with one gcd
reduction (only when ``r != 1``), so arithmetic creates no
:class:`fractions.Fraction`; ``a`` and ``b`` are read back as Fractions.

All comparisons (equality, ordering, sign) are decided exactly from the
integer components, never through floating point.  Floats appear only via
:func:`float` when handing coordinates to mesh output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm, sqrt

Rational = int | Fraction

_SQRT5 = sqrt(5.0)
_new = object.__new__

# optional rational head (kept only when followed by +/- or end of string),
# optional root term "b√5" with optional sign, coefficient and "*"/"·"
_PARSE_RE = re.compile(
    r"(?:(?P<a>[+-]?\d+(?:/\d+)?)(?=[+-]|$))?"
    r"(?:(?P<bsign>[+-])?(?P<b>\d+(?:/\d+)?)?[*·]?√5)?"
)


def _make(p: int, q: int, r: int) -> "QSqrt5":
    """The value ``(p + q*sqrt 5)/r`` for ints with ``r > 0``, in canonical form."""
    if r != 1:
        g = gcd(p, q, r)
        if g != 1:
            p //= g
            q //= g
            r //= g
    x = _new(QSqrt5)
    x._p = p
    x._q = q
    x._r = r
    x._hash = None
    return x


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without building the Fraction."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _coerce(value: object) -> "QSqrt5 | None":
    if isinstance(value, QSqrt5):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


@total_ordering
class QSqrt5:
    """Exact number ``a + b*sqrt(5)`` with rational a, b.

    Stored as ints ``(p, q, r)`` for ``(p + q*sqrt(5))/r`` with ``r > 0`` and
    ``gcd(p, q, r) == 1``.  That form is unique, so structural equality is
    value equality and instances hash soundly.  Values are immutable: ``a``
    and ``b`` are read-only :class:`fractions.Fraction` properties and the
    int slots are private.
    """

    __slots__ = ("_p", "_q", "_r", "_hash")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QSqrt5 components must be exact (int or Fraction)")
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        # reduced a and b over their least common denominator are canonical
        r = lcm(a.denominator, b.denominator)
        p = a.numerator * (r // a.denominator)
        q = b.numerator * (r // b.denominator)
        self._p = p
        self._q = q
        self._r = r
        self._hash = None

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(5)."""
        return Fraction(self._q, self._r)

    # -- ring structure ------------------------------------------------

    def __add__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        r, s = self._r, o._r
        if r == s:
            return _make(self._p + o._p, self._q + o._q, r)
        return _make(self._p * s + o._p * r, self._q * s + o._q * r, r * s)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        r, s = self._r, o._r
        if r == s:
            return _make(self._p - o._p, self._q - o._q, r)
        return _make(self._p * s - o._p * r, self._q * s - o._q * r, r * s)

    def __rsub__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QSqrt5":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # (p1 + q1√5)(p2 + q2√5) = p1p2 + 5 q1q2 + (p1q2 + q1p2)√5
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        return _make(p1 * p2 + 5 * q1 * q2, p1 * q2 + q1 * p2, self._r * o._r)

    __rmul__ = __mul__

    def __neg__(self) -> "QSqrt5":
        return _make(-self._p, -self._q, self._r)

    def __pos__(self) -> "QSqrt5":
        return self

    # -- field structure -----------------------------------------------

    def norm(self) -> Fraction:
        """Field norm ``a^2 - 5 b^2`` (product with the conjugate)."""
        return Fraction(self._p * self._p - 5 * self._q * self._q, self._r * self._r)

    def conjugate(self) -> "QSqrt5":
        """Image under sqrt(5) -> -sqrt(5)."""
        return _make(self._p, -self._q, self._r)

    def invert(self) -> "QSqrt5":
        """Multiplicative inverse, computed as conjugate over norm.

        Raises ZeroDivisionError on zero.
        """
        p, q, r = self._p, self._q, self._r
        n = p * p - 5 * q * q
        if n == 0:
            # norm vanishes only at 0 since sqrt(5) is irrational
            raise ZeroDivisionError("inverse of zero in Q(√5)")
        if n < 0:
            n, r = -n, -r
        return _make(r * p, -r * q, n)

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

        The denominator is positive, so the sign is that of ``p + q*sqrt(5)``.
        Mixed-sign ints are resolved by comparing ``p^2`` with ``5 q^2``,
        which cannot be equal off zero because sqrt(5) is irrational.
        """
        p, q = self._p, self._q
        sp = (p > 0) - (p < 0)
        sq = (q > 0) - (q < 0)
        if sp == 0:
            return sq
        if sq == 0 or sp == sq:
            return sp
        return sp if p * p > 5 * q * q else sq

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __eq__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._r == o._r

    def __lt__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # rational values hash like the underlying Fraction so that
            # x == Fraction(...) implies equal hashes; others as (a, b)
            p, q, r = self._p, self._q, self._r
            if r == 1:
                h = hash((p, q)) if q else hash(p)
            else:
                a = Fraction(p, r)
                h = hash((a, Fraction(q, r))) if q else hash(a)
            self._hash = h
        return h

    # -- conversions -----------------------------------------------------

    def __float__(self) -> float:
        # int true division rounds correctly, as float(Fraction) does
        return self._p / self._r + self._q / self._r * _SQRT5

    def __repr__(self) -> str:
        return f"QSqrt5({self.a}, {self.b})"

    def __str__(self) -> str:
        """Canonical text form, e.g. ``1/2 + 1/2√5``; parse() round-trips it."""
        p, q, r = self._p, self._q, self._r
        if not q:
            return _ratio_text(p, r)
        root = "√5" if abs(q) == r else f"{_ratio_text(abs(q), r)}√5"
        if not p:
            return root if q > 0 else "-" + root
        op = "+" if q > 0 else "-"
        return f"{_ratio_text(p, r)} {op} {root}"

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

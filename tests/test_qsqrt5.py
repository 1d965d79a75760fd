"""Exact field arithmetic in Q(sqrt 5).

Claims:
    - multiplication follows (a1+b1√5)(a2+b2√5) = a1a2+5b1b2 + (a1b2+b1a2)√5
    - the golden ratio satisfies its minimal polynomial and inverse identity
    - field axioms hold on randomly sampled values
    - sign() is exact and agrees with float conversion away from zero
    - the text rendering round-trips through parse(), and repr() through eval()
    - the integer form (p + q√5)/r gives exactly what the two-Fraction
      formulas give, and stays canonical (r > 0, gcd(p, q, r) = 1)
"""

import math
import random
from fractions import Fraction

import pytest

from platonic.qsqrt5 import GOLDEN, ONE, QSqrt5, ZERO

SQRT5 = QSqrt5(0, 1)


def conjugate(x):
    """Image under sqrt(5) -> -sqrt(5)."""
    return QSqrt5(x.a, -x.b)


def rand_q(rng):
    return QSqrt5(
        Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
        Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
    )


class TestMultiplication:
    def test_golden_ratio_minimal_polynomial(self):
        # direct expansion: (1/2 + 1/2√5)^2 = 1/4 + 5/4 + 2*(1/4)√5 = 3/2 + 1/2√5
        expanded = QSqrt5(
            Fraction(1, 2) * Fraction(1, 2) + 5 * Fraction(1, 2) * Fraction(1, 2),
            2 * Fraction(1, 2) * Fraction(1, 2),
        )
        assert expanded == QSqrt5(Fraction(3, 2), Fraction(1, 2))
        assert GOLDEN * GOLDEN == expanded
        assert GOLDEN * GOLDEN == GOLDEN + 1

    def test_one_is_identity(self):
        x = QSqrt5(Fraction(7, 3), Fraction(-2, 5))
        assert ONE * x == x
        assert x * 1 == x

    def test_sqrt5_squares_to_five(self):
        assert SQRT5 * SQRT5 == QSqrt5(5, 0)

    def test_int_coercion(self):
        assert 2 * SQRT5 == QSqrt5(0, 2)
        assert SQRT5 + 1 - 1 == SQRT5


class TestInverse:
    def test_sqrt5(self):
        assert SQRT5.invert() == QSqrt5(0, Fraction(1, 5))

    def test_rational(self):
        assert QSqrt5(2).invert() == QSqrt5(Fraction(1, 2))

    def test_golden_ratio(self):
        # from x^2 = x + 1: 1/x = x - 1
        inv = GOLDEN.invert()
        assert inv == GOLDEN - 1
        assert inv == QSqrt5(Fraction(-1, 2), Fraction(1, 2))
        assert inv * GOLDEN == ONE

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.invert()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestSign:
    def test_golden_minus_one_positive(self):
        x = QSqrt5(Fraction(-1, 2), Fraction(1, 2))
        assert 5 * Fraction(1, 2) ** 2 > Fraction(1, 2) ** 2
        assert x.sign() == 1

    def test_zero(self):
        assert ZERO.sign() == 0

    def test_mixed_signs(self):
        assert QSqrt5(3, -1).sign() == 1  # 9 > 5
        assert QSqrt5(-3, 1).sign() == -1
        assert QSqrt5(2, -1).sign() == -1  # 4 < 5
        assert QSqrt5(-2, 1).sign() == 1

    def test_ordering(self):
        assert QSqrt5(2, 0) < SQRT5 < QSqrt5(Fraction(9, 4), 0)
        assert sorted([GOLDEN, ZERO, -GOLDEN]) == [-GOLDEN, ZERO, GOLDEN]

    def test_sign_matches_float(self):
        rng = random.Random(7)
        for _ in range(2000):
            x = rand_q(rng)
            f = float(x)
            if abs(f) > 1e-6:
                assert x.sign() == (1 if f > 0 else -1)


class TestFloat:
    def test_golden_ratio(self):
        assert float(GOLDEN) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)

    def test_zero_and_five(self):
        assert float(ZERO) == 0.0
        assert float(QSqrt5(5, 0)) == 5.0


class TestFieldAxioms:
    def test_random_samples(self):
        rng = random.Random(123)
        for _ in range(10_000):
            x, y, z = rand_q(rng), rand_q(rng), rand_q(rng)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_inverse_roundtrip(self):
        rng = random.Random(321)
        for _ in range(2000):
            x = rand_q(rng)
            if x:
                assert x * x.invert() == ONE
                assert (ONE / x) * x == ONE


class TestText:
    def test_examples(self):
        assert str(GOLDEN) == "1/2 + 1/2√5"
        assert str(QSqrt5(0, 1)) == "√5"
        assert str(QSqrt5(3)) == "3"
        assert str(QSqrt5(Fraction(1, 2), Fraction(-3, 2))) == "1/2 - 3/2√5"
        assert str(QSqrt5(0, -1)) == "-√5"

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(2000):
            x = rand_q(rng)
            assert QSqrt5.parse(str(x)) == x

    def test_parse_variants(self):
        assert QSqrt5.parse("sqrt5") == SQRT5
        assert QSqrt5.parse("sqrt(5)") == SQRT5
        assert QSqrt5.parse("2*√5") == QSqrt5(0, 2)
        assert QSqrt5.parse(" -1/2 + 1/2√5 ") == GOLDEN - 1
        assert QSqrt5.parse("-7/3") == QSqrt5(Fraction(-7, 3))

    def test_parse_rejects_junk(self):
        for bad in ("", "x", "1.5", "√7", "1 ++ 2√5"):
            with pytest.raises(ValueError):
                QSqrt5.parse(bad)

    def test_parse_rejects_zero_denominator(self):
        for bad in ("1/0", "1/0√5", "2 + 3/0√5", "-1/0 - √5"):
            with pytest.raises(ValueError, match="zero denominator"):
                QSqrt5.parse(bad)

    def test_repr_roundtrips_through_eval(self):
        names = {"QSqrt5": QSqrt5, "Fraction": Fraction}
        values = [QSqrt5(3), ZERO, QSqrt5(Fraction(-7, 3)), GOLDEN, -GOLDEN, SQRT5,
                  QSqrt5(Fraction(1, 2), Fraction(-3, 2)), QSqrt5(-4, -1)]
        for x in values:
            assert eval(repr(x), names) == x, repr(x)
        assert repr(GOLDEN) == "QSqrt5(Fraction(1, 2), Fraction(1, 2))"


class TestHashing:
    def test_structural_equality_and_hash(self):
        assert QSqrt5(Fraction(2, 4), Fraction(3, 6)) == GOLDEN
        assert hash(QSqrt5(Fraction(2, 4), Fraction(3, 6))) == hash(GOLDEN)

    def test_rational_values_hash_like_numbers(self):
        assert QSqrt5(3) == 3
        assert hash(QSqrt5(3)) == hash(3)
        assert hash(QSqrt5(Fraction(1, 2))) == hash(Fraction(1, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSqrt5(0.5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GOLDEN.a = Fraction(1)


class RefQ:
    """Oracle: ``a + b√5`` as two Fractions, by the formulas QSqrt5 used
    before it stored reduced ints."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def add(self, o):
        return RefQ(self.a + o.a, self.b + o.b)

    def sub(self, o):
        return RefQ(self.a - o.a, self.b - o.b)

    def mul(self, o):
        return RefQ(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def neg(self):
        return RefQ(-self.a, -self.b)

    def conjugate(self):
        return RefQ(self.a, -self.b)

    def norm(self):
        return self.a * self.a - 5 * self.b * self.b

    def invert(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return RefQ(self.a / n, -self.b / n)

    def div(self, o):
        return self.mul(o.invert())

    def sign(self):
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == 0:
            return sb
        if sb == 0 or sa == sb:
            return sa
        return sa if self.a * self.a > 5 * self.b * self.b else sb

    def hash(self):
        return hash(self.a) if not self.b else hash((self.a, self.b))

    def float(self):
        return float(self.a) + float(self.b) * math.sqrt(5.0)

    def str(self):
        if not self.b:
            return str(self.a)
        root = "√5" if abs(self.b) == 1 else f"{abs(self.b)}√5"
        if not self.a:
            return root if self.b > 0 else "-" + root
        return f"{self.a} {'+' if self.b > 0 else '-'} {root}"


def agrees(x, ref):
    """``x`` is canonical and equals the oracle value, component by component."""
    p, q, r = x._p, x._q, x._r
    assert type(p) is int and type(q) is int and type(r) is int
    assert r > 0 and math.gcd(p, q, r) == 1, (p, q, r)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (ref.a, ref.b)
    return True


def oracle_operand(rng):
    """A QSqrt5, int or Fraction (integral, rational, pure root or general),
    with the oracle value built from the same components."""
    kind = rng.randrange(6)
    if kind == 0:
        a, b = rng.randint(-30, 30), 0
        return a, RefQ(a, b)
    if kind == 1:
        a, b = Fraction(rng.randint(-400, 400), rng.randint(1, 60)), 0
        return a, RefQ(a, b)
    if kind == 2:
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
    elif kind == 3:
        a, b = 0, Fraction(rng.randint(-90, 90), rng.randint(1, 12))
    else:
        a = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        b = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
    return QSqrt5(a, b), RefQ(a, b)


class TestIntegerFormOracle:
    def test_binary_operations_match_fraction_formulas(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 3000:
            (x, rx), (y, ry) = oracle_operand(rng), oracle_operand(rng)
            if not (isinstance(x, QSqrt5) or isinstance(y, QSqrt5)):
                continue
            assert agrees(x + y, rx.add(ry))
            assert agrees(x - y, rx.sub(ry))
            assert agrees(x * y, rx.mul(ry))
            if ry.a or ry.b:
                assert agrees(x / y, rx.div(ry))
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y
            assert (x == y) == (rx.a == ry.a and rx.b == ry.b)
            assert (x < y) == (rx.sub(ry).sign() < 0)
            assert (x >= y) == (rx.sub(ry).sign() >= 0)
            checked += 1

    def test_unary_operations_and_conversions_match(self):
        rng = random.Random(2025)
        for _ in range(3000):
            v, ref = oracle_operand(rng)
            x = v if isinstance(v, QSqrt5) else QSqrt5(v)
            assert agrees(x, ref)
            assert agrees(-x, ref.neg())
            conj = conjugate(x)
            assert agrees(conj, ref.conjugate())
            assert agrees(x * conj, RefQ(ref.norm()))
            if x:
                assert agrees(x.invert(), ref.invert())
            else:
                with pytest.raises(ZeroDivisionError):
                    x.invert()
            assert x.sign() == ref.sign()
            assert hash(x) == ref.hash()
            assert repr(float(x)) == repr(ref.float())
            assert str(x) == ref.str()
            assert agrees(QSqrt5.parse(ref.str()), ref)
            assert x == QSqrt5(ref.a, ref.b)
            if not ref.b:
                assert x == ref.a and hash(x) == hash(ref.a)

    def test_constructor_reduces_to_canonical_form(self):
        rng = random.Random(2026)
        for _ in range(2000):
            a = Fraction(rng.randint(-500, 500), rng.randint(1, 90))
            b = Fraction(rng.randint(-500, 500), rng.randint(1, 90))
            for args in ((a, b), (a,), (a.numerator, b), (a, b.numerator), (str(a), b)):
                assert agrees(QSqrt5(*args), RefQ(*args))

    def test_constants_are_canonical(self):
        for x, a, b in ((ZERO, 0, 0), (ONE, 1, 0), (SQRT5, 0, 1),
                        (GOLDEN, Fraction(1, 2), Fraction(1, 2))):
            assert agrees(x, RefQ(a, b))

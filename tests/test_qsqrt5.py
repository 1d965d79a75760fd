"""Exact field arithmetic in Q(sqrt 5).

Claims:
    - multiplication follows (a1+b1√5)(a2+b2√5) = a1a2+5b1b2 + (a1b2+b1a2)√5
    - the golden ratio satisfies its minimal polynomial and inverse identity
    - field axioms hold on randomly sampled values
    - sign() is exact and agrees with float conversion away from zero
    - the text rendering round-trips through parse()
"""

import math
import random
from fractions import Fraction

import pytest

from platonic.qsqrt5 import GOLDEN, ONE, QSqrt5, SQRT5, ZERO


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

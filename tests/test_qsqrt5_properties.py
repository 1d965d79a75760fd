"""Property tests for Q(sqrt 5) arithmetic, drawn by Hypothesis.

Claims:
    - the field axioms hold on arbitrary exact values
    - every result stays in canonical form (r > 0, gcd(p, q, r) = 1)
    - the text rendering round-trips through parse()

They sit beside the seeded loops of ``test_qsqrt5.py``, which stay the
baseline; this module is skipped when Hypothesis is not installed.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from platonic.qsqrt5 import ONE, QSqrt5, ZERO  # noqa: E402


def conjugate(x):
    """Image under sqrt(5) -> -sqrt(5)."""
    return QSqrt5(x.a, -x.b)


def norm(x):
    """Field norm ``a^2 - 5 b^2`` (product with the conjugate)."""
    return x.a * x.a - 5 * x.b * x.b


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
values = st.builds(QSqrt5, rationals, rationals)


def canonical(x):
    return x._r > 0 and math.gcd(x._p, x._q, x._r) == 1


@given(values, values)
def test_commutativity(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(values, values, values)
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(values)
def test_identities_and_inverses(x):
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO and x - x == ZERO
    assume(x)
    assert x * x.invert() == ONE
    assert ONE / x == x.invert()


@given(values, values)
def test_results_are_canonical(x, y):
    results = [x + y, x - y, x * y, -x, conjugate(x)]
    if y:
        results.append(x / y)
    assert all(canonical(v) for v in results)


@given(values, values)
def test_conjugation_is_a_field_automorphism(x, y):
    assert conjugate(x + y) == conjugate(x) + conjugate(y)
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert x * conjugate(x) == QSqrt5(norm(x))


@given(values)
def test_text_roundtrip(x):
    assert QSqrt5.parse(str(x)) == x

"""Running single checks of the verification battery by number.

Claims:
    - numbers outside 1..9 raise ValueError instead of wrapping around
      to a check from the end of the table
    - a reflection that is not an involution fails check 8 with one message
      per sampled point, and the other checks still run and pass
"""

import pytest

from platonic import verify
from platonic.orbit import reflect


@pytest.mark.parametrize("number", [0, -1, 10])
def test_numbers_outside_the_table_raise(number):
    with pytest.raises(ValueError, match=f"no check number {number}"):
        verify.run_check(number)


def test_non_involution_is_reported(monkeypatch):
    # node 2 of B3 acts as s1 s2: still an isometry, but a rotation of order 3
    def rotate(d, i, x):
        if d.name == "B3" and i == 2:
            return reflect(d, 1, reflect(d, 2, x))
        return reflect(d, i, x)

    monkeypatch.setattr(verify, "reflect", rotate)
    results = verify.run_all()
    assert [r.number for r in results] == list(range(1, 10))
    check8 = results[7]
    assert check8.status == "FAIL"
    assert check8.failures == ["reflection 2 of B3 is not an involution"] * 200
    assert all(r.passed for r in results if r.number != 8)

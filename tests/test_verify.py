"""Running single checks of the verification battery by number.

Claims:
    - numbers outside 1..9 raise ValueError instead of wrapping around
      to a check from the end of the table
"""

import pytest

from platonic import verify


@pytest.mark.parametrize("number", [0, -1, 10])
def test_numbers_outside_the_table_raise(number):
    with pytest.raises(ValueError, match=f"no check number {number}"):
        verify.run_check(number)
